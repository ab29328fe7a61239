"""Simulation and verification lab for evolving-group admission dynamics."""

from .group import GroupState
from .rng import Rng
from .rules import CandidatePair, RuleSpec, decide
from .engine import Trajectory, run
from .oracles import (
    OracleContext,
    accept_any_veto,
    f_majority,
    f_veto,
    gap_functions,
    majority_context,
    phi1_bound,
    tau,
    triangle_cdf,
    triangle_pdf,
    truncated_triangle_cdf,
    veto_context,
)
from .committee import Committee
from .version import __version__

__all__ = [
    "CandidatePair",
    "Committee",
    "GroupState",
    "OracleContext",
    "Rng",
    "RuleSpec",
    "Trajectory",
    "accept_any_veto",
    "decide",
    "f_majority",
    "f_veto",
    "gap_functions",
    "majority_context",
    "phi1_bound",
    "run",
    "tau",
    "triangle_cdf",
    "triangle_pdf",
    "truncated_triangle_cdf",
    "veto_context",
    "__version__",
]
