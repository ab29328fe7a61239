"""Admission rules: pure decisions from a group summary and a candidate pair.

Each rule looks only at the summary it is allowed to see (median for
majority, extremes for consensus, the (1-r)-quantile for veto).  A decision
returns the opinion it admits, or None when nobody joins; the row of each
quantile-driven rule holds its decision in scalar form and in block form,
over numpy arrays of sorted pairs.  Exact ties always resolve toward the
left (smaller) candidate so replays are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import oracles
from .group import GroupState


@dataclass(frozen=True)
class CandidatePair:
    """Two candidate opinions, normalized so y1 <= y2."""

    y1: float
    y2: float

    def __post_init__(self):
        if self.y1 > self.y2:
            a, b = self.y2, self.y1
            object.__setattr__(self, "y1", a)
            object.__setattr__(self, "y2", b)


def majority_decide(median: float, y1: float, y2: float) -> float:
    """Admit the candidate closer to the median; exact tie admits the left."""
    if abs(median - y1) <= abs(median - y2):
        return y1
    return y2


def consensus_decide(extremes: tuple, y1: float, y2: float) -> Optional[float]:
    """Admit only on a unanimous vote (ties vote left).

    `extremes` is the (min, max) member pair.  All members vote left
    exactly when every member is at or below the candidate midpoint, and
    right exactly when every member is strictly above it.
    """
    min_member, max_member = extremes
    mid = 0.5 * (y1 + y2)
    if mid >= max_member:
        return y1
    if mid < min_member:
        return y2
    return None


def veto_decide(q_threshold: float, y1: float, y2: float) -> Optional[float]:
    """Right candidate joins iff the pair midpoint is strictly below the
    (1-r)-quantile; the left candidate can never join."""
    if 0.5 * (y1 + y2) < q_threshold:
        return y2
    return None


# kind -> (driving quantile p from r, limit tau_p of q_p from p, smoothness
# constants (c1, c2), reader of the rule's summary bound to a group and p,
# decision, block decision, chance that a step admits anyone at a summary)
_RULES = {
    "majority": (lambda r: 0.5, lambda p: 0.5, (1.0, 2.0),
                 lambda group, p: group.median, majority_decide,
                 lambda m, a, b: np.where(abs(m - a) <= abs(m - b), a, b),
                 lambda m: 1.0),
    "consensus": (lambda r: None, lambda p: None, (1.0, 2.0),
                  lambda group, p: lambda: (group.min(), group.max()),
                  consensus_decide, None, None),
    "veto": (lambda r: 1.0 - r, lambda p: oracles.tau(p) if p > 0.5 else None,
             (1.0, 4.0), lambda group, p: partial(group.quantile, p),
             veto_decide, lambda q, a, b: b[(a + b) * 0.5 < q],
             oracles.accept_any_veto),
}


@dataclass(frozen=True)
class RuleSpec:
    """Which admission rule drives a run: its kind, and r for veto.

    The other fields come from the kind's row of the rules table.  `p` is
    the driving quantile (1/2 for majority, 1-r for veto); consensus is not
    quantile-driven and carries p=None.  `tau` is the limit of q_p where it
    has a closed form (1/2 for majority, the veto fixed point for p > 1/2),
    else None.  c1/c2 are the constants the smoothness certification tests
    the rule against.
    """

    kind: str  # "majority" | "consensus" | "veto"
    r: Optional[float] = None
    p: Optional[float] = field(init=False)
    tau: Optional[float] = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "veto" and (self.r is None or not 0.0 < self.r < 1.0):
            raise ValueError(f"veto rule needs r in (0, 1), got {self.r!r}")
        p_of, tau_of, (c1, c2) = _RULES[self.kind][:3]
        p = p_of(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "tau", tau_of(p))
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def kernel(rule: RuleSpec, group: GroupState) -> tuple:
    """The rule's summary reader bound to `group`, and its decision.

    The reader takes no argument and returns the only summary the rule
    sees (median, (min, max) or the p-quantile); the summary changes only
    when a member joins.  The decision maps (summary, y1, y2), y1 <= y2,
    to the admitted opinion, or None when nobody joins.
    """
    bind, decision = _RULES[rule.kind][3:5]
    return bind(group, rule.p), decision


def block_kernel(rule: RuleSpec) -> tuple:
    """The rule's block decision, mapping (summary, y1, y2) over arrays of
    sorted pairs to the admitted opinions in pair order, and the chance that
    a step admits anyone at a fixed summary.  Consensus raises ValueError."""
    block, accept_prob = _RULES[rule.kind][5:]
    if block is None:
        raise ValueError(f"no frozen-summary sampler for rule {rule.kind!r}")
    return block, accept_prob


def decide(rule: RuleSpec, group: GroupState,
           pair: CandidatePair) -> Optional[float]:
    """The opinion the rule admits from the pair, read from the group's
    summary, or None when nobody joins.

    An empty group has no summary: reading it raises ValueError."""
    summary, decision = kernel(rule, group)
    return decision(summary(), pair.y1, pair.y2)
