"""Admission rules: pure decisions from a group summary and a candidate pair.

Each rule looks only at the summary it is allowed to see (median for
majority, extremes for consensus, the (1-r)-quantile for veto).  A decision
returns the opinion it admits, or None when nobody joins; the row of each
rule holds its decision in scalar form and in block form, over numpy arrays
of sorted pairs, where NaN marks a pair that admits nobody.  Exact ties
always resolve toward the left (smaller) candidate so replays are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import oracles
from .group import GroupState
from .records import FrozenRecord


@dataclass(frozen=True, repr=False, eq=False)
class CandidatePair(FrozenRecord):
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


def _consensus_block(extremes: tuple, a, b):
    min_member, max_member = extremes
    mid = (a + b) * 0.5
    return np.where(mid >= max_member, a, np.where(mid < min_member, b, np.nan))


# Majority's float decision is monotone in the median only for pairs at least
# this wide: for s >= y2 in [0, 1] the two distances then differ by more than
# their rounding, while a narrower pair can tie them there (y1 = 1e-20,
# y2 = 2e-20 admits y1 at s = 1e-20 and at s = 0.3, but y2 at s = 1.9e-20).
_MAJORITY_MONOTONE_WIDTH = 2.0 ** -50

# kind -> (driving quantile p from r, limit tau_p of q_p from p, smoothness
# constants (c1, c2), decision, block decision, chance that a step admits
# anyone at a summary, narrowest pair whose block decision is monotone in
# the summary)
_RULES = {
    "majority": (lambda r: 0.5, lambda p: 0.5, (1.0, 2.0), majority_decide,
                 lambda m, a, b: np.where(abs(m - a) <= abs(m - b), a, b),
                 lambda m: 1.0, _MAJORITY_MONOTONE_WIDTH),
    "consensus": (lambda r: None, lambda p: None, (1.0, 2.0),
                  consensus_decide, _consensus_block, None, 0.0),
    "veto": (lambda r: 1.0 - r, lambda p: oracles.tau(p) if p > 0.5 else None,
             (1.0, 4.0), veto_decide,
             lambda q, a, b: np.where((a + b) * 0.5 < q, b, np.nan),
             oracles.accept_any_veto, 0.0),
}


@dataclass(frozen=True, repr=False, eq=False)
class RuleSpec(FrozenRecord):
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
        if self.kind != "veto" and self.r is not None:
            raise ValueError(f"{self.kind} rule takes no r, got {self.r!r}")
        p_of, tau_of, (c1, c2) = _RULES[self.kind][:3]
        p = p_of(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "tau", tau_of(p))
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def kernel(rule: RuleSpec):
    """The rule's decision, mapping its summary (median, (min, max) or the
    p-quantile) and a pair y1 <= y2 to the admitted opinion, or None when
    nobody joins."""
    return _RULES[rule.kind][3]


def block_kernel(rule: RuleSpec) -> tuple:
    """The rule's block decision, mapping (summary, y1, y2) over arrays of
    sorted pairs to each pair's admitted opinion (NaN: nobody joins), and
    the chance that a step admits anyone at a fixed summary, which is None
    for consensus."""
    return _RULES[rule.kind][4:6]


def block_decisions(rule: RuleSpec, lo, hi, a: np.ndarray,
                    b: np.ndarray) -> tuple:
    """Each sorted pair's admitted opinion at the quantile rule's summary
    `lo` (NaN: nobody joins), and a mask of the pairs that every summary
    from `lo` to `hi` >= `lo` decides the same way: a decision monotone in
    the summary that agrees at both ends agrees in between."""
    block, width = _RULES[rule.kind][4], _RULES[rule.kind][6]
    y, y_hi = block(lo, a, b), block(hi, a, b)
    sure = (y == y_hi) | ((y != y) & (y_hi != y_hi))  # NaN != NaN
    if width:
        sure &= b - a >= width
    return y, sure


def decide(rule: RuleSpec, group: GroupState,
           pair: CandidatePair) -> Optional[float]:
    """The opinion the rule admits from the pair, read from the group's
    summary, or None when nobody joins.

    An empty group has no summary: reading it raises ValueError."""
    summary = (group.min(), group.max()) if rule.p is None \
        else group.quantile(rule.p)
    return kernel(rule)(summary, pair.y1, pair.y2)
