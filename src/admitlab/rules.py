"""Admission rules: pure decisions from a group summary and a candidate pair.

Each rule looks only at the summary it is allowed to see (median for
majority, extremes for consensus, the (1-r)-quantile for veto) and reads
from it two thresholds on the pair sum: (m, m) for majority, (inf, q) for
veto, (x_k, x_1) for consensus.  One exact decision serves every rule,
`admit` in scalar form and `admit_block` over numpy arrays of sorted pairs,
where NaN marks a pair that admits nobody.  Exact ties always resolve
toward the left (smaller) candidate so replays are deterministic.
"""

from __future__ import annotations

import math
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


def admit(left: float, right: float, y1: float, y2: float) -> Optional[float]:
    """The candidate the thresholds (left, right), left >= right, admit from
    the sorted pair y1 <= y2 in [0, 1], on the exact sum: y1 iff y1 + y2 >=
    2*left, y2 iff y1 + y2 < 2*right, else None.  Rounding is monotone and
    2*s is a float, so t = fl(y1 + y2) off 2*s is on the exact sum's side;
    at t == 2*s the side is the sign of the exact error y1 - (t - y2)."""
    t = y1 + y2
    two_s = 2.0 * left
    if t > two_s or t == two_s and y1 >= t - y2:
        return y1
    two_s = 2.0 * right
    if t < two_s or t == two_s and y1 < t - y2:
        return y2
    return None


def _sum_below(a: np.ndarray, b: np.ndarray, *twice: float) -> list:
    """Masks of the sorted pairs whose exact sum a + b is below each of
    `twice`: t = fl(a + b) decides, and `admit`'s error step where t ties."""
    t = a + b
    masks = []
    for two_s in twice:
        below = t < two_s
        tie = (t == two_s).nonzero()[0]
        if tie.size:
            below[tie] = a[tie] < t[tie] - b[tie]
        masks.append(below)
    return masks


def admit_block(left: float, right: float, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """`admit` over arrays of sorted pairs in [0, 1]: each pair's admitted
    opinion, NaN where nobody joins.  A left threshold no pair reaches
    (left > 1, as veto's inf) is skipped."""
    if left == right:  # every pair admits one candidate
        below, = _sum_below(a, b, 2.0 * left)
        return np.where(below, b, a)
    if left > 1.0:
        below_right, = _sum_below(a, b, 2.0 * right)
        return np.where(below_right, b, np.nan)
    below_right, below_left = _sum_below(a, b, 2.0 * right, 2.0 * left)
    return np.where(below_left, np.where(below_right, b, np.nan), a)


# kind -> (driving quantile p from r, limit tau_p of q_p from p, smoothness
# constants (c1, c2), thresholds (left, right) from the summary, chance that
# a step admits anyone at a summary)
_RULES = {
    "majority": (lambda r: 0.5, lambda p: 0.5, (1.0, 2.0),
                 lambda m: (m, m), lambda m: 1.0),
    "consensus": (lambda r: None, lambda p: None, (1.0, 2.0),
                  lambda extremes: extremes[::-1], None),
    "veto": (lambda r: 1.0 - r, lambda p: oracles.tau(p) if p > 0.5 else None,
             (1.0, 4.0), lambda q: (math.inf, q), oracles.accept_any_veto),
}
KINDS = tuple(_RULES)


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


def kernel(rule: RuleSpec) -> tuple:
    """The rule's map from its summary (median, (min, max) or the
    p-quantile) to the thresholds (left, right) that `admit` and
    `admit_block` decide by, and the chance that a step admits anyone at a
    summary, which is None for consensus."""
    return _RULES[rule.kind][3:5]


def block_decisions(rule: RuleSpec, lo, hi, a: np.ndarray,
                    b: np.ndarray) -> tuple:
    """Each sorted pair's admitted opinion at the rule's summary `lo` (NaN:
    nobody joins), and a mask of the pairs that every summary from `lo` to
    `hi` decides the same way: an exact decision is monotone in the
    summary, so one that agrees at both ends agrees in between."""
    bounds = kernel(rule)[0]
    y, y_hi = admit_block(*bounds(lo), a, b), admit_block(*bounds(hi), a, b)
    return y, (y == y_hi) | ((y != y) & (y_hi != y_hi))  # NaN != NaN


def decide(rule: RuleSpec, group: GroupState,
           pair: CandidatePair) -> Optional[float]:
    """The opinion the rule admits from the pair, read from the group's
    summary, or None when nobody joins.

    An empty group has no summary: reading it raises ValueError."""
    summary = (group.min(), group.max()) if rule.p is None \
        else group.quantile(rule.p)
    return admit(*kernel(rule)[0](summary), pair.y1, pair.y2)
