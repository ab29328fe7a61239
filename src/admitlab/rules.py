"""Admission rules: pure decisions from a group summary and a candidate pair.

Each rule looks only at the summary it is allowed to see (median for
majority, extremes for consensus, one quantile for veto and custom
quantile-driven rules).  Exact ties always resolve toward the left (smaller)
candidate so replays are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .group import GroupState


class Decision(Enum):
    ADMIT_LEFT = "left"
    ADMIT_RIGHT = "right"
    ADMIT_NONE = "none"


# Plain names for the members: in the decisions below, which run once per
# raw step, `Decision.ADMIT_LEFT` would cost a class attribute lookup
# (about 0.2 us on CPython 3.11) on every call.
ADMIT_LEFT = Decision.ADMIT_LEFT
ADMIT_RIGHT = Decision.ADMIT_RIGHT
ADMIT_NONE = Decision.ADMIT_NONE


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


def majority_decide(median: float, y1: float, y2: float) -> Decision:
    """Admit the candidate closer to the median; exact tie admits the left."""
    if abs(median - y1) <= abs(median - y2):
        return ADMIT_LEFT
    return ADMIT_RIGHT


def consensus_decide(extremes: tuple, y1: float, y2: float) -> Decision:
    """Admit only on a unanimous vote (ties vote left).

    `extremes` is the (min, max) member pair.  All members vote left
    exactly when every member is at or below the candidate midpoint, and
    right exactly when every member is strictly above it.
    """
    min_member, max_member = extremes
    mid = 0.5 * (y1 + y2)
    if mid >= max_member:
        return ADMIT_LEFT
    if mid < min_member:
        return ADMIT_RIGHT
    return ADMIT_NONE


def veto_decide(q_threshold: float, y1: float, y2: float) -> Decision:
    """Right candidate joins iff the pair midpoint is strictly below the
    (1-r)-quantile; the left candidate can never join."""
    if 0.5 * (y1 + y2) < q_threshold:
        return ADMIT_RIGHT
    return ADMIT_NONE


# Signature of every decision, custom quantile-driven rules included:
# (summary, y1, y2) -> Decision with y1 <= y2.
QuantileDecisionFn = Callable[[float, float, float], Decision]


@dataclass(frozen=True)
class RuleSpec:
    """Which admission rule drives a run, plus its smoothness constants.

    `p` is the driving quantile (1/2 for majority, 1-r for veto); consensus
    is not quantile-driven and carries p=None.  c1/c2 are the constants the
    smoothness certification tests the rule against.
    """

    kind: str  # "majority" | "consensus" | "veto" | "quantile"
    r: Optional[float] = None
    p: Optional[float] = field(default=None)
    decision_fn: Optional[QuantileDecisionFn] = None
    c1: float = 1.0
    c2: float = 2.0

    def __post_init__(self):
        kind = self.kind
        if kind == "majority":
            object.__setattr__(self, "p", 0.5)
        elif kind == "veto":
            if self.r is None or not 0.0 < self.r < 1.0:
                raise ValueError(f"veto rule needs r in (0, 1), got {self.r!r}")
            object.__setattr__(self, "p", 1.0 - self.r)
            if self.c2 == 2.0:
                object.__setattr__(self, "c2", 4.0)
        elif kind == "quantile":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"quantile rule needs p in [0, 1], got {self.p!r}")
            if self.decision_fn is None:
                raise ValueError("quantile rule needs a decision function")
        elif kind != "consensus":
            raise ValueError(f"unknown rule kind {kind!r}")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("smoothness constants must be positive")


# kind -> (reader of the rule's summary bound to a group and p, decision);
# a custom quantile rule brings its own decision.
_KERNELS = {
    "majority": (lambda group, p: group.median, majority_decide),
    "consensus": (lambda group, p: lambda: (group.min(), group.max()),
                  consensus_decide),
    "veto": (lambda group, p: partial(group.quantile, p), veto_decide),
    "quantile": (lambda group, p: partial(group.quantile, p), None),
}


def kernel(rule: RuleSpec, group: GroupState) -> tuple:
    """The rule's summary reader bound to `group`, and its decision.

    The reader takes no argument and returns the only summary the rule
    sees (median, (min, max) or the p-quantile); the summary changes only
    when a member joins.  The decision maps (summary, y1, y2), y1 <= y2,
    to a Decision.
    """
    bind, decision = _KERNELS[rule.kind]
    return bind(group, rule.p), decision or rule.decision_fn


def decide(rule: RuleSpec, group: GroupState, pair: CandidatePair) -> Decision:
    """The rule's decision on the pair, read from the group's summary.

    An empty group has no summary: reading it raises ValueError."""
    summary, decision = kernel(rule, group)
    return decision(summary(), pair.y1, pair.y2)
