"""Order-statistic multiset for the growing group's opinions.

The members are one sorted float64 numpy array.  `select` is an index,
counts are `searchsorted` (over an array of points too, in one call), min
and max read the ends: all O(1) or O(log k).  The engine grows the group a
block at a time: `insert_many` merges a batch with one `np.insert` at the
`searchsorted` positions, O(k + m log m) for m new members, and `members`
hands the engine a rank window as a sorted Python list to walk.  A single
`insert` costs O(k); it serves tests and the microbenchmark.  Every value
returned is a Python float, never `np.float64`.  Exact: the array holds the
full floats.  Groups never shrink: no deletion.
"""

from __future__ import annotations

import numpy as np


def _unit_array(values) -> np.ndarray:
    """`values` as a float64 array, each checked to lie in [0, 1]."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    bad = vals[~((vals >= 0.0) & (vals <= 1.0))]  # NaN fails both
    if bad.size:
        raise ValueError(f"opinion {bad.item(0)!r} outside [0, 1]")
    return vals


class GroupState:
    """Multiset of opinions in [0, 1] with rank selection and counts."""

    __slots__ = ("_a",)

    def __init__(self, values=()):
        self._a = np.sort(_unit_array(values))

    @property
    def size(self) -> int:
        return self._a.size

    def insert(self, x: float) -> None:
        """Add one opinion, in O(k); duplicates are kept."""
        self.insert_many([x])

    def insert_many(self, values) -> None:
        """Add a batch of opinions (a sequence or an array) in one merge;
        duplicates are kept."""
        if len(values):
            vals = np.sort(_unit_array(values))
            self._a = np.insert(self._a, self._a.searchsorted(vals), vals)

    def select(self, rank: int) -> float:
        """rank-th smallest member, 1-based."""
        if not 1 <= rank <= self._a.size:
            raise IndexError(f"rank {rank} out of range 1..{self._a.size}")
        return self._a.item(rank - 1)

    def members(self, lo: int, hi: int) -> list[float]:
        """Members of ranks lo..hi (1-based, inclusive), in sorted order."""
        if not 1 <= lo <= hi <= self._a.size:
            raise IndexError(f"ranks {lo}..{hi} out of range 1..{self._a.size}")
        return self._a[lo - 1:hi].tolist()

    def count_lt(self, x):
        """Members strictly below x; an array of counts for an array of x."""
        c = self._a.searchsorted(x, "left")
        return c if isinstance(c, np.ndarray) else int(c)

    def count_le(self, x):
        """Members at or below x; an array of counts for an array of x."""
        c = self._a.searchsorted(x, "right")
        return c if isinstance(c, np.ndarray) else int(c)

    def count_interval(self, lo: float, hi: float, bounds: str = "closed") -> int:
        """Members in [lo, hi] (closed) or [lo, hi) (half_open)."""
        if not lo <= hi:  # NaN fails too
            raise ValueError(f"not an interval: lo={lo}, hi={hi}")
        if bounds == "closed":
            return self.count_le(hi) - self.count_lt(lo)
        if bounds == "half_open":
            return self.count_lt(hi) - self.count_lt(lo)
        raise ValueError(f"unknown bounds convention {bounds!r}")

    def quantile(self, p: float) -> float:
        """Smallest member q with at least p*k members at or below it and at
        most p*k strictly below it: the member of rank `quantile_rank`."""
        if self._a.size == 0:
            raise ValueError("quantile of empty group")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile parameter {p!r} outside [0, 1]")
        return self.select(quantile_rank(p, self._a.size))

    def median(self) -> float:
        """quantile(1/2); the lower median for even sizes."""
        if self._a.size == 0:
            raise ValueError("median of empty group")
        return self._a.item((self._a.size - 1) >> 1)

    def min(self) -> float:
        if self._a.size == 0:
            raise ValueError("min of empty group")
        return self._a.item(0)

    def max(self) -> float:
        if self._a.size == 0:
            raise ValueError("max of empty group")
        return self._a.item(-1)


def quantile_rank(p: float, k: int) -> int:
    """max(1, ceil(p * k)) in integer math: exact, as p is a dyadic rational."""
    num, den = p.as_integer_ratio()
    r = -((-num * k) // den)
    return r if r > 1 else 1
