"""Order-statistic multiset for the growing group's opinions.

Members live in sorted runs that follow the members, not the value range: a
run holding more than 2 * _LOAD members is split in half, so mass collapsed
into a tiny interval spreads over as many runs as mass spread over [0, 1].
`_tops[b]` is the largest member of run b, and no later run holds a smaller
one; the last top is `inf`, so `bisect_left(_tops, x)` always names x's run,
in the empty group (one empty run) too.  A finger, run `_b` with `_start`
members before it, stays where the last `select` stopped: the driving rank
ceil(p * k) moves by 0 or 1 per admission, so `select` walks from it one run
at a time.  `_sums`, the prefix counts of the run lengths, is dropped by an
insert and rebuilt by the next count: counts come in bursts (checkpoints,
density monitors, the progress test).  With R ~ k / _LOAD runs: insert
O(log R + _LOAD), select O(1 + runs walked), counts O(log R + log _LOAD) plus
one O(R) rebuild after inserts, min and max O(1), the constructor one sort.
Exact: runs hold the full floats.  Groups never shrink: no deletion.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, chain
from math import inf

_LOAD = 512  # runs are cut to this length; one is split past twice it


class GroupState:
    """Multiset of opinions in [0, 1] with rank counts and a finger select."""

    __slots__ = ("_runs", "_tops", "_size", "_b", "_start", "_sums")

    def __init__(self, values=()):
        vals = sorted(values)
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"opinion {v!r} outside [0, 1]")
        runs = [vals[i:i + _LOAD] for i in range(0, len(vals), _LOAD)]
        self._runs = runs or [[]]
        self._tops = [run[-1] for run in runs[:-1]] + [inf]
        self._size = len(vals)
        self._b = self._start = 0
        self._sums = None

    @property
    def size(self) -> int:
        return self._size

    def insert(self, x: float) -> None:
        """Add one opinion; duplicates are kept."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"opinion {x!r} outside [0, 1]")
        b = bisect_left(self._tops, x)
        run = self._runs[b]
        insort(run, x)  # x <= _tops[b], so the top is unchanged
        self._size += 1
        self._sums = None
        if b < self._b:  # the new member lies before the finger's run
            self._start += 1
        if len(run) > 2 * _LOAD:
            self._runs.insert(b + 1, run[_LOAD:])
            del run[_LOAD:]
            self._tops.insert(b, run[-1])
            if b < self._b:  # an earlier run split; the finger's own keeps it
                self._b += 1

    def select(self, rank: int) -> float:
        """rank-th smallest member, 1-based."""
        if not 1 <= rank <= self._size:
            raise IndexError(f"rank {rank} out of range 1..{self._size}")
        runs, b, start = self._runs, self._b, self._start
        while rank <= start:
            b -= 1
            start -= len(runs[b])
        run = runs[b]
        while rank > start + len(run):
            start += len(run)
            b += 1
            run = runs[b]
        self._b, self._start = b, start
        return run[rank - start - 1]

    def _prefix(self, b: int) -> int:
        """Count of members in runs 0..b-1."""
        if self._sums is None:
            self._sums = list(accumulate(map(len, self._runs), initial=0))
        return self._sums[b]

    def count_lt(self, x: float) -> int:
        """Members strictly below x."""
        b = bisect_left(self._tops, x)
        return self._prefix(b) + bisect_left(self._runs[b], x)

    def count_le(self, x: float) -> int:
        """Members at or below x."""
        b = bisect_right(self._tops, x)
        return self._prefix(b) + bisect_right(self._runs[b], x)

    def count_interval(self, lo: float, hi: float, bounds: str = "closed") -> int:
        """Members in [lo, hi] (closed) or [lo, hi) (half_open)."""
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if bounds == "closed":
            return self.count_le(hi) - self.count_lt(lo)
        if bounds == "half_open":
            return self.count_lt(hi) - self.count_lt(lo)
        raise ValueError(f"unknown bounds convention {bounds!r}")

    def quantile_rank(self, p: float) -> int:
        """Rank of the p-quantile: max(1, ceil(p * size)), computed exactly.

        The member at this rank is the smallest q with at least p*k members
        at or below it and at most p*k strictly below it.
        """
        if self._size == 0:
            raise ValueError("quantile of empty group")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile parameter {p!r} outside [0, 1]")
        num, den = p.as_integer_ratio()  # exact: p is a dyadic rational
        r = -((-num * self._size) // den)  # ceil(p * size) in integer math
        return r if r > 1 else 1

    def quantile(self, p: float) -> float:
        """Smallest member satisfying the two quantile inequalities."""
        return self.select(self.quantile_rank(p))

    def median(self) -> float:
        """quantile(1/2); the lower median for even sizes."""
        if self._size == 0:
            raise ValueError("median of empty group")
        return self.select((self._size + 1) >> 1)

    def min(self) -> float:
        if self._size == 0:
            raise ValueError("min of empty group")
        return self._runs[0][0]

    def max(self) -> float:
        if self._size == 0:
            raise ValueError("max of empty group")
        return self._runs[-1][-1]

    def values(self) -> list[float]:
        """All members in sorted order (O(k); for checkpoints and tests)."""
        return list(chain.from_iterable(self._runs))
