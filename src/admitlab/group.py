"""Order-statistic multiset for the growing group's opinions.

Values live in [0, 1] and are hashed into fixed-width buckets, each bucket a
sorted list; a Fenwick tree over bucket counts answers prefix-count queries.
Insert, rank, select and quantile are all O(log B + bucket occupancy), which
keeps million-member runs in the seconds range while staying exact (no
discretization: buckets store the full float values).

Growing groups never shrink, so no deletion is provided.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

_NBUCKETS = 4096


class GroupState:
    """Multiset of opinions in [0, 1] with logarithmic rank/select/quantile."""

    __slots__ = ("_tree", "_buckets", "_size", "_min", "_max")

    def __init__(self, values=()):
        self._tree = [0] * (_NBUCKETS + 1)
        self._buckets: list[list[float]] = [[] for _ in range(_NBUCKETS)]
        self._size = 0
        self._min = None
        self._max = None
        for v in values:
            self.insert(v)

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    def insert(self, x: float) -> None:
        """Add one opinion; duplicates are kept."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"opinion {x!r} outside [0, 1]")
        nb = _NBUCKETS
        b = int(x * nb)
        if b >= nb:
            b = nb - 1
        insort(self._buckets[b], x)
        self._size += 1
        tree = self._tree
        i = b + 1
        while i <= nb:
            tree[i] += 1
            i += i & (-i)
        if self._min is None or x < self._min:
            self._min = x
        if self._max is None or x > self._max:
            self._max = x

    def select(self, rank: int) -> float:
        """rank-th smallest member, 1-based."""
        if not 1 <= rank <= self._size:
            raise IndexError(f"rank {rank} out of range 1..{self._size}")
        tree = self._tree
        nb = _NBUCKETS
        idx = 0
        mask = 1 << (nb.bit_length() - 1)
        rem = rank
        while mask:
            nxt = idx + mask
            if nxt <= nb and tree[nxt] < rem:
                rem -= tree[nxt]
                idx = nxt
            mask >>= 1
        return self._buckets[idx][rem - 1]

    def _prefix(self, b: int) -> int:
        """Count of members in buckets 0..b-1."""
        tree = self._tree
        total = 0
        while b > 0:
            total += tree[b]
            b &= b - 1
        return total

    def count_lt(self, x: float) -> int:
        """Members strictly below x."""
        nb = _NBUCKETS
        b = int(x * nb)
        if b >= nb:
            b = nb - 1
        if b < 0:
            return 0
        return self._prefix(b) + bisect_left(self._buckets[b], x)

    def count_le(self, x: float) -> int:
        """Members at or below x."""
        nb = _NBUCKETS
        b = int(x * nb)
        if b >= nb:
            b = nb - 1
        if b < 0:
            return 0
        return self._prefix(b) + bisect_right(self._buckets[b], x)

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
        return self._min

    def max(self) -> float:
        if self._size == 0:
            raise ValueError("max of empty group")
        return self._max

    def values(self) -> list[float]:
        """All members in sorted order (O(k); for checkpoints and tests)."""
        out = []
        for b in self._buckets:
            out.extend(b)
        return out
