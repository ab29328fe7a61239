"""Order-statistic group: exactness against a brute-force sorted array."""

import math
import random
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from admitlab.group import GroupState


class SortedOracle:
    """Naive reference: a plain sorted list."""

    def __init__(self, values=()):
        self.vals = sorted(values)

    def insert(self, x):
        self.vals.append(x)
        self.vals.sort()

    def select(self, r):
        return self.vals[r - 1]

    def count_interval(self, lo, hi, bounds="closed"):
        return sum(lo <= v <= hi for v in self.vals)

    def quantile(self, p):
        k = len(self.vals)
        # smallest member with |{<= q}| >= p*k and |{< q}| <= p*k, exactly
        for v in sorted(set(self.vals)):
            le = sum(x <= v for x in self.vals)
            lt = sum(x < v for x in self.vals)
            if Fraction(le) >= Fraction(p) * k and Fraction(lt) <= Fraction(p) * k:
                return v
        raise AssertionError("no valid quantile found")


def test_insert_ordering():
    g = GroupState([0.2, 0.8])
    g.insert(0.5)
    assert g.members(1, g.size) == [0.2, 0.5, 0.8]


def test_insert_empty_base_case():
    g = GroupState()
    g.insert(0.0)
    assert g.size == 1
    assert g.select(1) == 0.0


def test_insert_keeps_duplicates():
    g = GroupState([0.3, 0.3])
    g.insert(0.3)
    assert g.members(1, g.size) == [0.3, 0.3, 0.3]
    assert g.size == 3


def test_insert_domain_error():
    g = GroupState()
    with pytest.raises(ValueError):
        g.insert(1.5)
    with pytest.raises(ValueError):
        g.insert(-0.1)
    with pytest.raises(ValueError):
        g.insert(math.nan)
    # the constructor checks every value, wherever the sort puts it
    for bad in ([math.nan], [0.2, math.nan, 0.9], [0.5, 1.5], [-0.1, 0.2],
                [0.3] * 1536 + [math.nextafter(1.0, 2.0)]):
        with pytest.raises(ValueError):
            GroupState(bad)
        # a batch with one bad value leaves the group as it was
        g = GroupState([0.5])
        with pytest.raises(ValueError):
            g.insert_many(bad)
        assert g.members(1, g.size) == [0.5]


def test_select_basic():
    g = GroupState([0.1, 0.4, 0.9])
    assert g.select(2) == 0.4
    assert GroupState([0.5]).select(1) == 0.5


def test_select_duplicates():
    g = GroupState([0.2, 0.2, 0.7])
    assert g.select(1) == 0.2
    assert g.select(2) == 0.2


def test_select_range_error():
    g = GroupState([0.5])
    with pytest.raises(IndexError):
        g.select(0)
    with pytest.raises(IndexError):
        g.select(2)


def test_count_interval():
    g = GroupState([0.1, 0.4, 0.9])
    assert g.count_interval(0.0, 0.5, "closed") == 2
    assert g.count_interval(0.4, 0.4, "closed") == 1
    assert g.count_lt(0.9) - g.count_lt(0.4) == 1
    with pytest.raises(ValueError, match="half_open"):
        g.count_interval(0.4, 0.9, "half_open")
    with pytest.raises(ValueError):
        g.count_interval(0.6, 0.5)
    # a NaN bound is no interval (it counted 0)
    for lo, hi in [(math.nan, 0.6), (0.2, math.nan), (math.nan, math.nan)]:
        with pytest.raises(ValueError):
            g.count_interval(lo, hi)


def test_count_interval_point_multiplicity():
    g = GroupState([0.3, 0.3, 0.3, 0.5])
    assert g.count_interval(0.3, 0.3, "closed") == 3


def test_quantile_examples():
    g = GroupState([0.1, 0.2, 0.3, 0.4])
    assert g.quantile(0.5) == 0.2
    assert g.quantile(0.25) == 0.1
    assert GroupState([0.5]).quantile(0.17) == 0.5


def test_median_examples():
    assert GroupState([0.1, 0.5, 0.9]).median() == 0.5
    assert GroupState([0.2, 0.8]).median() == 0.2  # lower median
    assert GroupState([0.3, 0.3, 0.3]).median() == 0.3


def test_empty_group_errors():
    g = GroupState()
    with pytest.raises(ValueError):
        g.quantile(0.5)
    with pytest.raises(ValueError):
        g.median()
    with pytest.raises(ValueError):
        g.min()


def test_quantile_defining_inequalities_exact():
    # both inequalities checked in exact integer arithmetic
    g = GroupState([0.1, 0.1, 0.2, 0.35, 0.5, 0.5, 0.5, 0.8, 0.94])
    k = g.size
    for p in [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 0.9, 1.0]:
        q = g.quantile(p)
        le = g.count_le(q)
        lt = g.count_lt(q)
        pk = Fraction(p) * k
        assert Fraction(le) >= pk
        assert Fraction(lt) <= pk
        # smallest valid choice: any smaller member must violate one side
        r = g.count_lt(q) + 1  # rank of q's first occurrence
        if r > 1:
            prev = g.select(r - 1)
            if prev != q:
                assert Fraction(g.count_le(prev)) < pk or \
                    Fraction(g.count_lt(prev)) > pk


def test_select_rank_round_trip():
    vals = [0.1, 0.25, 0.25, 0.6, 0.6, 0.6, 0.93]
    g = GroupState(vals)
    for v in set(vals):
        assert g.select(g.count_lt(v) + 1) == v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
               min_size=1, max_size=80),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_matches_brute_force(values, p):
    # force duplicates into play
    values = values + values[: len(values) // 2]
    g = GroupState(values)
    o = SortedOracle(values)
    k = len(values)
    for r in range(1, k + 1):
        assert g.select(r) == o.select(r)
    assert g.quantile(p) == o.quantile(p)
    lo, hi = (p, min(1.0, p + 0.3))
    assert g.count_interval(lo, hi, "closed") == o.count_interval(lo, hi, "closed")
    assert g.count_lt(hi) - g.count_lt(lo) == sum(lo <= v < hi for v in values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
               min_size=1, max_size=60))
def test_quantile_monotone_in_p(values):
    g = GroupState(values)
    grid = [i / 20 for i in range(21)]
    qs = [g.quantile(p) for p in grid]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_brute_force_large_with_duplicates():
    import random
    rnd = random.Random(4242)
    values = [round(rnd.random(), 2) for _ in range(1000)]  # many collisions
    g = GroupState(values)
    o = SortedOracle(values)
    for r in [1, 2, 17, 499, 500, 501, 998, 999, 1000]:
        assert g.select(r) == o.select(r)
    for p in [0.0, 0.01, 0.2499, 0.25, 0.5, 0.75, 0.999, 1.0]:
        assert g.quantile(p) == o.quantile(p)
    for lo, hi in [(0.0, 1.0), (0.1, 0.1), (0.33, 0.66), (0.999, 1.0)]:
        assert g.count_interval(lo, hi) == o.count_interval(lo, hi)


def test_min_max_tracking():
    g = GroupState([0.5])
    assert g.min() == g.max() == 0.5
    g.insert(0.2)
    g.insert(0.9)
    assert g.min() == 0.2
    assert g.max() == 0.9


def _orders(name, n):
    rnd = random.Random(name)
    if name == "ascending":
        return [i / n for i in range(n)]
    if name == "descending":
        return [1.0 - i / n for i in range(n)]
    if name == "all-equal":
        return [0.3] * n
    if name == "collapsed":  # 97% of the mass below 2^-40
        return [rnd.random() * 2.0 ** -40 if rnd.random() < 0.97
                else rnd.random() for _ in range(n)]
    return [round(rnd.random(), 2) for _ in range(n)]


def _assert_matches_sorted(g, ref):
    assert g.size == len(ref)
    assert g.members(1, g.size) == ref
    assert [g.select(r) for r in range(1, len(ref) + 1)] == ref
    assert g.members(1, len(ref)) == ref
    assert (g.min(), g.max()) == (ref[0], ref[-1])
    probes = [-0.5, 0.0, 1.0, 1.5]
    for v in set(ref):
        probes += [v, math.nextafter(v, -1.0), math.nextafter(v, 2.0)]
    lt, le = g.count_lt(np.array(probes)), g.count_le(np.array(probes))
    assert lt.tolist() == [bisect_left(ref, x) for x in probes]
    assert le.tolist() == [bisect_right(ref, x) for x in probes]
    for x in probes[::97]:
        assert g.count_lt(x) == bisect_left(ref, x)
        assert g.count_le(x) == bisect_right(ref, x)


@pytest.mark.parametrize("order", ["ascending", "descending", "all-equal",
                                   "collapsed", "rounded"])
def test_insert_many_matches_sorted_list(order):
    # batches of every size, unsorted, as lists and as arrays, merged into
    # a growing group: it answers as the sorted list of the same values,
    # and as a group built from them at once
    values = _orders(order, 4000)
    rnd = random.Random(f"batches-{order}")
    g, ref, i = GroupState(), [], 0
    while i < len(values):
        m = rnd.choice([0, 1, 2, 7, 64, 300, 1000])
        batch, i = values[i:i + m], i + m
        rnd.shuffle(batch)
        if m == 1:
            g.insert(batch[0])
        else:
            g.insert_many(batch if rnd.random() < 0.5 else np.array(batch))
        ref = sorted(ref + batch)
        if ref:
            _assert_matches_sorted(g, ref)
    _assert_matches_sorted(GroupState(values), ref)


def test_members_window():
    g = GroupState([0.9, 0.1, 0.5, 0.5, 0.3])
    assert g.members(2, 4) == [0.3, 0.5, 0.5]
    assert g.members(5, 5) == [0.9]
    for lo, hi in ((0, 2), (3, 6), (4, 3)):
        with pytest.raises(IndexError):
            g.members(lo, hi)


def test_summaries_are_python_floats():
    # the array holds float64, but what the group hands out is float
    g = GroupState([0.25, 0.75, 0.5])
    g.insert_many(np.array([0.125, 0.875]))
    g.insert(1)
    got = [g.select(2), g.median(), g.quantile(0.9), g.min(), g.max(),
           *g.members(1, g.size), *g.members(1, 3)]
    assert all(type(x) is float for x in got)
    assert type(g.count_lt(0.5)) is int and type(g.count_le(0.5)) is int
    assert type(g.count_interval(0.2, 0.6)) is int and type(g.size) is int
