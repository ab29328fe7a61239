"""Exact committee engine: votes, replacement, potential, drift, monotone."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab import committee as committee_module
from admitlab.committee import (
    Committee,
    drift_bound_check,
    shift_lemma_check,
)
from admitlab.adversaries import (
    ReplacementSchedule,
    _sample_int_replacement,
    arithmetic_drift_schedule,
    committee_fuzz,
    geometric_tightness_run,
    legal_intervals,
    one_step_irreplaceable,
    removal_schedule,
    replay,
)
from admitlab.cli import RunRecord, _parse_profile, emit_outputs
from admitlab.rng import Rng


def _brute_votes(c: Committee, i: int, y) -> int:
    """The rule as stated: members j != i with |x_j - y| <= |x_j - x_i|."""
    xi = c.values[i - 1]
    return sum(1 for j, xj in enumerate(c.values, start=1)
               if j != i and abs(xj - y) <= abs(xj - xi))


def test_rejects_floats():
    with pytest.raises(TypeError):
        Committee([0.1, 0.5], ell=0)
    c = Committee([0, 1, 2], ell=0)
    with pytest.raises(TypeError):
        c.vote_count(1, 0.5)
    # bools are ints to Python, but no opinion
    with pytest.raises(TypeError, match="opinion"):
        Committee([True, False, 2], 0)
    with pytest.raises(TypeError, match="candidate"):
        c.vote_count(1, True)


def test_threshold_formula():
    assert Committee([0, 1, 2], ell=0).threshold == 1
    assert Committee([0, 1, 2], ell=1).threshold == 2
    assert Committee(list(range(11)), ell=3).threshold == 8
    assert Committee(list(range(4)), ell=1).threshold == 3  # even n: ceil(3/2)+1
    with pytest.raises(ValueError):
        Committee([0, 1, 2], ell=2)
    for ell in (1.5, 1.0, True, "1"):  # 1.5 made the threshold 3.5
        with pytest.raises(ValueError, match="^ell="):
            Committee([1, 2, 3, 4, 5], ell=ell)


def test_vote_count_examples():
    c = Committee([0, 1, 2], ell=0)
    assert c.vote_count(1, 3) == 1
    assert c.vote_count(1, 0) == 2  # y == x_i: everyone ties
    c2 = Committee([0, 10, 20], ell=0)
    assert c2.vote_count(2, Fraction(21, 2)) == 1
    with pytest.raises(IndexError):
        c.vote_count(4, 1)
    # a bool is an int to Python, but no member index
    with pytest.raises(TypeError, match="index"):
        c.vote_count(True, 1)
    with pytest.raises(TypeError, match="index"):
        c.opinion(True)


def test_replace_attempt_examples():
    c = Committee([0, 1, 2], ell=0)
    ok, c2 = c.replace_attempt(1, 3)
    assert ok and c2.values == (1, 2, 3)
    assert c.values == (0, 1, 2)  # snapshot untouched

    c_strict = Committee([0, 1, 2], ell=1)
    ok, same = c_strict.replace_attempt(1, 3)
    assert not ok and same.values == (0, 1, 2)

    ok, c3 = c.replace_attempt(2, 1)  # re-election
    assert ok
    assert c3.values == (0, 1, 2)
    assert c3.ids != c.ids


def test_ids_track_replacements():
    c = Committee([0, 5, 10], ell=0)
    assert c.ids == (1, 2, 3)
    ok, c2 = c.replace_attempt(1, 6)
    assert ok
    assert c2.values == (5, 6, 10)
    assert c2.ids == (2, 4, 3)


def test_potential():
    assert Committee([0, 1, 2], ell=0).potential() == 2
    assert Committee([3, 3, 3], ell=0).potential() == 0
    assert Committee([0, 0, 0, 0, 4], ell=0).potential() == 4
    with pytest.raises(ValueError):
        Committee([0, 1, 2, 3], ell=0).potential()


def test_consensus_monotone_values():
    c = Committee([0, 1, 2], ell=1)
    assert c.consensus_monotone() == 3
    assert c.consensus_monotone_mirror() == -1
    with pytest.raises(ValueError):
        Committee([0, 1], ell=0).consensus_monotone()


def test_shift_lemma_median_unchanged_trivial():
    c = Committee([0, 2, 4, 6, 8], ell=1)
    ok, c2 = c.replace_attempt(1, 1)
    assert ok
    holds, dec, req = shift_lemma_check(c, c2)
    assert holds and req == 0


def test_shift_lemma_hand_fixture_new_median():
    # n=5, ell=1: y becomes the new median (case 1 of the proof)
    c = Committee([0, 4, 5, 6, 10], ell=1)  # median 5, potential 0+1+0+1+5*...
    # replace x_1 = 0 by y = 6 -> profile (4,5,6,6,10), median 6
    ok, c2 = c.replace_attempt(1, 6)
    assert ok
    assert c2.median() == 6
    holds, dec, req = shift_lemma_check(c, c2)
    # S = 5+1+0+1+5 = 12, S' = 2+1+0+0+4 = 7 -> decrease 5
    assert dec == 5
    # 2*sum_{j=k-l+2}^{k} d(x_j,x'_j) + d(x_{k+1},x'_{k+1}), k=2: j range empty
    assert req == 1
    assert holds
    # n=5, ell=2, the median moves left: replace x_5 = 5 by y = 1 ->
    # (0,1,1,2,3), median 2 -> 1; the mirror sum reads x_4: 3 -> 2
    c = Committee([0, 1, 2, 3, 5], ell=2)
    ok, c2 = c.replace_attempt(5, 1)
    assert ok and c2.median() == 1
    # S = 2+1+0+1+3 = 7, S' = 1+0+0+1+2 = 4; required 1 + 2*1, tight
    assert shift_lemma_check(c, c2) == (True, 3, 3)


def test_shift_lemma_rejects_non_adjacent_states():
    a = Committee([0, 1, 2, 3, 4], ell=1)
    b = Committee([0, 1, 2, 3, 40], ell=1)
    with pytest.raises(ValueError):
        shift_lemma_check(a, b)


def test_drift_bound_initial_state():
    c = Committee([0, 1, 2, 3, 4], ell=1)
    holds, rs, ls = drift_bound_check(c, c)
    assert holds
    # n=5, k=2, ell=1: bound is x'_3 <= x_5 + 2D = 4 + 8 = 12
    assert rs == 12 - 2
    with pytest.raises(ValueError):
        drift_bound_check(Committee([0, 1, 2], ell=0), Committee([0, 1, 2], ell=0))
    # two rules are two bounds: as in shift_lemma_check, no mixed pair
    with pytest.raises(ValueError, match="disagree on ell"):
        drift_bound_check(Committee(range(1, 12), ell=1),
                          Committee(range(1, 12), ell=4))


def test_vote_count_brute_force_agreement():
    rnd = random.Random(77)
    for _ in range(10 ** 4 // 10):
        n = rnd.choice([3, 5, 7, 9, 11])
        vals = sorted(rnd.sample(range(200), n))
        ell = rnd.randrange(0, (n - 1) // 2 + 1)
        c = Committee(vals, ell=ell)
        for _ in range(10):
            i = rnd.randrange(1, n + 1)
            y = rnd.randrange(-50, 260)
            brute = _brute_votes(c, i, y)
            assert c.vote_count(i, y) == brute
            accepted, _ = c.replace_attempt(i, y)
            assert accepted == (brute >= c.threshold)


_rationals = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12))


@st.composite
def _vote_cases(draw):
    # members drawn from a small pool, so duplicate values are common
    pool = draw(st.lists(_rationals, min_size=1, max_size=8))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=15))
    n = len(values)
    c = Committee(values, ell=draw(st.integers(0, (n - 1) // 2)))
    i = draw(st.integers(1, n))
    xi = c.values[i - 1]
    # the vote count jumps at the reflections 2*x_j - x_i, where ties sit
    reflections = [2 * xj - xi for xj in c.values]
    beyond = draw(st.fractions(min_value=Fraction(1, 7), max_value=100))
    y = draw(st.one_of(
        st.just(xi),
        st.sampled_from(reflections),
        st.sampled_from(c.values),
        st.just(c.values[0] - beyond),
        st.just(c.values[-1] + beyond),
        _rationals))
    return c, i, y


@settings(max_examples=600, deadline=None)
@given(_vote_cases())
def test_vote_count_matches_brute_force_on_exact_profiles(case):
    c, i, y = case
    brute = _brute_votes(c, i, y)
    assert c.vote_count(i, y) == brute
    accepted, after = c.replace_attempt(i, y)
    assert accepted == (brute >= c.threshold)
    if c.n >= 2:
        # the closed forms read from the same midpoint rule
        (lo, hi), = legal_intervals(c, i)
        assert accepted == (lo <= y <= hi)
        _, max_votes, witness = one_step_irreplaceable(c, i)
        if y != c.values[i - 1]:
            assert max_votes >= brute
        assert witness != c.values[i - 1]
        assert _brute_votes(c, i, witness) == max_votes
    if accepted:
        rest = list(c.values)
        del rest[i - 1]
        assert after.values == tuple(sorted(rest + [y]))
        assert after.ids.count(c._next_id) == 1
    else:
        assert after is c


def test_vote_count_ties_and_duplicates_by_hand():
    c = Committee([0, 2, 2, 6], ell=0)
    assert c.vote_count(1, 0) == 3           # re-election: everyone ties
    assert c.vote_count(1, 4) == 3           # both 2s tie at the midpoint
    assert c.vote_count(1, Fraction(41, 10)) == 1
    assert c.vote_count(4, -2) == 3          # y at the 2s' reflection
    assert c.vote_count(4, Fraction(-21, 10)) == 1
    assert c.vote_count(2, 2) == 3           # the twin ties at distance 0
    assert c.vote_count(2, 6) == 1           # ... and keeps the incumbent


def _brute_replay(committee: Committee, steps, need: int):
    """Counts, the committee after the last accepted step, and the index of
    the first step short of `need` votes (None when every step passes)."""
    counts = []
    for idx, (i, y) in enumerate(steps):
        votes = _brute_votes(committee, i, y)
        counts.append(votes)
        if votes < need:
            return counts, committee, idx
        vals = list(committee.values)
        ids = list(committee.ids)
        del vals[i - 1]
        del ids[i - 1]
        pos = sum(1 for v in vals if v <= y)
        vals.insert(pos, y)
        ids.insert(pos, committee._next_id)
        committee = Committee._of(tuple(vals), tuple(ids), committee,
                                  committee._next_id + 1)
    return counts, committee, None


@pytest.mark.parametrize("k", [1, 2])
def test_removal_replay_matches_brute_force_step_loop(k):
    n = 4 * k + 3
    initial = Committee(list(range(1, n + 1)), ell=k + 1)
    sched = removal_schedule(initial)
    res = replay(initial, sched, require_votes=3 * k + 2)
    assert res.accepted_all
    counts, final, failed_at = _brute_replay(initial, sched.steps, 3 * k + 2)
    assert failed_at is None
    assert res.vote_counts == counts
    assert res.committee.values == final.values
    assert res.committee.ids == final.ids


def _mixed_denominator_case():
    # denominators 3, 2, 5 and 7; the fourth step gets 2 of the 3 votes
    # it needs, and the steps after it are never voted on
    c = Committee([Fraction(1, 3), 1, Fraction(5, 2), 4, 7], ell=1)
    steps = [(1, Fraction(2, 3)), (5, Fraction(13, 2)), (4, Fraction(19, 5)),
             (3, Fraction(9, 7)), (1, Fraction(1, 11)), (2, 5)]
    return c, ReplacementSchedule(steps, "mixed"), c.threshold, 3


def _replay_cases():
    for k in (1, 2):
        c = Committee(list(range(1, 4 * k + 4)), ell=k + 1)
        yield f"removal k={k}", c, removal_schedule(c), 3 * k + 2, None
    drift = Committee(list(range(1, 8)), ell=0)
    yield ("drift", drift, arithmetic_drift_schedule(drift, 10),
           drift.threshold, None)
    tr = geometric_tightness_run(6, 1)  # candidates on the 2^-96 grid
    yield ("tightness k=6 ell=1", tr.initial, tr.schedule,
           tr.initial.threshold, None)
    yield ("mixed, failing", *_mixed_denominator_case())


def test_integer_replay_matches_rational_brute_force_loop():
    # replay votes and swaps in ints on the profile times the lcm of every
    # denominator; the brute loop votes member by member in the rationals
    for name, start, sched, need, want_failed in _replay_cases():
        res = replay(start, sched, require_votes=need)
        counts, final, failed_at = _brute_replay(start, sched.steps, need)
        assert failed_at == want_failed, name
        assert (res.accepted_all, res.failed_at) == \
            (failed_at is None, failed_at), name
        assert res.vote_counts == counts, name
        assert res.committee.values == final.values, name
        assert res.committee.ids == final.ids, name
        assert res.committee._next_id == final._next_id, name
        assert res.committee.to_json_profile() == final.to_json_profile(), \
            name


def test_replay_checks_every_step_before_voting():
    c = Committee([0, 1, 2], ell=0)
    # a bool is an int to Python, but no member index
    for bad in (True, 1.0, "1", Fraction(1)):
        with pytest.raises(TypeError, match="index"):
            replay(c, ReplacementSchedule([(bad, 2)], ""))
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            replay(c, ReplacementSchedule([(bad, 2)], ""))
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="candidate"):
            replay(c, ReplacementSchedule([(1, bad)], ""))
    # the first step fails its vote, and the malformed one after it still
    # raises: no vote is taken before every step has been read
    start = _mixed_denominator_case()[0]
    fails = (3, Fraction(9, 7))
    assert replay(start, ReplacementSchedule([fails], "")).failed_at == 0
    for bad in ((0, 1), (True, 1), (1, 0.5)):
        with pytest.raises((TypeError, IndexError)):
            replay(start, ReplacementSchedule([fails, bad], ""))


@pytest.mark.parametrize("need", [True, -3, 2.5])
def test_replay_rejects_non_int_require_votes(need, monkeypatch):
    # a bool would count as one vote, a negative count would pass silently
    # and a fraction would fail the step; each is refused before any vote
    def no_vote(*args):
        raise AssertionError("voted before require_votes was checked")

    monkeypatch.setattr(committee_module, "_votes", no_vote)
    c = Committee([0, 1, 2], ell=0)
    with pytest.raises(ValueError, match="require_votes"):
        replay(c, ReplacementSchedule([(1, 1)], ""), require_votes=need)


# sha256 of the schedule.json that `admitlab adversary` writes for the
# removal construction, recorded before the vote count used bisection
_REMOVAL_SCHEDULE_SHA256 = {
    1: "15c00aef9fa8ef82a98b4e80ee2962715ae95a91b218789ba77123c3f7f2360d",
    2: "e6a4091d0a8d784d5d58689b935574ee3c81297bc10ef258c426a68f32a0ff9c",
    3: "a25d04a4bba3973f8526b99117ac05b960251932c54e5c9e30e669fa6cc924cc",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_removal_schedule_json_is_pinned(k, tmp_path):
    n = 4 * k + 3
    sched = removal_schedule(Committee(list(range(1, n + 1)), ell=k + 1))
    record = RunRecord({}, 1, "", "adversary", 0.0, {}, {}, schedule=sched)
    emit_outputs(record, str(tmp_path))
    blob = (tmp_path / "schedule.json").read_bytes()
    assert json.loads(blob)["provenance"] == "no-immunity-removal"
    assert hashlib.sha256(blob).hexdigest() == _REMOVAL_SCHEDULE_SHA256[k]


def test_drift_bound_check_fraction_profiles():
    c = Committee([Fraction(1, 3), 1, Fraction(5, 2), 4, 7], ell=2)
    holds, rs, ls = drift_bound_check(c, c)
    # k=2, ell=2: x'_2 <= 7 + Dk/3 and x'_4 >= 1/3 - Dk/3, Dk/3 = 40/9
    assert holds
    assert rs == 7 + Fraction(40, 9) - 1
    assert ls == 4 - Fraction(1, 3) + Fraction(40, 9)
    far = Committee([Fraction(1, 3), 12, 13, 14, 15], ell=2)
    holds, rs, ls = drift_bound_check(c, far)
    assert not holds
    assert rs == 7 + Fraction(40, 9) - 12
    assert ls == 14 - Fraction(1, 3) + Fraction(40, 9)


def test_json_profile_round_trip():
    c = Committee([Fraction(1, 3), Fraction(1, 2), 2], ell=1)
    prof = c.to_json_profile()
    assert prof == ["1/3", "1/2", "2/1"]
    back = _parse_profile({"profile": prof, "ell": 1})
    assert back.values == c.values


def test_scaled_keeps_members_and_votes():
    c = Committee([Fraction(1, 3), Fraction(1, 2), 2], ell=1)
    c = c.replace_attempt(3, Fraction(5, 6))[1]
    s = c.scaled(6)
    assert s.values == (2, 3, 5) and all(type(v) is int for v in s.values)
    assert (s.ids, s.n, s.ell, s.threshold) == (c.ids, c.n, c.ell, c.threshold)
    assert s.replace_attempt(1, 4)[1].ids == (2, 5, 4)
    assert [s.vote_count(1, y) for y in (1, 4, 9)] == \
        [c.vote_count(1, Fraction(y, 6)) for y in (1, 4, 9)]
    for bad in (4, 0, -6, True):
        with pytest.raises(ValueError):
            c.scaled(bad)


def test_legal_intervals_consensus_shape():
    # consensus: replacing the smallest allows y in [x_1, 2*x_2 - x_1]
    c = Committee([0, 4, 10], ell=1)
    ivs = legal_intervals(c, 1)
    assert ivs == [(0, 8)]
    # interior member: only re-election
    ivs2 = legal_intervals(c, 2)
    assert ivs2 == [(4, 4)]


def test_legal_intervals_reject_one_member_and_bad_index():
    # threshold 0 accepts every candidate: no closed interval holds that
    with pytest.raises(ValueError):
        legal_intervals(Committee([5], ell=0), 1)
    for i in (0, 4):
        with pytest.raises(IndexError):
            legal_intervals(Committee([0, 4, 10], ell=1), i)


def test_sampled_replacements_always_accepted():
    # None is fine (no integer legal candidate left for the picked member
    # of a contracting committee); every returned pick must be accepted
    rng = Rng(321)
    c = Committee(sorted(random.Random(5).sample(range(1 << 40), 11)), ell=2)
    accepted = 0
    for _ in range(300):
        pick = _sample_int_replacement(c, rng.uniform)
        if pick is None:
            continue
        i, y = pick
        ok, c = c.replace_attempt(i, y)
        assert ok
        accepted += 1
    assert accepted > 150


def test_consensus_fuzz_monotone_and_range_small():
    # smoke-size version of the exact consensus invariants: every accepted
    # step is checked against the admitted range and both monotone quantities
    rep = committee_fuzz(5, 2, 2000, Rng(654), consensus_checks=True)
    assert rep.accepted == 2000
    assert rep.clean
