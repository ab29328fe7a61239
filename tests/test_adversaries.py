"""Adversarial constructions: legality certificates and exact properties."""

import hashlib
import json
import math
import random
from bisect import insort
from contextlib import closing
from fractions import Fraction

import pytest

from admitlab import adversaries
from admitlab import committee as committee_module
from admitlab.adversaries import (
    FuzzReport,
    _sample_int_replacement,
    arithmetic_drift_schedule,
    committee_fuzz,
    fuzz_epoch,
    geometric_tightness_run,
    immunity_config,
    legal_intervals,
    one_step_irreplaceable,
    removal_run,
    removal_schedule,
    replay,
    solve_geometric_delta,
)
from admitlab.committee import Committee, drift_bound_check
from admitlab.rng import Rng


# ------------------------------------------------------- arithmetic drift

def test_drift_schedule_target_zero_is_empty():
    c = Committee(list(range(1, 8)), ell=0)
    assert arithmetic_drift_schedule(c, 0).steps == []


def test_drift_schedule_n3_hand_check():
    c = Committee([0, 1, 2], ell=0)
    sched = arithmetic_drift_schedule(c, 1)
    res = replay(c, sched)
    assert res.accepted_all
    # phase 2 steps are accepted with exactly k votes = threshold 1
    assert res.vote_counts[-1] >= 1


def test_drift_schedule_moves_median_100_diameters():
    c = Committee(list(range(1, 8)), ell=0)
    target = 100 * c.diameter
    sched = arithmetic_drift_schedule(c, target)
    res = replay(c, sched)
    assert res.accepted_all
    assert res.committee.median() >= c.median() + target


def test_drift_schedule_preconditions():
    with pytest.raises(ValueError):
        arithmetic_drift_schedule(Committee(list(range(1, 8)), ell=1), 10)
    with pytest.raises(ValueError):
        arithmetic_drift_schedule(Committee([1, 1, 2], ell=0), 10)


# ------------------------------------------------------ geometric tightness

def test_solve_delta_residual_and_resummation():
    d = solve_geometric_delta(3, 1)
    left = sum((1 - d) ** i for i in range(0, 3))
    right = sum((1 - d) ** i for i in range(3, 7))
    assert abs(left - right) <= 1e-10 * left
    assert 0 < d < 1


def test_solve_delta_boundary_k_equals_ell():
    # equation reduces to 1 = sum_{i=1}^{2k} (1-d)^i, root exists in (0,1)
    for k in (1, 2, 5):
        d = solve_geometric_delta(k, k)
        assert 0 < d < 1
        assert abs(1 - sum((1 - d) ** i for i in range(1, 2 * k + 1))) < 1e-10


def test_solve_delta_monotone_in_k():
    deltas = [solve_geometric_delta(k, 1) for k in (3, 5, 8, 12)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_solve_delta_validation():
    with pytest.raises(ValueError):
        solve_geometric_delta(3, 0)
    with pytest.raises(ValueError):
        solve_geometric_delta(3, 4)


def test_tightness_run_within_bound_and_above_fixture():
    tr = geometric_tightness_run(6, 1)
    assert 0 < tr.bound_ratio <= 1
    # lower fixture: displacement >= D*k/(16*ell), exact pilot-run committed
    k, ell = 6, 1
    bound = Fraction(tr.initial.diameter * k, 2 * ell - 1)
    assert tr.displacement >= bound * Fraction(2 * ell - 1, 16 * ell)
    # the drift theorem itself, exactly
    holds, *_ = drift_bound_check(tr.initial, tr.final)
    assert holds


# sha256 of [min_margin, bound_ratio, final JSON profile, final ids],
# recorded from the per-voter margin loop this construction used before
_TIGHTNESS_PINS = {
    (6, 1): "4d8c67e4783efb22be0eb3b6c11f21b74553c08076699d4a8824a2a861c5cd14",
    (8, 2): "b0528ab4919f3abceaca1df12d512d11a4ddd872d6c1af7ee5b130ccc974f2cc",
    (12, 3): "6b935876593132e3e23d89716194b836ac7ba22c651d048b5d06d2753e35bfce",
    (4, 2): "f1758f98ace7fc137c7b7173006a663b5fa6c7edb565023f5f821de0e26f49ff",
}


def _tightness_digest(tr) -> str:
    blob = json.dumps([str(tr.min_margin), str(tr.bound_ratio),
                       tr.final.to_json_profile(), list(tr.final.ids)])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_tightness_grid_ratio_spread():
    ratios = []
    for k, ell in [(6, 1), (8, 2), (12, 3)]:
        tr = geometric_tightness_run(k, ell)
        assert _tightness_digest(tr) == _TIGHTNESS_PINS[(k, ell)]
        assert 0 < tr.bound_ratio <= 1
        assert tr.displacement >= Fraction(tr.initial.diameter * k, 16 * ell)
        ratios.append(tr.bound_ratio)
    assert max(ratios) / min(ratios) < 4


def test_tightness_run_recounted_by_brute_force(monkeypatch):
    # every vote the run takes, recounted voter by voter with the rule as
    # stated; the smallest nonzero margin over all steps must match.  The
    # replay votes on the profile times the 2^96 grid scale, so the spy
    # divides each value it sees back by that scale; the profile's values
    # are distinct, so the incumbent's value gives its position
    seen = []
    votes = committee_module._votes
    scale = 1 << 96

    def spy(vals, xi, y):
        seen.append((tuple(Fraction(v, scale) for v in vals),
                     vals.index(xi) + 1, Fraction(y, scale)))
        return votes(vals, xi, y)

    monkeypatch.setattr(committee_module, "_votes", spy)
    tr = geometric_tightness_run(4, 2)
    assert math.lcm(*[Fraction(v).denominator for v in tr.initial.values]
                    + [y.denominator for _, y in tr.schedule.steps]) == scale
    assert [(i, y) for _, i, y in seen] == tr.schedule.steps
    cur = list(seen[0][0])
    margins = []
    for values, i, y in seen:
        assert list(values) == cur
        xi = cur[i - 1]
        m = [abs(xj - xi) - abs(xj - y)
             for j, xj in enumerate(cur, start=1) if j != i]
        assert sum(v >= 0 for v in m) >= tr.final.threshold
        margins += [abs(v) for v in m if v != 0]
        del cur[i - 1]
        cur = sorted(cur + [y])
    assert min(margins) == tr.min_margin
    assert list(tr.final.values) == cur
    assert _tightness_digest(tr) == _TIGHTNESS_PINS[(4, 2)]


# ----------------------------------------------------------- immunity side

def test_immunity_config_spec_instance():
    cfg = immunity_config(2, 1, 1, 1)
    assert cfg.n == 11
    assert cfg.threshold == 9
    assert cfg.values[:5] == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    assert cfg.values[5] == 4
    assert cfg.values[6] == 7 and cfg.values[10] == 8
    # gaps 3 > D*k/(2l-1) = 2
    assert cfg.values[5] - cfg.values[4] == 3
    assert cfg.values[6] - cfg.values[5] == 3


def test_immunity_smallest_instance_threshold():
    cfg = immunity_config(1, 1, 1, 1)
    assert cfg.n == 7
    assert cfg.threshold == 6  # 3k+3 with k=1


def test_immunity_median_is_irreplaceable():
    cfg = immunity_config(2, 1, 1, 1)
    ok, max_votes, _ = one_step_irreplaceable(cfg, 6)
    assert ok
    assert max_votes == 5  # each cluster contributes at most itself


def test_single_cluster_everyone_replaceable():
    c = Committee([10, 11, 12, 13, 14], ell=0)
    for i in range(1, 6):
        ok, max_votes, _ = one_step_irreplaceable(c, i)
        assert not ok
        assert max_votes >= c.threshold


def test_irreplaceable_matches_dense_scan():
    # integer-valued committees: vote_count is piecewise constant with
    # breakpoints on the half-integer grid, so a half-step scan is complete
    rnd = random.Random(13)
    for _ in range(100):
        n = rnd.choice([3, 5, 7, 9, 11, 13, 15])
        vals = sorted(rnd.sample(range(0, 64), n))
        ell = rnd.randrange(0, (n - 1) // 2 + 1)
        c = Committee(vals, ell=ell)
        i = rnd.randrange(1, n + 1)
        _, max_votes, witness = one_step_irreplaceable(c, i)
        (legal_lo, legal_hi), = legal_intervals(c, i)
        xi = c.opinion(i)
        d = c.diameter
        lo, hi = vals[0] - d - 1, vals[-1] + d + 1
        best = -1
        y = Fraction(lo)
        while y <= hi:
            v = c.vote_count(i, y)
            assert (v >= c.threshold) == (legal_lo <= y <= legal_hi)
            if y != xi and v > best:
                best = v
            y += Fraction(1, 2)
        assert max_votes == best
        assert witness != xi and c.vote_count(i, witness) == best


def test_immunity_survives_random_replacements_small():
    cfg = immunity_config(1, 1, 1 << 20, 1 << 20)
    report = FuzzReport(0, 0, 0)
    c = fuzz_epoch(cfg, 500, Rng(888), report)
    assert report.accepted == 500
    assert report.clean
    # same identity still present and still irreplaceable
    median_id = cfg.ids[cfg.n // 2]
    assert median_id in c.ids
    pos = c.ids.index(median_id) + 1
    ok, _, _ = one_step_irreplaceable(c, pos)
    assert ok


def test_immunity_stronger_property_median_stays_median():
    # experimental check of the one-line remark: with the gap above k*d the
    # protected member does not merely survive, it remains the median
    for k in (1, 2):
        cfg = immunity_config(k, 1, 3 << 18, 3 << 18)
        assert cfg.values[2 * k + 1] - cfg.values[2 * k] > \
            k * (cfg.values[2 * k] - cfg.values[0])
        median_id = cfg.ids[2 * k + 1]
        report = FuzzReport(0, 0, 0)
        c = fuzz_epoch(cfg, 2000, Rng(900 + k), report)
        assert report.accepted == 2000
        assert c.ids[2 * k + 1] == median_id


# ---------------------------------------------------------- removal side

def test_removal_schedule_k1():
    c = Committee(list(range(1, 8)), ell=2)  # threshold 5 = 3k+2
    sched = removal_schedule(c)
    res = replay(c, sched, require_votes=5)
    assert res.accepted_all
    assert not set(range(1, 8)) & set(res.committee.ids)


def test_removal_schedule_k2():
    c = Committee([5 * i + 2 for i in range(11)], ell=3)  # threshold 8
    assert c.threshold == 3 * 2 + 2
    sched = removal_schedule(c)
    res = replay(c, sched, require_votes=8)
    assert res.accepted_all
    assert not set(range(1, 12)) & set(res.committee.ids)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_removal_run(k, monkeypatch):
    # the committee 1..4k+3 at threshold 3k+2, its schedule, and the replay
    # requiring 3k+2 votes, which removes every original id.  The schedule
    # must be the object removal_schedule built for c: its steps are pinned
    # by the schedule.json sha256 test and checked against
    # _simulated_removal_steps, so the spy spares a second k = 3 build
    calls = []

    def spy(committee):
        calls.append((committee, removal_schedule(committee)))
        return calls[-1][1]

    monkeypatch.setattr(adversaries, "removal_schedule", spy)
    c, sched, res = removal_run(k)
    assert c.values == tuple(range(1, 4 * k + 4)) and c.threshold == 3 * k + 2
    (seen, built), = calls
    assert (seen.values, seen.ids, seen.ell, seen.threshold) == \
        (c.values, c.ids, c.ell, c.threshold)
    assert sched is built
    assert res.accepted_all and len(res.vote_counts) == len(sched.steps)
    assert min(res.vote_counts) >= 3 * k + 2
    assert not set(c.ids) & set(res.committee.ids)


def test_removal_schedule_rejected_in_immunity_phase():
    c = Committee(list(range(1, 8)), ell=3)  # threshold 6 = 3k+3
    with pytest.raises(ValueError):
        removal_schedule(c)
    with pytest.raises(ValueError):
        removal_schedule(Committee([1, 1, 2, 3, 4, 5, 6], ell=2))


def _simulated_removal_steps(initial: Committee) -> list:
    """The removal construction run member by member: a sorted work list
    loses its smallest point to every candidate, and each stage reads its
    two points off that list as it stands.  The mirrored half negates and
    reverses the list, so its position 1 is the committee's position n."""
    n = initial.n
    k = (n - 3) // 4
    steps = []
    work = list(initial.values)
    for n_stages, pos, sign in ((2 * k + 2, 1, 1), (2 * k + 1, n, -1)):
        prev_delta = None
        for j in range(1, n_stages + 1):
            c, w = work[j - 1], work[j]
            parts = j + 2
            if prev_delta is not None:
                parts = max(parts, (w - c) * j * prev_delta.denominator
                            // prev_delta.numerator + 1)
            delta = Fraction(w - c, parts)
            for y in ([c - m * delta for m in range(1, j)]
                      + [c + m * delta for m in range(1, parts)]):
                del work[0]
                insort(work, y)
                steps.append((pos, sign * y))
            prev_delta = delta
        work = [-v for v in reversed(work)]
    return steps


# uneven rational gaps and negative opinions, each under 25k steps
_IRREGULAR_PROFILES = [
    [Fraction(-7, 3), Fraction(-1, 2), 0, Fraction(5, 4), 3,
     Fraction(22, 7), 9],
    [-12, Fraction(-5, 2), Fraction(-9, 4), Fraction(1, 9), Fraction(8, 3),
     40, Fraction(81, 2)],
    [-40, Fraction(-39, 2), Fraction(-17, 3), -1, Fraction(1, 7),
     Fraction(3, 2), 2, Fraction(13, 3), 11, Fraction(23, 2), 30],
    [Fraction(-3, 11), Fraction(-1, 5), Fraction(1, 10), Fraction(1, 3),
     Fraction(7, 5), Fraction(29, 6), 5, Fraction(51, 8), 9,
     Fraction(100, 7), 15],
    # neighbours over one of the coprime denominators 7, 13 and 19 with a
    # whole gap: stages 1 and 3 and the first mirrored stage count on the
    # lcm of c's denominator and their step's (21, 260, 57), not on either
    [Fraction(-13, 7), Fraction(-6, 7), Fraction(3, 13), Fraction(16, 13),
     Fraction(35, 17), Fraction(58, 19), Fraction(96, 19)],
]


@pytest.mark.parametrize("values", _IRREGULAR_PROFILES)
def test_removal_schedule_matches_simulation(values):
    k = (len(values) - 3) // 4
    initial = Committee(values, ell=k + 1)
    sched = removal_schedule(initial)
    want = _simulated_removal_steps(initial)
    assert sched.steps == want
    assert [type(y) for _, y in sched.steps] == [type(y) for _, y in want]
    res = replay(initial, sched, require_votes=3 * k + 2)
    assert res.accepted_all
    assert min(res.vote_counts) >= 3 * k + 2
    assert not set(initial.ids) & set(res.committee.ids)


# sha256 of repr((accepted, epochs, median_moves, drift, shift, monotone and
# range violations, the stream's next draw)) of committee_fuzz(n, ell, 2000,
# Rng(seed), consensus_checks), recorded before the two copies of the fuzz
# loop became fuzz_epoch
_FUZZ_PINS = {
    (11, 2, False, 11):
    "749a145e5537d42f515a759bfb46c0a6a5b5c31f469118ed7515e005c9c9404e",
    (5, 2, True, 12):
    "f1c69e5ac6ca770c62a536c1cdbc21725e6e0c7b71b8d0cf2b0cbd692982aa66",
    (11, 1, False, 13):
    "ac0a1a5c7512f3c5fec87b508a19f9746130a5cabc9e70e9b9a5bcfa1493a390",
    (11, 5, False, 14):
    "038c27264c7d09fa1b7fff808c01feace5586d4bd6904480ae1455d7ace2bf29",
    (3, 1, True, 15):
    "8d354e320a527aa85a3e4e9cc9b116b4dd7649ef65eb5d9fd877af648884d2ad",
    (7, 3, True, 16):
    "3ab6e30ec4ef132d64fb2d285be7043aa2a7052f11ad084d70b31bca46611137",
}


@pytest.mark.parametrize("n, ell, consensus, seed", sorted(_FUZZ_PINS))
def test_committee_fuzz_pinned(n, ell, consensus, seed):
    rng = Rng(seed)
    rep = committee_fuzz(n, ell, 2000, rng, consensus_checks=consensus)
    blob = repr((rep.accepted, rep.epochs, rep.median_moves,
                 rep.drift_violations, rep.shift_violations,
                 rep.monotone_violations, rep.range_violations, rng.uniform()))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        _FUZZ_PINS[(n, ell, consensus, seed)]


def test_committee_fuzz_draws_from_blocks(monkeypatch):
    # the fuzz reads its 6,547 uniforms from uniform_block buffers: only
    # sub-lane tails and the hand-back of the unread draws step one call at
    # a time, against 6,547 per-call draws
    calls = []
    step = Rng.next_u64

    def counted(self):
        calls.append(1)
        return step(self)

    monkeypatch.setattr(Rng, "next_u64", counted)
    committee_fuzz(11, 2, 2000, Rng(11))
    assert len(calls) <= 300


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 4096 + 8192 + 5])
def test_uniforms_hand_back_the_unread_draws(n):
    # closed after n reads, the buffered stream leaves the generator where
    # n uniform() calls do, also on a buffer's last draw
    rng, ref = Rng(8), Rng(8)
    with closing(adversaries._uniforms(rng)) as draws:
        got = [next(draws) for _ in range(n)]
    assert got == [ref.uniform() for _ in range(n)]
    assert rng.state() == ref.state()


@pytest.mark.parametrize("name, args", [
    ("n", (10.5, 2, 10)),
    ("ell", (11, True, 10)),
    ("accepted_target", (11, 2, 10.5)),
])
def test_committee_fuzz_rejects_non_int_arguments(name, args):
    # each argument is checked before the first draw
    rng = Rng(1)
    before = rng.state()
    with pytest.raises(ValueError, match=f"^{name}="):
        committee_fuzz(*args, rng)
    assert rng.state() == before


@pytest.mark.parametrize("name, call", [
    ("k", lambda: removal_run(True)),
    ("k", lambda: solve_geometric_delta(2.0, 1)),
    ("ell", lambda: solve_geometric_delta(2, 1.5)),
    ("k", lambda: geometric_tightness_run(6.0, 1)),
    ("ell", lambda: geometric_tightness_run(6, 1.5)),
    ("k", lambda: immunity_config(2.0, 1, 1, 1)),
    ("ell", lambda: immunity_config(2, True, 1, 1)),
])
def test_constructions_reject_non_int_k_and_ell(name, call):
    with pytest.raises(ValueError, match=f"^{name}="):
        call()


_DRIFT_START = Committee(list(range(1, 8)), ell=0)


@pytest.mark.parametrize("name, call", [
    ("d", lambda: immunity_config(1, 1, 0.1, 1)),
    ("D", lambda: immunity_config(1, 1, 1, True)),
    ("target_displacement",
     lambda: arithmetic_drift_schedule(_DRIFT_START, float("nan"))),
    ("target_displacement",
     lambda: arithmetic_drift_schedule(_DRIFT_START, 0.3)),
    ("target_displacement",
     lambda: arithmetic_drift_schedule(_DRIFT_START, True)),
])
def test_constructions_reject_inexact_widths_and_targets(name, call):
    # exact constructions take exact rationals only: a width of 0.1 built
    # clusters from 3602879701896397/2^55, and a NaN target, neither below
    # nor above 0, gave an empty schedule
    with pytest.raises(TypeError, match=f"^{name} must be an exact rational"):
        call()


def test_committee_fuzz_rejects_n_beyond_its_values():
    # distinct values come from 2^24 integers: a larger profile never fills,
    # so the fuzz refuses it before it draws anything
    rng = Rng(1)
    before = rng.state()
    with pytest.raises(ValueError, match="distinct"):
        committee_fuzz(2 ** 24 + 1, 0, 1, rng)
    assert rng.state() == before


# sha256 of repr((final values, final ids)) of criterion 12's immunity fuzz,
# recorded from the fixed-committee copy of the loop before the merge
_IMMUNITY_FUZZ_PINS = {
    1: "7e8d452d94fa97d286751f14861b58c3816a6afc36005b0e5530dba5e39c16c5",
    2: "52dcce240808fa9db6e22c82fbcbaf4abba6d3e1529d24f17539e6e0874b57fb",
    3: "eeca7a981158a92972a2ee945a79e5212bc92f8dc6c70daf36caae8d748ad236",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_immunity_fuzz_epoch_pinned(k):
    report = FuzzReport(0, 0, 0)
    c = fuzz_epoch(immunity_config(k, 1, 3 << 18, 3 << 18), 10 ** 4,
                   Rng(77 + k), report)
    assert (report.accepted, report.epochs, report.clean) == (10 ** 4, 1, True)
    blob = repr((list(c.values), list(c.ids)))
    assert hashlib.sha256(blob.encode()).hexdigest() == _IMMUNITY_FUZZ_PINS[k]


def _illegal_pick(committee, rng):
    # the median swapped for a candidate far right of everyone: 0 votes
    return (committee.n + 1) // 2, 4 * committee.values[-1] + 1


def test_fuzz_raises_typed_error_on_rejected_pick(monkeypatch):
    from admitlab import adversaries

    monkeypatch.setattr(adversaries, "_sample_int_replacement", _illegal_pick)
    with pytest.raises(ArithmeticError, match="rejected at accepted step 0"):
        adversaries.committee_fuzz(11, 2, 10, Rng(3))
    with pytest.raises(ArithmeticError, match="rejected at accepted step 0"):
        adversaries.fuzz_epoch(Committee(list(range(1, 12)), ell=2), 10,
                               Rng(3), FuzzReport(0, 0, 0))


# --------------------------------------------------------------- sampling

def test_legal_intervals_majority_everything_near():
    c = Committee([0, 100, 200], ell=0)
    ivs = legal_intervals(c, 1)
    # with threshold 1, a single far voter suffices: y in [0, 400]
    assert ivs[0][0] == 0 and ivs[-1][1] == 400


def test_sample_respects_member_pool():
    c = Committee([0, 8, 64], ell=1)
    pools = {i: legal_intervals(c, i) for i in (1, 2, 3)}
    assert pools == {1: [(0, 16)], 2: [(8, 8)], 3: [(-48, 64)]}
    rng = Rng(1)
    picks = [_sample_int_replacement(c, rng.uniform) for _ in range(50)]
    assert sum(p is not None for p in picks) >= 25
    for pick in picks:
        if pick is not None:
            i, y = pick
            assert any(lo <= y <= hi for lo, hi in pools[i])
            assert y not in c.values
