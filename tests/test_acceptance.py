"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical thresholds marked as pilot fixtures below were computed once by
committed pilot runs (seeds disjoint from the ones used here) and are fixed;
exact criteria admit no tolerance at all.  The heavy seed sweeps fan out over
a small process pool; every worker is a pure function of its seed.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from admitlab import adversaries, experiments, oracles, stats
from admitlab.committee import Committee
from admitlab.rng import Rng
from admitlab.rules import RuleSpec

POOL_WORKERS = 2

# pilot fixtures (committed; see the module docstring)
KS_SECOND_HALF_TOL = 0.16     # p95 of pilot KS ~ 0.131; 1.9x the median gap
VETO_EXTREME_SEEDS = 20       # derived sample size, >= 19 must pass
VETO_INTERIOR_SEEDS = 20      # derived sample size, >= 19 must pass
DENSITY_SEEDS = 20            # derived sample size, >= 19 must pass
PROGRESS_PASS_FRACTION = 0.90
TIGHTNESS_LOWER_RATIO = {1: Fraction(1, 16), 2: Fraction(3, 32),
                         3: Fraction(5, 48)}  # (2l-1)/(16l) of the drift bound


def _verdict(num: int, name: str, passed: bool, detail: str):
    line = f"criterion {num:02d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as p:
        yield p


@pytest.fixture(scope="module")
def majority_family(pool):
    """100 majority runs from {0.25} to 1e6 accepted; shared by 3 and 4."""
    return list(pool.map(experiments.majority_convergence_worker,
                         range(1, 101)))


def test_criterion_01_oracle_simulation_agreement():
    t0 = time.perf_counter()
    rng = Rng(1001)
    worst_z = 0.0
    trials = 10 ** 6
    for q in (0.2, 0.35, 0.5, 0.65, 0.8):
        est, _ = stats.estimate_interval_accept_prob(
            RuleSpec("majority"), q, (0.0, q), trials, rng)
        f = oracles.f_majority(q)
        z = abs(est - f) / math.sqrt(f * (1.0 - f) / trials)
        worst_z = max(worst_z, z)
    wall = time.perf_counter() - t0
    _verdict(1, "oracle-simulation agreement",
             worst_z < 3.0 and wall < 10.0,
             f"worst z={worst_z:.2f}, wall={wall:.1f}s")


def test_criterion_02_fixed_point_identity():
    worst = 0.0
    for i in range(1, 101):
        p = 0.5 + 0.5 * i / 100
        worst = max(worst, abs(oracles.f_veto(oracles.tau(p)) - p))
    _verdict(2, "veto fixed point", worst <= 1e-12,
             f"worst residual={worst:.2e}")


def test_criterion_03_majority_median_convergence(majority_family):
    good = sum(m["median_gap"] <= 0.1 for m in majority_family)
    gaps = sorted(m["median_gap"] for m in majority_family)
    _verdict(3, "majority median convergence", good >= 95,
             f"{good}/100 seeds with gap<=0.1; median gap={gaps[50]:.3f}")


def test_criterion_04_triangle_limit(majority_family):
    good = sum(m["ks_second_half"] <= KS_SECOND_HALF_TOL
               for m in majority_family)
    kss = sorted(m["ks_second_half"] for m in majority_family)
    _verdict(4, "triangle limit KS", good >= 95,
             f"{good}/100 seeds with KS<={KS_SECOND_HALF_TOL}; "
             f"median KS={kss[50]:.3f}")


def test_criterion_05_consensus_extreme_decay(pool):
    res = list(pool.map(experiments.consensus_extremes_worker, range(1, 101)))
    good = 0
    for m in res:
        ok = all(x1 <= 10.0 / math.sqrt(t) and xk >= 1.0 - 10.0 / math.sqrt(t)
                 for t, x1, xk in zip(m["milestones"], m["x1"], m["xk"]))
        good += ok
    # the structural interval invariant is the 100% evidence: every admission
    # of every seed is checked against the extreme intervals before it
    outside = sum(m["outside_extreme_intervals"] for m in res)
    _verdict(5, "consensus extreme decay", good >= 95 and outside == 0,
             f"{good}/100 seeds inside 10/sqrt(t) at all milestones; "
             f"{outside} admissions outside the extreme intervals")


def test_criterion_06_veto_extreme_side(pool):
    res = list(pool.map(experiments.veto_extreme_worker,
                        range(1, VETO_EXTREME_SEEDS + 1)))
    good = sum(m["final_quantile"] <= 0.05 for m in res)
    qs = sorted(m["final_quantile"] for m in res)
    _verdict(6, "veto phase transition, extreme side",
             good >= VETO_EXTREME_SEEDS - 1,
             f"{good}/{VETO_EXTREME_SEEDS} seeds with q<=0.05; "
             f"max q={qs[-1]:.4f}")


def test_criterion_07_veto_interior_side(pool):
    res = list(pool.map(experiments.veto_interior_worker,
                        range(1, VETO_INTERIOR_SEEDS + 1)))
    tau = oracles.tau(0.75)
    assert abs(tau - 0.8449489743) < 1e-9
    good_gap = sum(m["final_gap"] <= 0.02 for m in res)
    good_stay = sum(m["stayed_above_half"] for m in res)
    worst = max(m["final_gap"] for m in res)
    _verdict(7, "veto phase transition, interior side",
             good_gap >= VETO_INTERIOR_SEEDS - 1
             and good_stay >= VETO_INTERIOR_SEEDS - 1,
             f"{good_gap}/{VETO_INTERIOR_SEEDS} gaps<=0.02 (worst {worst:.4f}); "
             f"{good_stay}/{VETO_INTERIOR_SEEDS} eta-quantile stays above 1/2")


def test_criterion_08_smoothness_certification(pool):
    jobs = [("majority", (0.3, 0.5, 0.7), (0.01, 0.05), 10 ** 6, 2001),
            ("veto", (0.65, 0.75, 0.85), (0.01, 0.05), 10 ** 6, 2002)]
    rep_m, rep_v = pool.map(experiments.smoothness_worker, jobs)
    _verdict(8, "smoothness certification",
             rep_m["passed"] and rep_v["passed"],
             f"majority(c1=1,c2=2) {'ok' if rep_m['passed'] else 'FAIL'}, "
             f"veto(c1=1,c2=4) {'ok' if rep_v['passed'] else 'FAIL'}")


def test_criterion_09_committee_drift_bound(pool):
    t0 = time.perf_counter()
    jobs = [(11, ell, 10 ** 5, 3000 + ell, False) for ell in (1, 2, 3, 4, 5)]
    res = list(pool.map(experiments.committee_fuzz_worker, jobs))
    wall = time.perf_counter() - t0
    clean = all(m["clean"] for m in res)
    moves = sum(m["median_moves"] for m in res)
    _verdict(9, "committee drift bound", clean,
             f"5x1e5 accepted replacements, {moves} median moves, "
             f"0 exact violations, wall={wall:.0f}s")


def test_criterion_10_unbounded_majority_drift():
    c = Committee(list(range(1, 8)), ell=0)
    target = 100 * c.diameter
    sched = adversaries.arithmetic_drift_schedule(c, target)
    res = adversaries.replay(c, sched)
    moved = res.committee.median() - c.median()
    _verdict(10, "unbounded majority drift",
             res.accepted_all and moved >= target,
             f"{len(sched.steps)} legal steps, median moved {moved} >= {target}")


def test_criterion_11_tightness():
    ratios = {}
    ok = True
    for k, ell in ((6, 1), (8, 2), (12, 3)):
        tr = adversaries.geometric_tightness_run(k, ell)
        ratios[(k, ell)] = tr.bound_ratio
        ok = ok and (TIGHTNESS_LOWER_RATIO[ell] <= tr.bound_ratio <= 1)
    spread = max(ratios.values()) / min(ratios.values())
    _verdict(11, "drift bound tightness", ok and spread < 4,
             "ratios " + ", ".join(f"{kl}: {float(r):.3f}"
                                   for kl, r in ratios.items())
             + f", spread {float(spread):.2f}")


def test_criterion_12_immunity_phase_transition():
    details = []
    ok = True
    for k in (1, 2, 3):
        # immunity phase: threshold 3k+3, two-cluster configuration
        width = 3 << 18  # divisible by 2k for k <= 3, keeps values integral
        cfg = adversaries.immunity_config(k, 1, width, width)
        assert cfg.threshold == 3 * k + 3
        irr0, _, _ = adversaries.one_step_irreplaceable(cfg, 2 * k + 2)
        cur, accepted = adversaries.fuzz_on_committee(cfg, 10 ** 4, Rng(77 + k))
        median_id = cfg.ids[cfg.n // 2]
        still_there = median_id in cur.ids
        irr1 = False
        if still_there:
            pos = cur.ids.index(median_id) + 1
            irr1, _, _ = adversaries.one_step_irreplaceable(cur, pos)
        immunity_ok = irr0 and still_there and irr1 and accepted == 10 ** 4

        # removal phase: threshold 3k+2 removes every original id
        n = 4 * k + 3
        c = Committee(list(range(1, n + 1)), ell=k + 1)
        assert c.threshold == 3 * k + 2
        sched = adversaries.removal_schedule(c)
        res = adversaries.replay(c, sched, require_votes=3 * k + 2)
        removal_ok = res.accepted_all and not (set(c.ids) & set(res.committee.ids))

        ok = ok and immunity_ok and removal_ok
        details.append(f"k={k}: immunity {'ok' if immunity_ok else 'FAIL'}, "
                       f"removal {'ok' if removal_ok else 'FAIL'}")
    _verdict(12, "immunity phase transition", ok, "; ".join(details))


def test_criterion_13_fixed_size_consensus(pool):
    jobs = [(n, (n - 1) // 2, 10 ** 5, 4000 + n, True) for n in (3, 5, 7)]
    res = list(pool.map(experiments.committee_fuzz_worker, jobs))
    clean = all(m["clean"] for m in res)
    _verdict(13, "fixed-size consensus invariants", clean,
             "3x1e5 accepted consensus replacements, 0 monotone/range "
             "violations (exact)")


def test_criterion_14_quantile_progress():
    rule = RuleSpec("majority")
    ctx = oracles.majority_context()
    right = stats.quantile_progress_test(rule, ctx, 0.1, 0.002, 5000, 200,
                                         Rng(7001), side="right")
    left = stats.quantile_progress_test(rule, ctx, 0.1, 0.002, 5000, 200,
                                        Rng(7002), side="left")
    ok = (right.pass_fraction >= PROGRESS_PASS_FRACTION
          and left.pass_fraction >= PROGRESS_PASS_FRACTION)
    _verdict(14, "quantile progress", ok,
             f"right {right.pass_fraction:.2f}, left {left.pass_fraction:.2f} "
             f">= {PROGRESS_PASS_FRACTION} of 200 trials, "
             f"required gain {right.required_members:.0f} members")


def test_criterion_15_density_monitors(pool):
    res = list(pool.map(experiments.majority_density_worker,
                        range(1, DENSITY_SEEDS + 1)))
    good = sum(m["passed"] for m in res)
    _verdict(15, "density monitors", good >= DENSITY_SEEDS - 1,
             f"{good}/{DENSITY_SEEDS} runs with every window inside "
             f"[|I|k/120, 7|I|k]")
