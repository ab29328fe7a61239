"""The acceptance criteria, each defined once in the `CRITERIA` registry.

A criterion's check holds its seeds, sizes, frozen threshold, statistic and
verdict text; pytest and `admitlab verify --suite criterion-NN` run the same
objects.  Seed sweeps go through `map_fn` (`map` or a process pool's), so
workers are module-level pure functions of their arguments.  Thresholds
marked as pilot fixtures come from committed pilot runs on disjoint seeds
and are frozen; exact criteria admit no tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import adversaries, oracles, stats
from .committee import Committee
from .engine import run
from .group import GroupState
from .records import FrozenRecord, Record
from .rng import Rng
from .rules import RuleSpec


@dataclass(repr=False, eq=False)
class Verdict(Record):
    """One criterion's outcome; `checked` counts the sample it judged."""

    num: int
    name: str
    passed: bool
    detail: str
    checked: int

    def __post_init__(self):
        # no verdict passes on an empty sample
        self.passed = bool(self.passed) and self.checked > 0

    @property
    def line(self) -> str:
        return (f"criterion {self.num:02d} [{self.name}]: "
                f"{'PASS' if self.passed else 'FAIL'} ({self.detail})")


@dataclass(frozen=True, repr=False, eq=False)
class Criterion(FrozenRecord):
    num: int
    name: str
    slug: str      # identifier naming the criterion's pytest test
    check: Callable  # map_fn -> (passed, detail, checked)

    @property
    def suite(self) -> str:
        """Its `admitlab verify --suite` name."""
        return f"criterion-{self.num:02d}"

    def run(self, map_fn=map) -> Verdict:
        passed, detail, checked = self.check(map_fn)
        return Verdict(self.num, self.name, passed, detail, checked)


CRITERIA: list = []


def _criterion(num: int, name: str, slug: str):
    def register(check):
        CRITERIA.append(Criterion(num, name, slug, check))
        return check
    return register


# ------------------------------------------------------------- workers

def majority_convergence_worker(seed: int) -> tuple:
    """(median gap, second-half admitted KS) of one majority run from
    {0.25} to 1e6 accepted."""
    group = GroupState([0.25])
    traj = run(group, RuleSpec("majority"), Rng(seed),
               accepted_target=10 ** 6, log_admitted=True)
    second_half = traj.admitted[len(traj.admitted) // 2:]
    return (abs(group.median() - 0.5),
            stats.ks_distance(second_half, oracles.triangle_cdf))


def outside_extreme_intervals(initial, admitted) -> int:
    """Admissions outside [0, 2*x1] or [2*xk - 1, 1], where x1 and xk are
    the group's extremes just before each admission.

    A unanimous vote admits the left candidate only when the pair midpoint
    is at or above xk, and the right one only when it is below x1, so a
    consensus run counts 0.
    """
    lo, hi = min(initial), max(initial)
    outside = 0
    for y in admitted:
        if not (y <= 2.0 * lo or y >= 2.0 * hi - 1.0):
            outside += 1
        lo, hi = min(lo, y), max(hi, y)
    return outside


def consensus_extremes_worker(seed: int) -> tuple:
    """(t, x1, xk) at each raw-step milestone t of one consensus run from
    {0.5}, and the count of admissions outside the extreme intervals (the
    structural invariant; 0 on a correct run)."""
    initial = (0.5,)
    group = GroupState(initial)
    rng = Rng(seed)
    rule = RuleSpec("consensus")
    extremes = []
    admitted = []
    done = 0
    for t in (10 ** 3, 10 ** 4, 10 ** 5):
        admitted += run(group, rule, rng, raw_budget=t - done,
                        log_admitted=True).admitted
        done = t
        extremes.append((t, group.min(), group.max()))
    return extremes, outside_extreme_intervals(initial, admitted)


def veto_extreme_worker(seed: int) -> float:
    """Final driving quantile of one veto r=0.75 run (jump sampling) from
    {1} to 1e5 accepted."""
    group = GroupState([1.0])
    rule = RuleSpec("veto", r=0.75)
    run(group, rule, Rng(seed), accepted_target=10 ** 5, mode="jump")
    return group.quantile(rule.p)


def veto_interior_worker(seed: int) -> tuple:
    """Veto r=0.25 run from {1} to 1e6 accepted: (final gap to tau, whether
    the eta-quantile stays above 1/2 from its first crossing onward).

    Tracks the (p - eta)-quantile with eta = (p - 1/2)/4 at every
    checkpoint.
    """
    p = 0.75
    eta = (p - 0.5) / 4.0
    group = GroupState([1.0])
    traj = run(group, RuleSpec("veto", r=1.0 - p), Rng(seed),
               accepted_target=10 ** 6, extra_quantiles=(p - eta,))
    series = [c.extra[p - eta] for c in traj.checkpoints]
    first = next((i for i, q in enumerate(series) if q > 0.5), None)
    return (traj.checkpoints[-1].gap,
            first is not None and min(series[first:]) > 0.5)


def majority_density_worker(seed: int) -> bool:
    """Density monitor for one majority run from {0.25} to 1e5 members, at
    the paper's partition scale.

    Checks every aligned window of widths delta(k) and 2*delta(k) inside
    [0.1, 0.9] against the loose majority bounds |I|*k/120 and 7*|I|*k.
    """
    group = GroupState([0.25])
    run(group, RuleSpec("majority"), Rng(seed), accepted_target=10 ** 5 - 1)
    k = group.size
    delta = stats.default_delta(k)
    return stats.check_density_bounds(
        group, widths=[delta, 2 * delta],
        lower_per_len=k / 120.0, upper_per_len=7.0 * k,
        region=(0.1, 0.9), align=delta / 2.0).passed


def committee_fuzz_worker(args) -> tuple:
    """(exact violations, accepted, median moves) of one committee fuzz cell
    (n, ell, accepted target, seed, consensus checks)."""
    n, ell, steps, seed, consensus_checks = args
    rep = adversaries.committee_fuzz(n, ell, steps, Rng(seed),
                                     consensus_checks=consensus_checks)
    return rep.violations, rep.accepted, rep.median_moves


def smoothness_worker(args) -> tuple:
    """(passed, interval rows) of one smoothness certificate
    (rule, summary grid, delta grid, trials, seed)."""
    rule, grid, deltas, trials, seed = args
    rep = stats.smoothness_report(rule, grid, deltas, trials, Rng(seed))
    return rep.passed, len(rep.intervals)


# the 100-seed majority family behind criteria 03 and 04, once per process
_majority_family: list = []


def _majority_sample(map_fn) -> list:
    if not _majority_family:
        _majority_family.extend(map_fn(majority_convergence_worker,
                                       range(1, 101)))
    return _majority_family


# ------------------------------------------------------------ criteria

@_criterion(1, "oracle-simulation agreement", "oracle_simulation_agreement")
def _oracle_simulation_agreement(map_fn):
    t0 = time.perf_counter()
    rng = Rng(1001)
    points = (0.2, 0.35, 0.5, 0.65, 0.8)
    trials = 10 ** 6
    worst_z = 0.0
    for q in points:
        est, _ = stats.estimate_interval_accept_prob(
            RuleSpec("majority"), q, (0.0, q), trials, rng)
        f = oracles.f_majority(q)
        worst_z = max(worst_z, abs(est - f) / math.sqrt(f * (1.0 - f) / trials))
    wall = time.perf_counter() - t0
    return (worst_z < 3.0 and wall < 10.0,
            f"worst z={worst_z:.2f}, wall={wall:.1f}s", len(points) * trials)


@_criterion(2, "veto fixed point", "fixed_point_identity")
def _fixed_point_identity(map_fn):
    ps = [0.5 + 0.5 * i / 100 for i in range(1, 101)]
    worst = max(abs(oracles.f_veto(oracles.tau(p)) - p) for p in ps)
    return worst <= 1e-12, f"worst residual={worst:.2e}", len(ps)


@_criterion(3, "majority median convergence", "majority_median_convergence")
def _majority_median_convergence(map_fn):
    gaps = sorted(gap for gap, _ in _majority_sample(map_fn))
    good = sum(gap <= 0.1 for gap in gaps)
    return (good >= 95,
            f"{good}/100 seeds with gap<=0.1; median gap={gaps[50]:.3f}",
            len(gaps))


@_criterion(4, "triangle limit KS", "triangle_limit")
def _triangle_limit(map_fn):
    tol = 0.16    # pilot fixture: p95 of pilot KS ~ 0.131; 1.9x the median gap
    kss = sorted(ks for _, ks in _majority_sample(map_fn))
    good = sum(ks <= tol for ks in kss)
    return (good >= 95,
            f"{good}/100 seeds with KS<={tol}; median KS={kss[50]:.3f}",
            len(kss))


@_criterion(5, "consensus extreme decay", "consensus_extreme_decay")
def _consensus_extreme_decay(map_fn):
    res = list(map_fn(consensus_extremes_worker, range(1, 101)))
    good = sum(all(x1 <= 10.0 / math.sqrt(t) and xk >= 1.0 - 10.0 / math.sqrt(t)
                   for t, x1, xk in extremes) for extremes, _ in res)
    # the structural interval invariant is the 100% evidence: every admission
    # of every seed is checked against the extreme intervals before it
    outside = sum(n for _, n in res)
    return (good >= 95 and outside == 0,
            f"{good}/100 seeds inside 10/sqrt(t) at all milestones; "
            f"{outside} admissions outside the extreme intervals", len(res))


@_criterion(6, "veto phase transition, extreme side", "veto_extreme_side")
def _veto_extreme_side(map_fn):
    seeds = 20    # derived sample size, >= 19 must pass
    qs = sorted(map_fn(veto_extreme_worker, range(1, seeds + 1)))
    good = sum(q <= 0.05 for q in qs)
    return (good >= seeds - 1,
            f"{good}/{seeds} seeds with q<=0.05; max q={qs[-1]:.4f}", len(qs))


@_criterion(7, "veto phase transition, interior side", "veto_interior_side")
def _veto_interior_side(map_fn):
    seeds = 20    # derived sample size, >= 19 must pass
    res = list(map_fn(veto_interior_worker, range(1, seeds + 1)))
    tau_ok = abs(oracles.tau(0.75) - 0.8449489743) < 1e-9
    good_gap = sum(gap <= 0.02 for gap, _ in res)
    good_stay = sum(stayed for _, stayed in res)
    worst = max(gap for gap, _ in res)
    return (tau_ok and good_gap >= seeds - 1 and good_stay >= seeds - 1,
            f"{good_gap}/{seeds} gaps<=0.02 (worst {worst:.4f}); "
            f"{good_stay}/{seeds} eta-quantile stays above 1/2", len(res))


@_criterion(8, "smoothness certification", "smoothness_certification")
def _smoothness_certification(map_fn):
    jobs = [(RuleSpec("majority"), [0.3, 0.5, 0.7], [0.01, 0.05], 10 ** 6,
             2001),
            (RuleSpec("veto", r=0.25), [0.65, 0.75, 0.85], [0.01, 0.05],
             10 ** 6, 2002)]
    (ok_m, rows_m), (ok_v, rows_v) = map_fn(smoothness_worker, jobs)
    return (ok_m and ok_v,
            f"majority(c1=1,c2=2) {'ok' if ok_m else 'FAIL'}, "
            f"veto(c1=1,c2=4) {'ok' if ok_v else 'FAIL'}", rows_m + rows_v)


@_criterion(9, "committee drift bound", "committee_drift_bound")
def _committee_drift_bound(map_fn):
    t0 = time.perf_counter()
    jobs = [(11, ell, 10 ** 5, 3000 + ell, False) for ell in (1, 2, 3, 4, 5)]
    res = list(map_fn(committee_fuzz_worker, jobs))
    wall = time.perf_counter() - t0
    bad = sum(v for v, _, _ in res)
    moves = sum(m for _, _, m in res)
    return (bad == 0,
            f"5x1e5 accepted replacements, {moves} median moves, "
            f"{bad} exact violations, wall={wall:.0f}s",
            sum(a for _, a, _ in res))


@_criterion(10, "unbounded majority drift", "unbounded_majority_drift")
def _unbounded_majority_drift(map_fn):
    c = Committee(list(range(1, 8)), ell=0)
    target = 100 * c.diameter
    sched = adversaries.arithmetic_drift_schedule(c, target)
    res = adversaries.replay(c, sched)
    moved = res.committee.median() - c.median()
    return (res.accepted_all and moved >= target,
            f"{len(sched.steps)} legal steps, median moved {moved} >= {target}",
            len(res.vote_counts))


@_criterion(11, "drift bound tightness", "tightness")
def _tightness(map_fn):
    # pilot fixture: (2l-1)/(16l) of the drift bound
    lower = {1: Fraction(1, 16), 2: Fraction(3, 32), 3: Fraction(5, 48)}
    ratios = {}
    ok = True
    steps = 0
    for k, ell in ((6, 1), (8, 2), (12, 3)):
        tr = adversaries.geometric_tightness_run(k, ell)
        ratios[(k, ell)] = tr.bound_ratio
        ok = ok and (lower[ell] <= tr.bound_ratio <= 1)
        steps += len(tr.schedule.steps)
    spread = max(ratios.values()) / min(ratios.values())
    return (ok and spread < 4,
            "ratios " + ", ".join(f"{kl}: {float(r):.3f}"
                                  for kl, r in ratios.items())
            + f", spread {float(spread):.2f}", steps)


@_criterion(12, "immunity phase transition", "immunity_phase_transition")
def _immunity_phase_transition(map_fn):
    details = []
    ok = True
    steps = 0
    for k in (1, 2, 3):
        # immunity phase: threshold 3k+3, two-cluster configuration
        width = 3 << 18  # divisible by 2k for k <= 3, keeps values integral
        cfg = adversaries.immunity_config(k, 1, width, width)
        irr0, _, _ = adversaries.one_step_irreplaceable(cfg, 2 * k + 2)
        report = adversaries.FuzzReport(0, 0, 0)
        cur = adversaries.fuzz_epoch(cfg, 10 ** 4, Rng(77 + k), report)
        median_id = cfg.ids[cfg.n // 2]
        still_there = median_id in cur.ids
        irr1 = False
        if still_there:
            pos = cur.ids.index(median_id) + 1
            irr1, _, _ = adversaries.one_step_irreplaceable(cur, pos)
        immunity_ok = (cfg.threshold == 3 * k + 3 and irr0 and still_there
                       and irr1 and report.accepted == 10 ** 4
                       and report.clean)

        # removal phase: threshold 3k+2 removes every original id
        c, _, res = adversaries.removal_run(k)
        removal_ok = (c.threshold == 3 * k + 2 and res.accepted_all
                      and not (set(c.ids) & set(res.committee.ids)))

        ok = ok and immunity_ok and removal_ok
        steps += report.accepted + len(res.vote_counts)
        details.append(f"k={k}: immunity {'ok' if immunity_ok else 'FAIL'}, "
                       f"removal {'ok' if removal_ok else 'FAIL'}")
    return ok, "; ".join(details), steps


@_criterion(13, "fixed-size consensus invariants", "fixed_size_consensus")
def _fixed_size_consensus(map_fn):
    jobs = [(n, (n - 1) // 2, 10 ** 5, 4000 + n, True) for n in (3, 5, 7)]
    res = list(map_fn(committee_fuzz_worker, jobs))
    bad = sum(v for v, _, _ in res)
    return (bad == 0,
            f"3x1e5 accepted consensus replacements, {bad} monotone/range "
            "violations (exact)", sum(a for _, a, _ in res))


@_criterion(14, "quantile progress", "quantile_progress")
def _quantile_progress(map_fn):
    need = 0.90   # pilot fixture
    rule, ctx = RuleSpec("majority"), oracles.majority_context()
    right, left = [stats.quantile_progress_test(rule, ctx, 0.1, 0.002, 5000,
                                                200, Rng(seed), side=side)
                   for side, seed in (("right", 7001), ("left", 7002))]
    return (right.pass_fraction >= need and left.pass_fraction >= need,
            f"right {right.pass_fraction:.2f}, left {left.pass_fraction:.2f} "
            f">= {need} of 200 trials, "
            f"required gain {right.required_members:.0f} members",
            right.trials + left.trials)


@_criterion(15, "density monitors", "density_monitors")
def _density_monitors(map_fn):
    seeds = 20    # derived sample size, >= 19 must pass
    res = list(map_fn(majority_density_worker, range(1, seeds + 1)))
    good = sum(res)
    return (good >= seeds - 1,
            f"{good}/{seeds} runs with every window inside [|I|k/120, 7|I|k]",
            len(res))
