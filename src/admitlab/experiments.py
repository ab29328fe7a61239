"""Canned per-seed experiment workers behind the verification suites.

Each worker is a plain function of a seed returning picklable scalars, so
seed sweeps parallelize across processes.  The measurements back the
statistical acceptance checks; thresholds live with the checks themselves.
"""

from __future__ import annotations

import math

from . import oracles, stats
from .engine import run
from .group import GroupState
from .rng import Rng
from .rules import RuleSpec


def majority_convergence_worker(seed: int, accepted: int = 10 ** 6,
                                start: float = 0.25) -> dict:
    """Median gap and second-half admitted KS for one majority run."""
    group = GroupState([start])
    traj = run(group, RuleSpec("majority"), Rng(seed),
               accepted_target=accepted, tau=0.5, log_admitted=True)
    second_half = traj.admitted[len(traj.admitted) // 2:]
    return {
        "median_gap": abs(group.median() - 0.5),
        "ks_second_half": stats.ks_distance(second_half, oracles.triangle_cdf),
        "final_k": group.size,
    }


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


def consensus_extremes_worker(seed: int,
                              milestones=(10 ** 3, 10 ** 4, 10 ** 5),
                              initial=(0.5,)) -> dict:
    """Extreme positions at raw-step milestones for one consensus run, and
    the count of admissions outside the extreme intervals (the structural
    invariant; 0 on a correct run)."""
    group = GroupState(initial)
    rng = Rng(seed)
    rule = RuleSpec("consensus")
    out = {"milestones": list(milestones), "x1": [], "xk": []}
    admitted = []
    done = 0
    for t in milestones:
        admitted += run(group, rule, rng, raw_budget=t - done,
                        log_admitted=True).admitted
        done = t
        out["x1"].append(group.min())
        out["xk"].append(group.max())
    out["outside_extreme_intervals"] = outside_extreme_intervals(initial,
                                                                 admitted)
    return out


def veto_extreme_worker(seed: int, accepted: int = 10 ** 5,
                        r: float = 0.75) -> dict:
    """Veto r > 1/2 run (jump sampling): where did the quantile end up."""
    group = GroupState([1.0])
    rule = RuleSpec("veto", r=r)
    traj = run(group, rule, Rng(seed), accepted_target=accepted, mode="jump")
    return {
        "final_quantile": group.quantile(rule.p),
        "raw_steps": traj.raw_steps,
    }


def veto_interior_worker(seed: int, accepted: int = 10 ** 6,
                         r: float = 0.25) -> dict:
    """Veto r < 1/2 run: final gap to tau and the eta-quantile crossing.

    Tracks the (p - eta)-quantile with eta = (p - 1/2)/4 at every
    checkpoint; reports whether it stays above 1/2 from its first crossing
    onward.
    """
    p = 1.0 - r
    eta = (p - 0.5) / 4.0
    t = oracles.tau(p)
    group = GroupState([1.0])
    traj = run(group, RuleSpec("veto", r=r), Rng(seed),
               accepted_target=accepted, tau=t, extra_quantiles=(p - eta,))
    series = [c.extra[p - eta] for c in traj.checkpoints]
    crossed = None
    stayed = True
    for i, q in enumerate(series):
        if crossed is None and q > 0.5:
            crossed = i
        elif crossed is not None and q <= 0.5:
            stayed = False
    return {
        "final_gap": traj.checkpoints[-1].gap,
        "crossed": crossed is not None,
        "stayed_above_half": crossed is not None and stayed,
        "raw_steps": traj.raw_steps,
    }


def majority_density_worker(seed: int, k_target: int = 10 ** 5,
                            start: float = 0.25) -> dict:
    """Density monitor for one majority run at the paper's partition scale.

    Checks every aligned window of widths delta(k) and 2*delta(k) inside
    [0.1, 0.9] against the loose majority bounds |I|*k/120 and 7*|I|*k.
    """
    group = GroupState([start])
    run(group, RuleSpec("majority"), Rng(seed), accepted_target=k_target - 1)
    k = group.size
    delta = stats.default_delta(k)
    verdict = stats.check_density_bounds(
        group, widths=[delta, 2 * delta],
        lower_per_len=k / 120.0, upper_per_len=7.0 * k,
        region=(0.1, 0.9), align=delta / 2.0)
    return {
        "passed": verdict.passed,
        "checked": verdict.checked,
        "violations": len(verdict.violations),
        "delta": delta,
    }


def committee_fuzz_worker(args) -> dict:
    """Criterion-scale committee fuzz for one (n, ell, steps, seed) cell."""
    from .adversaries import committee_fuzz

    n, ell, steps, seed, consensus_checks = args
    rep = committee_fuzz(n, ell, steps, Rng(seed),
                         consensus_checks=consensus_checks)
    return {
        "n": n, "ell": ell,
        "accepted": rep.accepted,
        "median_moves": rep.median_moves,
        "clean": rep.clean,
        "drift_violations": rep.drift_violations,
        "shift_violations": rep.shift_violations,
        "monotone_violations": rep.monotone_violations,
        "range_violations": rep.range_violations,
    }


def smoothness_worker(args) -> dict:
    """One full smoothness certificate: (rule_kind, grid, deltas, trials, seed)."""
    kind, grid, deltas, trials, seed = args
    rule = RuleSpec("majority") if kind == "majority" else RuleSpec("veto", r=0.25)
    rep = stats.smoothness_report(rule, list(grid), list(deltas), trials,
                                  Rng(seed))
    worst_lo, worst_hi = math.inf, -math.inf
    for row in rep.intervals:
        worst_lo = min(worst_lo, row.estimate - (row.lower_bound - 3 * row.std_error))
        worst_hi = max(worst_hi, row.estimate - (row.upper_bound + 3 * row.std_error))
    return {
        "passed": rep.passed,
        "f_increasing": rep.f_increasing,
        "worst_lower_slack": worst_lo,
        "worst_upper_slack": worst_hi,
    }
