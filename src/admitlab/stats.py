"""Statistical validators tying simulations to the closed-form oracles.

Everything here is a measurement: KS distances against limit laws,
member-density monitors over the group, frozen-summary Monte Carlo of
single-step acceptance probabilities, empirical smoothness certification
and the quantile-progress experiment.
Pass thresholds used by the acceptance suite are fixtures committed with
the repo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import run, sorted_pairs
from .group import GroupState
from .oracles import OracleContext, _check_unit, gap_functions
from .records import Record
from .rng import Rng
from .rules import RuleSpec, block_kernel

_PASS_PAIRS = 1 << 15  # most candidate pairs a frozen-summary pass draws
# most candidate pairs a frozen-summary call may expect to need (about 13 s
# of draws at 25 ns each); a veto summary of 1e-10 would need 5e20
_MAX_PAIRS = 1 << 28


# --------------------------------------------------------------------- KS

def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """Two-sided sup distance between the sample ECDF and a reference CDF.

    Evaluated at the sample points, taking both one-sided gaps into
    account (the sup of |F_n - F| is attained at a jump).  `cdf` takes the
    sorted samples as one numpy array and returns their CDF values.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    ref = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


# ------------------------------------------------------- density profiling

def default_delta(k: int) -> float:
    """The paper-scale partition width k^(-1/10)."""
    return k ** -0.1


@dataclass(repr=False, eq=False)
class DensityVerdict(Record):
    passed: bool
    violations: list  # (lo, hi, count, lower_bound, upper_bound)
    checked: int


def check_density_bounds(group: GroupState, widths: Sequence[float],
                         lower_per_len: float, upper_per_len: float,
                         region: tuple = (0.0, 1.0),
                         align: Optional[float] = None) -> DensityVerdict:
    """Check every aligned window against count bounds linear in |I|.

    Windows of each width slide through `region` on an `align` grid
    (half the smallest width by default).  A window [a, b] passes when
    lower_per_len * |I| <= count <= upper_per_len * |I|, counts taken
    half-open except at the right edge of [0, 1], all from one
    `searchsorted` over the window edges.  No verdict passes without a
    window checked.
    """
    if not all(w > 0 for w in widths):
        raise ValueError(f"widths must be positive, got {list(widths)}")
    if align is not None and not align > 0:
        raise ValueError(f"align must be positive, got {align}")
    lo_r, hi_r = region
    if align is None and widths:
        align = min(widths) / 2.0
    windows = []  # (a, b, w)
    for w in widths:
        a = lo_r
        while a + w <= hi_r + 1e-12:
            windows.append((a, min(a + w, hi_r), w))
            a += align
    m = len(windows)
    # every window edge counted in one searchsorted: members below a, b
    below = group.count_lt(np.array([x for a, b, _ in windows
                                     for x in (a, b)])).tolist()
    violations = []
    for (a, b, w), below_a, below_b in zip(windows, below[0::2],
                                           below[1::2]):
        # every member lies in [0, 1]: the right edge closes on all of them
        hi_edge, upto = (1.0, group.size) if b >= 1.0 else (b, below_b)
        if a > hi_edge:
            raise ValueError(f"empty interval: lo={a} > hi={hi_edge}")
        cnt = upto - below_a
        lower = lower_per_len * w
        upper = upper_per_len * w
        if not (lower <= cnt <= upper):
            violations.append((a, b, cnt, lower, upper))
    return DensityVerdict(m > 0 and not violations, violations, m)


# --------------------------------------- frozen-summary single-step probes

def _frozen_step_values(rule: RuleSpec, summary: float, trials: int,
                        rng: Rng) -> np.ndarray:
    """Admitted opinions from `trials` single steps with the rule summary
    (median or driving quantile) held fixed, conditioned on acceptance: a
    pass draws the pairs expected to give the admissions still wanted.  A
    summary at which no step admits anyone, or so few that the admissions
    wanted need more than _MAX_PAIRS pairs on average, raises ValueError,
    as does a summary outside [0, 1]."""
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int of at least 1, got {trials!r}")
    _check_unit(summary, "summary")
    decide, accept_prob = block_kernel(rule)
    if accept_prob is None:
        raise ValueError(f"no frozen-summary sampler for rule {rule.kind!r}")
    p_acc = accept_prob(summary)
    if not p_acc > 0.0:
        raise ValueError(f"no step admits anyone at summary {summary!r}")
    if trials / p_acc > _MAX_PAIRS:
        raise ValueError(
            f"at summary {summary!r} a step admits with probability "
            f"{p_acc!r}: {trials} admissions need about "
            f"{trials / p_acc:.3g} candidate pairs, past the cap of "
            f"{_MAX_PAIRS}")
    out = np.empty(trials)
    have = 0
    while have < trials:
        m = min(_PASS_PAIRS, math.ceil((trials - have) / p_acc))
        vals = decide(summary, *sorted_pairs(rng.uniform_block(2 * m)))
        vals = vals[vals == vals]  # NaN: the pair admitted nobody
        take = min(len(vals), trials - have)
        out[have:have + take] = vals[:take]
        have += take
    return out


def estimate_interval_accept_prob(rule: RuleSpec, frozen_summary: float,
                                  interval: tuple, trials: int,
                                  rng: Rng) -> tuple[float, float]:
    """Monte Carlo estimate (and standard error) of the probability that a
    step admits into `interval` [lo, hi) (draws lie below 1), conditioned
    on acceptance where the rule can reject, with the summary held fixed."""
    lo, hi = interval
    if not lo <= hi:  # NaN fails too
        raise ValueError(f"not an interval: lo={lo}, hi={hi}")
    vals = _frozen_step_values(rule, frozen_summary, trials, rng)
    hits = np.count_nonzero((vals >= lo) & (vals < hi))
    est = hits / trials
    se = math.sqrt(max(est * (1.0 - est), 1e-300) / trials)
    return est, se


@dataclass(repr=False, eq=False)
class IntervalEstimate(Record):
    q: float
    lo: float
    hi: float
    estimate: float
    std_error: float
    lower_bound: float
    upper_bound: float
    passed: bool


@dataclass(repr=False, eq=False)
class SmoothnessReport(Record):
    rule_kind: str
    c1: float
    c2: float
    intervals: list  # IntervalEstimate rows
    f_hat: list      # (q, estimate, std_error) rows
    f_increasing: bool
    passed: bool


def smoothness_report(rule: RuleSpec, summary_grid: Sequence[float],
                      delta_grid: Sequence[float], trials: int,
                      rng: Rng) -> SmoothnessReport:
    """Empirical smoothness certificate for a quantile-driven rule.

    For every summary value q on the grid, `trials` frozen-summary
    admissions are binned into each delta partition of [0, 1]; every bin
    probability must lie within [c1*d^2 - 3se, c2*d + 3se].  The estimated
    f(q) values must also increase across the grid beyond noise.  Each
    delta must split [0, 1] into whole bins.
    """
    if not summary_grid or not delta_grid:
        raise ValueError("summary and delta grids must be non-empty")
    for d in delta_grid:
        if not (0.0 < d <= 1.0 and abs(round(1.0 / d) * d - 1.0) <= 1e-9):
            raise ValueError(f"delta_grid: {d!r} does not split [0, 1] evenly")
    rows: list[IntervalEstimate] = []
    f_hat = []
    passed = True
    for q in summary_grid:
        vals = _frozen_step_values(rule, q, trials, rng)
        below = np.count_nonzero(vals < q) / trials
        f_se = math.sqrt(max(below * (1 - below), 1e-300) / trials)
        f_hat.append((q, below, f_se))
        for d in delta_grid:
            nbins = round(1.0 / d)
            counts, _ = np.histogram(vals, bins=nbins, range=(0.0, 1.0))
            for i, c in enumerate(counts):
                est = c / trials
                se = math.sqrt(max(est * (1 - est), 1e-300) / trials)
                lo_b = rule.c1 * d * d
                hi_b = rule.c2 * d
                ok = (est >= lo_b - 3 * se) and (est <= hi_b + 3 * se)
                passed = passed and ok
                rows.append(IntervalEstimate(q, i * d, (i + 1) * d,
                                             est, se, lo_b, hi_b, ok))
    f_increasing = all(
        b1 + 3 * (s1 + s0) > b0
        for (_, b0, s0), (_, b1, s1) in zip(f_hat, f_hat[1:]))
    return SmoothnessReport(rule.kind, rule.c1, rule.c2, rows, f_hat,
                            f_increasing, passed and f_increasing)


# -------------------------------------------------- quantile progress test

@dataclass(repr=False, eq=False)
class ProgressResult(Record):
    pass_fraction: float
    trials: int
    required_members: float
    details: list  # (gained_members, gap_before, gap_after) per trial


def _progress_start_group(q_target: float, sigma: float, t: int, p: float,
                          rng: Rng) -> GroupState:
    """Group with its p-quantile at q_target and t members in each
    sigma-neighborhood, built in numpy from one uniform block: `a` members
    well below and the rest in (q_target + sigma, 1 - 1e-9], sized so that
    rank ceil(p * k) is q_target (a = t of k = 4t + 1 at p = 1/2)."""
    num, den = p.as_integer_ratio()
    if not 0 < num < den:
        raise ValueError(f"no start group puts the {p!r}-quantile inside")
    k = max(4 * t + 1, t * den // num + 1, -(-t * den // (den - num)))
    a = -(-num * k // den) - t - 1
    u = rng.uniform_block(k - 1)
    lo_end = max(q_target - sigma, 0.0)
    hi_end = q_target + sigma
    return GroupState(np.concatenate((
        u[:a] * lo_end * 0.98, lo_end + u[a:a + t] * (q_target - lo_end),
        q_target + u[a + t:a + 2 * t] * (hi_end - q_target),
        hi_end + 1e-9 + u[a + 2 * t:] * (1.0 - hi_end - 2e-9), [q_target])))


def quantile_progress_test(rule: RuleSpec, ctx: OracleContext,
                           start_gap: float, sigma: float, t: int,
                           trials: int, rng: Rng,
                           side: str = "right") -> ProgressResult:
    """Empirical check of the confined-quantile progress proposition.

    Builds start groups whose driving quantile sits `start_gap` from the
    fixed point on the chosen side, with both sigma-neighborhoods holding
    at least t members, verifies the hypotheses

        g(start_gap - sigma) > g(start_gap)/2 > c2 * sigma

    and then measures, over `trials` independent runs of t admissions, how
    often at least g(start_gap)/4 * t members separate the old and new
    quantile positions while the gap did not grow.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if ctx.p != rule.p:
        raise ValueError(f"context p={ctx.p!r} is not the rule's p={rule.p!r}")
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int of at least 1, got {trials!r}")
    if type(t) is not int or t < 1:
        raise ValueError(f"t must be an int of at least 1, got {t!r}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    gaps = gap_functions(ctx, start_gap)
    g_val = gaps.g_r if side == "right" else gaps.g_l
    if g_val <= 0.0:
        raise ValueError(f"g({start_gap}) = {g_val} is not positive; "
                         "the proposition needs a positive starting gap")
    if sigma >= start_gap:
        raise ValueError(f"sigma={sigma} must be below the gap {start_gap}")
    shrunk = gap_functions(ctx, start_gap - sigma)
    s_val = shrunk.g_r if side == "right" else shrunk.g_l
    if not s_val > g_val / 2.0:
        raise ValueError(
            f"hypothesis g(gap - sigma) > g(gap)/2 fails: {s_val} <= {g_val / 2}")
    if not g_val / 2.0 > rule.c2 * sigma:
        raise ValueError(
            f"hypothesis g(gap)/2 > c2*sigma fails: {g_val / 2} <= {rule.c2 * sigma}")

    q_start = ctx.tau - start_gap if side == "right" else ctx.tau + start_gap
    if not 0.0 <= q_start <= 1.0 - 2e-9 - sigma:
        raise ValueError(
            f"start_gap={start_gap!r} and sigma={sigma!r} put the start "
            f"window [{q_start - sigma!r}, {q_start + sigma!r}] past [0, 1]")
    required = g_val / 4.0 * t
    details = []
    passes = 0
    for trial in range(trials):
        sub = rng.split(trial)
        group = _progress_start_group(q_start, sigma, t, rule.p, sub)
        q0 = group.quantile(rule.p)
        gap0 = abs(q0 - ctx.tau)
        # neighborhood occupancy is part of the proposition's hypotheses
        for lo, hi in ((q0 - sigma, q0), (q0, q0 + sigma)):
            if group.count_interval(lo, hi, "closed") < t:
                raise ValueError(
                    f"hypothesis: at least t={t} members in the "
                    f"sigma-neighborhood [{lo}, {hi}] fails (trial {trial})")
        run(group, rule, sub, accepted_target=t)
        q1 = group.quantile(rule.p)
        gap1 = abs(q1 - ctx.tau)
        lo, hi = (q0, q1) if q0 <= q1 else (q1, q0)
        gained = group.count_interval(lo, hi, "closed")
        if gained >= required and gap1 <= gap0 + 1e-12:
            passes += 1
        details.append((gained, gap0, gap1))
    return ProgressResult(passes / trials, trials, required, details)
