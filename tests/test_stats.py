"""Statistical validators: KS oracles, density monitors, MC probes."""

import hashlib
import math
import random
import time

import numpy as np
import pytest

from admitlab import stats
from admitlab.group import GroupState
from admitlab.oracles import (accept_any_veto, f_majority, majority_context,
                              triangle_cdf, veto_context)
from admitlab.rng import Rng
from admitlab.rules import RuleSpec
from admitlab.stats import (
    check_density_bounds,
    default_delta,
    estimate_interval_accept_prob,
    ks_distance,
    quantile_progress_test,
    smoothness_report,
)


# --------------------------------------------------------------------- KS

def test_ks_single_point_vs_triangle():
    assert ks_distance([0.5], triangle_cdf) == pytest.approx(0.5)


def test_ks_quantile_transform_construction():
    # samples placed exactly at triangle quantiles of ranks (i-0.5)/n
    n = 10 ** 4

    def tri_inverse(u):
        if u <= 0.5:
            return math.sqrt(u / 2.0)
        return 1.0 - math.sqrt((1.0 - u) / 2.0)

    xs = [tri_inverse((i - 0.5) / n) for i in range(1, n + 1)]
    assert ks_distance(xs, triangle_cdf) <= 1e-4 + 0.5 / n


def test_ks_uniform_vs_triangle():
    # sup |x - H(x)| = 0.125 at x = 1/4
    rng = Rng(100)
    xs = rng.uniform_block(10 ** 4)
    d = ks_distance(xs, triangle_cdf)
    assert abs(d - 0.125) < 0.02


def test_ks_matches_naive_two_sided():
    rnd = random.Random(2)
    for n in (1, 2, 17, 301, 1000):
        xs = [rnd.random() for _ in range(n)]
        d = ks_distance(xs, triangle_cdf)
        sx = sorted(xs)
        naive = 0.0
        for i, x in enumerate(sx):
            naive = max(naive,
                        abs((i + 1) / n - triangle_cdf(x)),
                        abs(i / n - triangle_cdf(x)))
        assert d == pytest.approx(naive, abs=1e-15)
        # the one numpy expression agrees with the CDF taken sample by
        # sample, to the last bit
        ref = np.array([triangle_cdf(x) for x in sx])
        per_sample = max(np.max(np.arange(1, n + 1) / n - ref),
                         np.max(ref - np.arange(0, n) / n))
        assert d == float(per_sample)


# ---------------------------------------------------------------- density

def test_density_profile_counts_sum_to_k():
    # delta-segments [i*d, (i+1)*d), the last closed at 1, partition the
    # group as the density monitors count it
    rng = Rng(3)
    g = GroupState(rng.uniform_block(5000))
    counts = [g.count_lt((i + 1) / 10) - g.count_lt(i / 10)
              for i in range(9)] + [g.count_interval(0.9, 1.0, "closed")]
    assert sum(counts) == g.size


def test_density_profile_uniform_concentration():
    # binomial concentration: each of 10 segments near 1000 of 10^4
    rng = Rng(4)
    g = GroupState(rng.uniform_block(10 ** 4))
    v = check_density_bounds(g, widths=[0.1], lower_per_len=8500.0,
                             upper_per_len=11500.0, align=0.1)
    assert v.checked == 10
    assert v.passed


def test_density_profile_attached_verdicts():
    # c1' * |I| * delta * k <= count <= c2' * |I| * k over aligned windows
    # of width delta, 2*delta and 4*delta (delta = 0.1, k = 10^4)
    rng = Rng(41)
    g = GroupState(rng.uniform_block(10 ** 4))
    k = g.size
    v = check_density_bounds(g, widths=[0.1, 0.2, 0.4],
                             lower_per_len=0.5 * 0.1 * k,
                             upper_per_len=2.0 * k, align=0.1)
    # widths 0.1/0.2/0.4 aligned to the grid: 10 + 9 + 7 windows
    assert v.checked == 26
    assert v.passed
    tight = check_density_bounds(g, widths=[0.1, 0.2, 0.4],
                                 lower_per_len=0.5 * 0.1 * k,
                                 upper_per_len=0.5 * k, align=0.1)
    assert not tight.passed


def test_density_profile_point_mass_flags_upper():
    g = GroupState([0.35] * 500)
    assert g.count_lt(0.4) - g.count_lt(0.3) == 500
    verdict = check_density_bounds(g, widths=[0.1], lower_per_len=0.0,
                                   upper_per_len=7 * g.size)
    # one window holds everything: upper bound 0.7*k < k flags it
    assert not verdict.passed
    assert any(c == 500 for _, _, c, _, _ in verdict.violations)


def test_default_delta():
    assert default_delta(10 ** 5) == pytest.approx(10 ** -0.5)


def test_check_density_bounds_window_membership():
    g = GroupState([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])
    v = check_density_bounds(g, widths=[0.2], lower_per_len=5.0,
                             upper_per_len=15.0, align=0.1)
    # every 0.2 window holds exactly 2 members: bounds 1 <= 2 <= 3
    assert v.passed
    assert v.checked == 9
    # no width, or no window fitting the region: an empty sample fails
    for widths, region in (([], (0.0, 1.0)), ([0.5], (0.4, 0.6))):
        v = check_density_bounds(g, widths=widths, lower_per_len=0.0,
                                 upper_per_len=100.0, region=region)
        assert v.checked == 0 and not v.passed


def test_check_density_bounds_rejects_nonpositive_steps():
    # a zero or negative width or align would never leave the window loop
    g = GroupState([0.5])
    for kwargs, name in (({"widths": [0.0]}, "widths"),
                         ({"widths": [0.2, -0.1]}, "widths"),
                         ({"widths": [0.2], "align": 0.0}, "align"),
                         ({"widths": [0.2], "align": -0.1}, "align")):
        with pytest.raises(ValueError, match=name):
            check_density_bounds(g, lower_per_len=0.0, upper_per_len=10.0,
                                 **kwargs)


# -------------------------------------------- frozen-summary MC estimates

def test_interval_accept_prob_majority_symmetry():
    est, se = estimate_interval_accept_prob(
        RuleSpec("majority"), 0.5, (0.0, 0.5), 200000, Rng(5))
    assert abs(est - 0.5) < 3 * se + 1e-9


def test_interval_accept_prob_majority_edge_bounds():
    # last interval of length delta: between delta^2 and 2*delta
    delta = 0.05
    est, se = estimate_interval_accept_prob(
        RuleSpec("majority"), 0.5, (1 - delta, 1.0), 200000, Rng(6))
    assert delta ** 2 - 3 * se <= est <= 2 * delta + 3 * se


def test_interval_accept_prob_veto_edge_bounds():
    delta = 0.05
    est, se = estimate_interval_accept_prob(
        RuleSpec("veto", r=0.25), 0.75, (1 - delta, 1.0), 200000, Rng(7))
    assert delta ** 2 - 3 * se <= est <= 4 * delta + 3 * se


def test_interval_estimates_tie_to_oracle():
    # P(admitted < q) with median frozen at q equals f_majority(q)
    for q in (0.3, 0.5, 0.7):
        est, se = estimate_interval_accept_prob(
            RuleSpec("majority"), q, (0.0, q), 300000, Rng(8))
        assert abs(est - f_majority(q)) < 3 * se + 1e-9


class _CountingRng(Rng):
    """An Rng that counts the uniforms drawn through `uniform_block`."""

    __slots__ = ("draws",)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def uniform_block(self, n):
        self.draws += n
        return super().uniform_block(n)


# sha256 of the float64 bytes of 40,000 frozen-summary admissions from
# Rng(7), recorded before the sampler drew through rules.block_kernel;
# majority also pins the final Rng state (it takes exactly 2 draws a trial)
_FROZEN_PINS = {
    ("majority", 0.2):
        "db7d06d7308488734ac7241e014a4ad66f43c17acb339bd6fd05378d39ead057",
    ("majority", 0.5):
        "f6ad3751ee94c62bb1ef3b1f459b8538e88b6dc84dca275d8589c0523e4c94c9",
    ("majority", 0.8):
        "9b5ad252ef5aeb142483bb7753a2b28a4b7da2b4dbfc4fbe767b2987fb92328a",
    ("veto", 0.65):
        "179c52e9a4990da01693a6340683cb38246099f06345fd1ffdfe19cdbe3949e8",
    ("veto", 0.75):
        "f1e57e7e22779989ba4ea848cd51bf19520358cb20906ff7716fcec9ab0e8a4d",
    ("veto", 0.85):
        "607ff885cd38db0b44c35ef067fdbb4b5d8aa585a3e2cfe4db25c81de6af8519",
}
_MAJORITY_FROZEN_STATE = (4350380134635362964, 6742743427920508459,
                          16632066572182713200, 8422899372982039275)


@pytest.mark.parametrize("pass_pairs", [stats._PASS_PAIRS, 1000])
def test_frozen_sampler_pinned(pass_pairs, monkeypatch):
    # the pass size changes how the stream is cut, never what it admits
    monkeypatch.setattr(stats, "_PASS_PAIRS", pass_pairs)
    for (kind, q), want in _FROZEN_PINS.items():
        rule = RuleSpec(kind, r=0.25 if kind == "veto" else None)
        rng = Rng(7)
        vals = stats._frozen_step_values(rule, q, 40000, rng)
        assert hashlib.sha256(vals.astype("<f8").tobytes()).hexdigest() \
            == want
        if kind == "majority":
            assert rng.state() == _MAJORITY_FROZEN_STATE


def test_frozen_sampler_veto_draws_what_it_needs():
    # at q = 0.9 a step admits with probability 0.98: ten admissions need
    # about 22 uniforms, not a whole 65,536-draw pass
    rng = _CountingRng(1)
    vals = stats._frozen_step_values(RuleSpec("veto", r=0.25), 0.9, 10, rng)
    assert len(vals) == 10
    assert rng.draws < 100


def test_interval_accept_prob_validation():
    with pytest.raises(ValueError):
        estimate_interval_accept_prob(RuleSpec("majority"), 0.5, (0, 1), 0, Rng(9))
    # no veto step admits anyone at a summary <= 0; outside [0, 1] the
    # acceptance probability itself is undefined
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=repr(s)):
            estimate_interval_accept_prob(RuleSpec("veto", r=0.25), s,
                                          (0.0, 1.0), 10, Rng(1))
    # majority admits at every summary, but a summary outside [0, 1] is
    # no member value
    for s in (math.nan, 1.5, -0.5):
        with pytest.raises(ValueError, match=repr(s)):
            estimate_interval_accept_prob(RuleSpec("majority"), s,
                                          (0.0, 0.5), 1000, Rng(1))
    with pytest.raises(ValueError, match="consensus"):
        estimate_interval_accept_prob(RuleSpec("consensus"), 0.5, (0, 1), 10,
                                      Rng(1))
    # an inverted or NaN interval is no interval, and trials is a count
    for interval in ((0.6, 0.2), (math.nan, 0.2), (0.2, math.nan)):
        with pytest.raises(ValueError, match="not an interval"):
            estimate_interval_accept_prob(RuleSpec("majority"), 0.5,
                                          interval, 1000, Rng(1))
    for trials in (1000.5, True, 10.0):
        with pytest.raises(ValueError, match="^trials must"):
            estimate_interval_accept_prob(RuleSpec("majority"), 0.5,
                                          (0.0, 0.5), trials, Rng(1))


def test_frozen_sampler_refuses_vanishing_acceptance():
    # at q = 1e-10 a veto step admits with probability 2e-20: ten
    # admissions would take about 5e20 pairs, so the call raises at once,
    # naming the summary, and draws nothing
    rng = _CountingRng(1)
    t = time.perf_counter()
    with pytest.raises(ValueError, match="1e-10"):
        stats._frozen_step_values(RuleSpec("veto", r=0.25), 1e-10, 10, rng)
    assert time.perf_counter() - t < 1.0 and rng.draws == 0
    # under the cap the call still samples: q = 1e-3 needs 5e6 pairs
    assert 10 / accept_any_veto(1e-3) < stats._MAX_PAIRS


# ------------------------------------------------------------- smoothness

def test_smoothness_majority_small():
    rep = smoothness_report(RuleSpec("majority"), [0.3, 0.5, 0.7],
                            [0.05], 150000, Rng(10))
    assert rep.passed
    assert rep.f_increasing
    assert rep.c1 == 1.0 and rep.c2 == 2.0


def test_smoothness_veto_small():
    rep = smoothness_report(RuleSpec("veto", r=0.25), [0.65, 0.75, 0.85],
                            [0.05], 150000, Rng(11))
    assert rep.passed
    assert rep.c2 == 4.0


def test_smoothness_veto_flat_below_half():
    # non-smooth regime: f is constant 1/2 for q < 1/2
    rep = smoothness_report(RuleSpec("veto", r=0.75), [0.2, 0.3, 0.4],
                            [0.05], 100000, Rng(12))
    vals = [b for (_, b, _) in rep.f_hat]
    assert all(abs(v - 0.5) < 0.01 for v in vals)
    assert not all(b1 > b0 + 0.01 for b0, b1 in zip(vals, vals[1:]))


def test_smoothness_validation():
    with pytest.raises(ValueError):
        smoothness_report(RuleSpec("majority"), [], [0.1], 100, Rng(13))
    # each delta must split [0, 1] into whole bins
    for d in (0.3, 0.7, 0.0, -0.1, 2.0, float("nan")):
        with pytest.raises(ValueError, match="delta_grid"):
            smoothness_report(RuleSpec("majority"), [0.5], [0.1, d], 100,
                              Rng(13))
    with pytest.raises(ValueError, match="0.0"):
        smoothness_report(RuleSpec("veto", r=0.25), [0.75, 0.0], [0.1], 100,
                          Rng(13))
    for s in (math.nan, 1.5, -0.5):
        with pytest.raises(ValueError, match=repr(s)):
            smoothness_report(RuleSpec("majority"), [0.3, s], [0.5], 100,
                              Rng(13))
    for trials in (0, -1, True, 100.0):
        with pytest.raises(ValueError, match="trials"):
            smoothness_report(RuleSpec("majority"), [0.5], [0.1], trials,
                              Rng(13))


# -------------------------------------------------------- progress test

def test_progress_preconditions_rejected():
    rule = RuleSpec("majority")
    ctx = majority_context()
    with pytest.raises(ValueError):
        quantile_progress_test(rule, ctx, 0.0, 0.001, 100, 5, Rng(14))
    # g_r(gap)/2 > c2*sigma fails: gap=0.1 gives g_r=0.02, need sigma < 0.005
    with pytest.raises(ValueError) as err:
        quantile_progress_test(rule, ctx, 0.1, 0.006, 100, 5, Rng(15))
    assert "c2*sigma" in str(err.value)
    # sigma >= gap
    with pytest.raises(ValueError):
        quantile_progress_test(rule, ctx, 0.1, 0.2, 100, 5, Rng(16))
    for trials in (0, True, 1.5, 5.0):
        with pytest.raises(ValueError, match="^trials must"):
            quantile_progress_test(rule, ctx, 0.1, 0.002, 100, trials, Rng(20))
    # t and sigma are checked before any group is built or run
    for t in (0, -2, True, 2.0, "5"):
        with pytest.raises(ValueError, match="^t must"):
            quantile_progress_test(rule, ctx, 0.1, 0.002, t, 5, Rng(21))
    for sigma in (0.0, -0.001, math.nan):
        with pytest.raises(ValueError, match="^sigma must"):
            quantile_progress_test(rule, ctx, 0.1, sigma, 100, 5, Rng(22))


def test_progress_start_window_must_fit_in_the_unit_interval(monkeypatch):
    # a lower neighborhood cut at 0 still builds its group
    res = quantile_progress_test(RuleSpec("majority"), majority_context(),
                                 0.499, 0.002, 200, 2, Rng(1))
    assert res.trials == 2
    # majority gap 0.499 on the left and veto r=0.25 (tau = 0.845) gap 0.36
    # on the left put the window past 1, and majority gap 0.6 on the right
    # puts q_start below 0: refused before any start group is drawn
    monkeypatch.setattr(stats, "_progress_start_group",
                        lambda *args: pytest.fail("a start group was drawn"))
    for rule, gap, side in ((RuleSpec("majority"), 0.499, "left"),
                            (RuleSpec("veto", r=0.25), 0.36, "left"),
                            (RuleSpec("majority"), 0.6, "right")):
        ctx = majority_context() if rule.kind == "majority" else \
            veto_context(rule.p)
        with pytest.raises(ValueError, match=rf"^start_gap={gap} and "
                           r"sigma=0\.002 put the start window"):
            quantile_progress_test(rule, ctx, gap, 0.002, 200, 2, Rng(1),
                                   side=side)


def test_progress_context_must_describe_the_rule():
    # a veto context aims majority start groups at the veto tau
    with pytest.raises(ValueError, match="context"):
        quantile_progress_test(RuleSpec("majority"), veto_context(0.75),
                               0.1, 0.002, 200, 3, Rng(1))


def test_progress_precondition_hand_values():
    # hand-computed: g_r(0.1) = 0.02, g_r(0.098) = 0.019208 > 0.01 > 2*0.002
    ctx = majority_context()
    from admitlab.oracles import gap_functions
    assert gap_functions(ctx, 0.1).g_r == pytest.approx(0.02)
    assert gap_functions(ctx, 0.098).g_r == pytest.approx(0.019208)


def test_progress_underfilled_neighborhood_raises(monkeypatch):
    # a start group too sparse around its quantile breaks the occupancy
    # hypothesis; it must raise even under python -O
    from admitlab import stats

    monkeypatch.setattr(stats, "_progress_start_group",
                        lambda q, sigma, t, p, rng: GroupState([0.1, q, 0.9]))
    with pytest.raises(ValueError, match="sigma-neighborhood"):
        quantile_progress_test(RuleSpec("majority"), majority_context(),
                               0.1, 0.002, 100, 3, Rng(19))


def test_progress_start_group_places_the_driving_quantile():
    # veto r=0.25 drives the 0.75-quantile: the start group must put that
    # quantile, not the median, at q_start, or the sigma-neighbourhood
    # hypothesis fails on trial 0 on both sides
    from admitlab import stats

    rule = RuleSpec("veto", r=0.25)
    ctx = veto_context(rule.p)
    for side, q_start in (("right", ctx.tau - 0.1), ("left", ctx.tau + 0.1)):
        g = stats._progress_start_group(q_start, 0.002, 500, rule.p, Rng(22))
        assert g.quantile(0.75) == q_start
        res = quantile_progress_test(rule, ctx, 0.1, 0.002, 500, 4, Rng(23),
                                     side=side)
        assert res.trials == len(res.details) == 4


# sha256 of repr((pass_fraction, details)) of quantile_progress_test(rule,
# its context, 0.1, 0.002, 500, 4, Rng(seed), side), recorded before the
# start group was built in numpy and uniform_block stepped 128-draw lanes
_PROGRESS_PINS = {
    ("majority", "right", 31):
    "b1595fd107226bfcb27d4a64b2bd0759f64ef662704b289b3e8a514911f716b6",
    ("majority", "left", 32):
    "a849a9b95b7dd7876c40db4c79758f9a0eba2e5eb4671abc9c4c801d0162a823",
    ("veto", "right", 33):
    "ef68291d534f555b0a0a32ceccc5d6a2eea8173841d61765382cff8eeb945696",
    ("veto", "left", 34):
    "d8baf8a9afcbed428fe1521c6ea4292c14be982bcf0fa2080de1d06d47e1b21e",
}


@pytest.mark.parametrize("kind, side, seed", sorted(_PROGRESS_PINS))
def test_progress_experiment_pinned(kind, side, seed):
    # veto r=0.25 drives the 3/4-quantile (den = 4), majority the median
    rule = RuleSpec(kind, r=0.25 if kind == "veto" else None)
    ctx = majority_context() if kind == "majority" else veto_context(rule.p)
    res = quantile_progress_test(rule, ctx, 0.1, 0.002, 500, 4, Rng(seed),
                                 side=side)
    blob = repr((res.pass_fraction, res.details))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        _PROGRESS_PINS[(kind, side, seed)]


def test_progress_smoke_right_and_left():
    # reduced-size smoke; the committed fixture runs at t=5000, 200 trials
    rule = RuleSpec("majority")
    ctx = majority_context()
    res = quantile_progress_test(rule, ctx, 0.1, 0.002, 3000, 20, Rng(17))
    assert res.pass_fraction >= 0.75
    res_l = quantile_progress_test(rule, ctx, 0.1, 0.002, 3000, 20, Rng(18),
                                   side="left")
    assert res_l.pass_fraction >= 0.75
