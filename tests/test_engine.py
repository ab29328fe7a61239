"""Growth engine: determinism, bookkeeping, rule-specific run structure."""

import math
from bisect import insort
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.engine import _CHUNK_PAIRS, Checkpoint, _next_checkpoint, run
from admitlab.group import GroupState
from admitlab.oracles import accept_any_veto
from admitlab.rng import Rng
from admitlab.rules import RuleSpec, admit, kernel


class StubRng:
    """Plays back a fixed list of uniforms, in blocks or one at a time."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniform_block(self, n):
        block, self.values = self.values[:n], self.values[n:]
        return np.array(block)

    def state(self):
        return tuple(self.values)


def test_majority_admits_every_step():
    g = GroupState([0.25])
    traj = run(g, RuleSpec("majority"), Rng(1), accepted_target=500)
    assert traj.accepted == 500
    assert traj.raw_steps == 500
    assert g.size == 501


def _one_step(g, rule, pair):
    return run(g, rule, StubRng(pair), raw_budget=1, log_admitted=True)


class _BlockOnly:
    """A draw source offering `uniform_block` and `state` and nothing else:
    no single draws and no `set_state`."""

    def __init__(self, seed):
        rng = Rng(seed)
        self.uniform_block, self.state = rng.uniform_block, rng.state


def test_steps_mode_draws_only_blocks():
    # a steps-mode run must not ask its source for single draws, and uses
    # up every buffer, so it never hands draws back
    rule = RuleSpec("veto", r=0.25)
    want = run(GroupState([0.5]), rule, Rng(8), accepted_target=300,
               log_admitted=True)
    got = run(GroupState([0.5]), rule, _BlockOnly(8), accepted_target=300,
              log_admitted=True)
    assert got.admitted == want.admitted and got.raw_steps == want.raw_steps


def test_consensus_forced_rejection():
    # a pair split by the span admits nobody
    g = GroupState([0.4, 0.6])
    traj = _one_step(g, RuleSpec("consensus"), [0.3, 0.7])
    assert traj.raw_steps == 1 and traj.accepted == 0 and traj.admitted == []
    assert g.size == 2


def test_step_returns_admitted_opinion():
    # the sorted pair's pick is inserted and logged, 0.0 included
    g = GroupState([1.0])
    traj = _one_step(g, RuleSpec("veto", r=0.25), [0.9, 0.2])
    assert traj.admitted == [0.9] and traj.accepted == 1
    assert g.size == 2 and g.min() == 0.9
    g = GroupState([0.0])
    traj = _one_step(g, RuleSpec("consensus"), [0.1, 0.0])
    assert traj.admitted == [0.0] and traj.accepted == 1
    assert g.size == 2 and g.max() == 0.0


def test_veto_admits_only_right_candidate():
    g = GroupState([1.0])
    traj = run(g, RuleSpec("veto", r=0.75), Rng(3), accepted_target=1000,
               log_admitted=True)
    assert traj.accepted == 1000
    # replay the pair stream and confirm every admission is the pair max
    rng = Rng(3)
    admitted = []
    check = GroupState([1.0])
    p = 1.0 - 0.75
    while len(admitted) < 1000:
        a, b = rng.uniform(), rng.uniform()
        y1, y2 = (a, b) if a <= b else (b, a)
        if 0.5 * (y1 + y2) < check.quantile(p):
            check.insert(y2)
            admitted.append(y2)
    assert traj.admitted == admitted


def test_replay_determinism():
    g1 = GroupState([0.25])
    g2 = GroupState([0.25])
    t1 = run(g1, RuleSpec("majority"), Rng(77), accepted_target=2000,
             log_admitted=True)
    t2 = run(g2, RuleSpec("majority"), Rng(77), accepted_target=2000,
             log_admitted=True)
    assert t1.admitted == t2.admitted
    assert t1.checkpoints == t2.checkpoints
    assert g1.members(1, g1.size) == g2.members(1, g2.size)


def test_group_size_accounting():
    g = GroupState([0.2, 0.8])
    traj = run(g, RuleSpec("consensus"), Rng(5), raw_budget=4000)
    assert g.size == 2 + traj.accepted
    assert traj.raw_steps == 4000
    assert traj.accepted < 4000  # consensus rejects most steps


def test_checkpoints_strictly_increasing_and_geometric():
    g = GroupState([0.25])
    traj = run(g, RuleSpec("majority"), Rng(9), accepted_target=5000)
    ks = [c.k for c in traj.checkpoints]
    assert ks[0] == 1
    assert ks[-1] == 5001
    assert all(a < b for a, b in zip(ks, ks[1:]))
    # schedule: next k = max(k+1, ceil(1.05 k))
    for a, b in zip(ks, ks[1:]):
        assert b <= max(a + 1, math.ceil(1.05 * a)) or b == ks[-1]


def test_gap_recorded_against_tau():
    g = GroupState([0.25])
    traj = run(g, RuleSpec("majority"), Rng(11), accepted_target=200)
    for c in traj.checkpoints:
        assert c.gap == abs(c.q_p - 0.5)


def test_extra_quantiles_recorded():
    g = GroupState([1.0])
    traj = run(g, RuleSpec("veto", r=0.25), Rng(13), accepted_target=500,
               extra_quantiles=(0.6875,))
    for c in traj.checkpoints:
        assert 0.6875 in c.extra
        assert 0.0 <= c.extra[0.6875] <= 1.0


def test_consensus_interval_invariant_on_every_accept():
    # every admitted opinion sits in [0, 2*x1] or [2*xk - 1, 1] of the
    # pre-insertion state
    from admitlab.experiments import outside_extreme_intervals

    g = GroupState([0.45, 0.55])
    traj = run(g, RuleSpec("consensus"), Rng(17), raw_budget=200000,
               log_admitted=True)
    assert traj.accepted > 0
    assert outside_extreme_intervals([0.45, 0.55], traj.admitted) == 0


def test_budget_exhaustion_reported_not_raised():
    # every pair joins at extremes (0.5, 0.5), but 2,000 raw steps admit
    # at most 2,000 of the million members wanted
    g = GroupState([0.5, 0.5])
    traj = run(g, RuleSpec("consensus"), Rng(19), accepted_target=10 ** 6,
               raw_budget=2000)
    assert traj.exhausted
    assert traj.raw_steps == 2000
    # with no accepted target there is nothing to fall short of: a
    # budget-only run ends on its budget without being exhausted
    traj = run(GroupState([0.5, 0.5]), RuleSpec("consensus"), Rng(19),
               raw_budget=2000)
    assert not traj.exhausted
    assert traj.raw_steps == 2000


def test_jump_buffer_bounded_by_budget():
    # a member takes at least one raw step, so a budget-only jump run of
    # 200 raw steps draws at most 400 uniforms at once, and hands back the
    # ones it did not use
    sizes = []

    class CountingRng(Rng):
        def uniform_block(self, n):
            sizes.append(n)
            return super().uniform_block(n)

    rule = RuleSpec("veto", r=0.75)
    rng, ref = CountingRng(1), Rng(1)
    traj = run(GroupState([1.0]), rule, rng, raw_budget=200, mode="jump",
               log_admitted=True)
    _, ref_admitted, ref_raw = _jump_loop([1.0], rule, ref, raw_budget=200)
    assert sizes and max(sizes) <= 400
    assert (traj.admitted, traj.raw_steps) == (ref_admitted, ref_raw)
    assert rng.state() == ref.state()


class _SpyRng(Rng):
    """An Rng that counts its `set_state` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.restores = 0

    def set_state(self, state):
        self.restores += 1
        super().set_state(state)


@pytest.mark.parametrize("rule, legs", [
    (RuleSpec("majority"), [{"accepted_target": _CHUNK_PAIRS + 500}]),
    (RuleSpec("veto", r=0.75), [{"accepted_target": 10 ** 6,
                                 "raw_budget": 5000}]),
    (RuleSpec("consensus"), [{"raw_budget": 3000},
                             {"accepted_target": 2, "raw_budget": 9000}]),
], ids=["goal", "budget", "chained"])
def test_steps_runs_never_hand_draws_back(rule, legs):
    # a step takes two draws and admits at most one member, so a steps
    # buffer is always used up, whatever ends a run that is not stuck
    rng, ref = _SpyRng(3), Rng(3)
    group = GroupState(_start("middle", 300, 3))
    for leg in legs:
        traj = run(group, rule, rng, **leg)
        ref.uniform_block(2 * traj.raw_steps)
    assert rng.restores == 0
    assert rng.state() == ref.state()


def test_jump_run_stopped_by_budget_hands_draws_back():
    rng = _SpyRng(1)
    traj = run(GroupState([1.0]), RuleSpec("veto", r=0.75), rng,
               accepted_target=50, mode="jump")
    assert traj.accepted == 50 and rng.restores == 0
    traj = run(GroupState([1.0]), RuleSpec("veto", r=0.75), rng,
               raw_budget=200, mode="jump")
    assert traj.raw_steps == 200 and rng.restores == 1


def test_run_argument_validation():
    with pytest.raises(ValueError):
        run(GroupState(), RuleSpec("majority"), Rng(1), accepted_target=10)
    with pytest.raises(ValueError):
        run(GroupState([0.5]), RuleSpec("majority"), Rng(1))
    with pytest.raises(ValueError):
        run(GroupState([0.5]), RuleSpec("majority"), Rng(1), accepted_target=0)
    for budget in (0, -3):
        with pytest.raises(ValueError):
            run(GroupState([0.5]), RuleSpec("majority"), Rng(1),
                accepted_target=5, raw_budget=budget)
    with pytest.raises(ValueError):
        run(GroupState([0.5]), RuleSpec("majority"), Rng(1),
            accepted_target=5, mode="jump")  # jump is veto-only
    # a limit must be an int: 3.5 raw steps ran as a budget of 3.5, 2.5
    # members raised TypeError inside the driver, True ran as 1
    veto = RuleSpec("veto", r=0.75)
    for name, value in [("raw_budget", 3.5), ("accepted_target", 2.5),
                        ("accepted_target", True), ("raw_budget", False),
                        ("accepted_target", "5")]:
        for mode in ("steps", "jump"):
            with pytest.raises(ValueError, match=name):
                run(GroupState([0.5]), veto, Rng(1), mode=mode,
                    **{name: value})


@pytest.mark.parametrize("r, seed", [(0.9, 245), (0.95, 1), (0.999, 3)])
def test_jump_mode_survives_vanishing_acceptance(r, seed):
    # acceptance near 1e-16 and below: these seeds hit ZeroDivisionError
    # (r=0.9 at 1,626 members, r=0.95 at 1,437) while the skip law used
    # log(1 - p_acc), which rounds to log(1.0) = 0; at r=0.999 p_acc = 2q^2
    # turns subnormal and the skip count overflowed a float at 1,994 members
    g = GroupState([1.0])
    traj = run(g, RuleSpec("veto", r=r), Rng(seed), accepted_target=3000,
               mode="jump")
    assert not traj.exhausted
    assert traj.accepted == 3000
    assert traj.raw_steps >= traj.accepted


def test_veto_acceptance_frequency_matches_oracle():
    # over late windows where q_p is steady, the raw acceptance rate must
    # match the closed-form total acceptance probability within 3 sigma
    g = GroupState([1.0])
    traj = run(g, RuleSpec("veto", r=0.25), Rng(29), accepted_target=40000)
    cks = traj.checkpoints
    tail = [c for c in cks if c.k >= 20000]
    assert len(tail) >= 2
    a, b = tail[0], tail[-1]
    dk = b.k - a.k
    dsteps = b.steps - a.steps
    rate = dk / dsteps
    q_bar = 0.5 * (a.q_p + b.q_p)
    expect = accept_any_veto(q_bar)
    se = math.sqrt(expect * (1 - expect) / dsteps)
    assert abs(rate - expect) < 3 * se


def test_jump_mode_matches_step_mode_statistics():
    # same process law: compare quantile locations and acceptance rates
    # across seeds at a fixed accepted count
    p = 0.25
    rule = RuleSpec("veto", r=0.75)
    q_steps, q_jump = [], []
    rates_steps, rates_jump = [], []
    for seed in range(40):
        g1 = GroupState([1.0])
        t1 = run(g1, rule, Rng(1000 + seed), accepted_target=400)
        q_steps.append(g1.quantile(p))
        rates_steps.append(t1.accepted / t1.raw_steps)
        g2 = GroupState([1.0])
        t2 = run(g2, rule, Rng(5000 + seed), accepted_target=400, mode="jump")
        q_jump.append(g2.quantile(p))
        rates_jump.append(t2.accepted / t2.raw_steps)
    m1, m2 = np.mean(q_steps), np.mean(q_jump)
    s = math.sqrt(np.var(q_steps) / 40 + np.var(q_jump) / 40)
    assert abs(m1 - m2) < 4 * s
    r1, r2 = np.mean(rates_steps), np.mean(rates_jump)
    sr = math.sqrt(np.var(rates_steps) / 40 + np.var(rates_jump) / 40)
    assert abs(r1 - r2) < 4 * sr


def test_jump_mode_admitted_distribution_matches():
    # conditional admitted-value sampler agrees with brute rejection sampling
    # at a frozen quantile
    from admitlab.engine import _accepted_veto_value

    rng = Rng(31)
    for q in (0.3, 0.75):
        n = 20000
        p_acc = accept_any_veto(q)
        vals = sorted(_accepted_veto_value(q, p_acc, rng.uniform())
                      for _ in range(n))
        # reference: rejection-sample pairs, keep max when midpoint < q
        ref_rng = Rng(33)
        ref = []
        while len(ref) < n:
            u = ref_rng.uniform_block(2 << 12)
            a, b = u[0::2], u[1::2]
            keep = (a + b) * 0.5 < q
            ref.extend(np.maximum(a, b)[keep])
        ref = np.sort(np.array(ref[:n]))
        vals = np.asarray(vals)
        ks = np.max(np.abs(np.arange(1, n + 1) / n -
                           np.searchsorted(ref, vals, side="right") / n))
        assert ks < 0.02  # ~1.36*sqrt(2/n) at alpha=0.05 is 0.0136; slack for ties


def _step_loop(members, rule, rng, accepted_target=None, raw_budget=None,
               extra_quantiles=(), decide=None):
    """Per-call reference for `run` in steps mode, checkpointed on the same
    geometric schedule.  It shares neither `run`'s blocks nor GroupState:
    two `rng.uniform()` calls per raw step, the group as the plain sorted
    list `members` (grown in place), every summary read from it afresh at
    rank max(1, ceil(p * k)), and `decide(summary, y1, y2)` called
    directly, by default `admit` on the rule's thresholds.  A summary that
    no pair passes (left >= 1 and right <= 0: veto at q <= 0, consensus
    extremes (0, 1)) ends the run before its next draw."""
    goal = None if accepted_target is None else len(members) + accepted_target
    checkpoints, admitted, raw = [], [], 0
    bounds = kernel(rule)[0]
    decide = decide or (lambda s, y1, y2: admit(*bounds(s), y1, y2))

    def quantile(p):
        return members[max(1, math.ceil(Fraction(p) * len(members))) - 1]

    def record():
        q = None if rule.p is None else quantile(rule.p)
        gap = None if q is None or rule.tau is None else abs(q - rule.tau)
        checkpoints.append(Checkpoint(
            len(members), raw, q, gap, members[0], members[-1],
            {ep: quantile(ep) for ep in extra_quantiles}))

    record()
    next_ck = _next_checkpoint(len(members))
    while (goal is None or len(members) < goal) and \
            (raw_budget is None or raw < raw_budget):
        summary = (members[0], members[-1]) if rule.p is None \
            else quantile(rule.p)
        left, right = bounds(summary)
        if left >= 1.0 and right <= 0.0:  # draws lie in [0, 1)
            break
        u1, u2 = rng.uniform(), rng.uniform()
        raw += 1
        y = decide(summary, min(u1, u2), max(u1, u2))
        if y is not None:
            insort(members, y)
            admitted.append(y)
            if len(members) >= next_ck:
                record()
                next_ck = _next_checkpoint(len(members))
    if checkpoints[-1].k != len(members):
        record()
    return checkpoints, admitted, raw


@pytest.mark.parametrize("rule, initial, budget", [
    (RuleSpec("majority"), [0.25], {"accepted_target": 3000}),
    (RuleSpec("consensus"), [0.5], {"raw_budget": 20000}),
    (RuleSpec("veto", r=0.25), [1.0], {"accepted_target": 3000}),
    (RuleSpec("veto", r=0.75), [1.0], {"accepted_target": 300,
                                       "raw_budget": 20000}),
], ids=["majority", "consensus", "veto-0.25", "veto-0.75"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_matches_step_loop(rule, initial, budget, seed):
    # the steps-mode driver takes the same draws and decisions as the
    # per-call reference, and leaves the same group
    extra = (0.25, 0.9)
    group, members = GroupState(initial), sorted(initial)
    traj = run(group, rule, Rng(seed), log_admitted=True,
               extra_quantiles=extra, **budget)
    ref_cks, ref_admitted, ref_raw = _step_loop(
        members, rule, Rng(seed), extra_quantiles=extra, **budget)
    assert group.members(1, group.size) == members
    assert traj.checkpoints == ref_cks
    assert traj.admitted == ref_admitted
    assert traj.raw_steps == ref_raw
    assert traj.accepted == len(ref_admitted) > 0


def _exact_shadow(rule):
    """A decision for `_step_loop` that decides each step in Fractions, on
    the exact pair sum against twice the rule's thresholds (exact floats),
    and counts the steps where `admit` decides otherwise."""
    bounds = kernel(rule)[0]
    disagreements = [0]

    def decide(summary, y1, y2):
        left, right = bounds(summary)
        total = Fraction(y1) + Fraction(y2)
        y = y1 if left < math.inf and total >= Fraction(2.0 * left) else \
            y2 if total < Fraction(2.0 * right) else None
        disagreements[0] += y != admit(left, right, y1, y2)
        return y

    return decide, disagreements


@pytest.mark.parametrize("rule, initial, budget", [
    (RuleSpec("majority"), [0.25], {"accepted_target": 50000}),
    (RuleSpec("veto", r=0.25), [1.0], {"accepted_target": 40000}),
    (RuleSpec("veto", r=0.75), [1.0], {"raw_budget": 100000}),
    (RuleSpec("consensus"), [0.5], {"raw_budget": 100000}),
], ids=["majority", "veto-0.25", "veto-0.75", "consensus"])
def test_run_matches_exact_shadow(rule, initial, budget):
    # the per-call loop re-decides every step in Fractions on the same
    # draws; the float decision never disagrees, and `run` admits the
    # exact process's members
    traj = run(GroupState(initial), rule, Rng(12), log_admitted=True,
               **budget)
    decide, disagreements = _exact_shadow(rule)
    _, ref_admitted, ref_raw = _step_loop(sorted(initial), rule, Rng(12),
                                          decide=decide, **budget)
    assert disagreements == [0]
    assert traj.admitted == ref_admitted
    assert traj.raw_steps == ref_raw >= 40000


@pytest.mark.parametrize("rule, initial, legs", [
    # longer than one buffer, ended by the target
    (RuleSpec("majority"), [0.25], [{"accepted_target": _CHUNK_PAIRS + 7000}]),
    # a budget ending exactly on a buffer boundary, and one step past it
    (RuleSpec("consensus"), [0.5], [{"raw_budget": 2 * _CHUNK_PAIRS}]),
    (RuleSpec("consensus"), [0.5], [{"raw_budget": 2 * _CHUNK_PAIRS + 1}]),
    # veto with a target and a budget that binds first
    (RuleSpec("veto", r=0.25), [1.0], [{"accepted_target": 40000,
                                        "raw_budget": _CHUNK_PAIRS + 5000}]),
    # three runs chained on one Rng, as criterion 05 chains them
    (RuleSpec("consensus"), [0.5], [{"raw_budget": 1000},
                                    {"raw_budget": 9000},
                                    {"raw_budget": _CHUNK_PAIRS + 3}]),
], ids=["majority-long", "budget-on-boundary", "budget-past-boundary",
        "veto-budget-binds", "chained"])
def test_buffered_draws_match_per_call_draws(rule, initial, legs):
    # the buffered driver leaves every output and the stream itself exactly
    # where a loop of per-call uniform() draws does
    group, members = GroupState(initial), sorted(initial)
    rng, ref_rng = Rng(5), Rng(5)
    for leg in legs:
        traj = run(group, rule, rng, log_admitted=True, **leg)
        ref_cks, ref_admitted, ref_raw = _step_loop(members, rule, ref_rng,
                                                    **leg)
        assert traj.checkpoints == ref_cks
        assert traj.admitted == ref_admitted
        assert traj.raw_steps == ref_raw
        assert rng.state() == ref_rng.state()
        assert group.members(1, group.size) == members
    if "raw_budget" in legs[-1]:
        assert traj.raw_steps == legs[-1]["raw_budget"]
    else:
        assert traj.raw_steps > _CHUNK_PAIRS


def test_outside_extreme_intervals_counts_hand_made_log():
    from admitlab.experiments import outside_extreme_intervals

    # from {0.1, 0.9} the intervals are [0, 0.2] and [0.8, 1]; after 0.05
    # joins the left one shrinks to [0, 0.1], so the second 0.15 is outside
    log = [0.15, 0.5, 0.05, 0.15, 0.95]
    assert outside_extreme_intervals([0.1, 0.9], log) == 2
    assert outside_extreme_intervals([0.1, 0.9], log[:1]) == 0


def _jump_loop(members, rule, rng, accepted_target=None, raw_budget=None,
               extra_quantiles=()):
    """Per-member reference for `run` in jump mode, on the plain sorted
    list `members` (grown in place), the quantile read from it afresh for
    every member, with the engine's skip and value laws."""
    from admitlab.engine import _accepted_veto_value, _rejections

    goal = None if accepted_target is None else len(members) + accepted_target
    checkpoints, admitted, raw = [], [], 0

    def quantile(p):
        return members[max(1, math.ceil(Fraction(p) * len(members))) - 1]

    def record():
        q = quantile(rule.p)
        gap = None if rule.tau is None else abs(q - rule.tau)
        checkpoints.append(Checkpoint(
            len(members), raw, q, gap, members[0], members[-1],
            {ep: quantile(ep) for ep in extra_quantiles}))

    record()
    next_ck = _next_checkpoint(len(members))
    while (goal is None or len(members) < goal) and \
            (raw_budget is None or raw < raw_budget):
        q = quantile(rule.p)
        if q <= 0.0:
            break
        p_acc = accept_any_veto(q)
        u = rng.uniform()
        skipped = _rejections(q, p_acc, u) if p_acc < 1.0 else 0
        if raw_budget is not None and raw + skipped + 1 > raw_budget:
            raw = raw_budget
            break
        raw += skipped + 1
        y = _accepted_veto_value(q, p_acc, rng.uniform())
        insort(members, y)
        admitted.append(y)
        if len(members) >= next_ck:
            record()
            next_ck = _next_checkpoint(len(members))
    if checkpoints[-1].k != len(members):
        record()
    return checkpoints, admitted, raw


def _start(shape, n, seed):
    """A start group of n members of the given shape, from the uniforms of
    Rng(seed)."""
    u = Rng(seed).uniform_block(n).tolist()
    if shape == "middle":  # consensus: a narrow span admits now and then
        return [0.45 + 0.1 * x for x in u]
    if shape == "collapsed":
        return [x * 2.0 ** -30 if x < 0.97 else x for x in u]
    if shape == "duplicates":  # five values, each held by many members
        return [round(x * 4) / 4 for x in u]
    if shape == "grid":
        return [math.floor(x * 64) / 64 for x in u]
    if shape == "two-point":
        lo, hi = sorted(((seed % 5) / 4, (seed // 5 % 5) / 4))
        return [lo if x < 0.5 else hi for x in u]
    if shape == "narrow":
        return [0.5 + x * 2.0 ** -20 for x in u]
    if shape == "squeezed":  # all of it within 2^-20 .. 2^-60 of 0
        return [x * 2.0 ** -(20 + seed % 41) for x in u]
    return u  # spread


@pytest.mark.parametrize("rule, shape, mode, legs", [
    (RuleSpec("majority"), "spread", "steps",
     [{"accepted_target": 9000}, {"accepted_target": 40, "raw_budget": 10},
      {"accepted_target": _CHUNK_PAIRS + 100}]),
    (RuleSpec("majority"), "collapsed", "steps", [{"raw_budget": 6000}]),
    (RuleSpec("veto", r=0.25), "spread", "steps",
     [{"accepted_target": 7000}, {"raw_budget": 3001}]),
    (RuleSpec("veto", r=0.75), "spread", "steps",
     [{"accepted_target": 800, "raw_budget": 40000}]),
    # p = 0.01: the window is cut at the group's first member
    (RuleSpec("veto", r=0.99), "spread", "steps", [{"raw_budget": 60000}]),
    (RuleSpec("consensus"), "middle", "steps",
     [{"raw_budget": 50000}, {"accepted_target": 3, "raw_budget": 90000}]),
    (RuleSpec("veto", r=0.25), "spread", "jump",
     [{"accepted_target": 6000}, {"raw_budget": 2500}]),
    (RuleSpec("veto", r=0.75), "collapsed", "jump",
     [{"accepted_target": 5000}, {"accepted_target": 900,
                                  "raw_budget": 10 ** 12}]),
    (RuleSpec("veto", r=0.999), "spread", "jump", [{"accepted_target": 4000}]),
    # from one member, through the small groups whose window is all of it
    # and checkpoints every few admissions; the budget ends inside a block
    (RuleSpec("majority"), [0.25], "steps",
     [{"accepted_target": 3000, "raw_budget": 1500}, {"accepted_target": 700}]),
    (RuleSpec("veto", r=0.75), [1.0], "jump", [{"accepted_target": 2999}]),
    # jump runs that hand unused buffered draws back: the budget ends
    # between a member's two draws (about 2,000 members in), and a run from
    # one member ends stuck at q = 0 (10,456 and 10,911 members; seed 3
    # stops at 12,025), its second leg at once
    (RuleSpec("veto", r=0.75), "spread", "jump",
     [{"accepted_target": 5000, "raw_budget": 30000},
      {"accepted_target": 500}]),
    (RuleSpec("veto", r=0.999), [1.0], "jump",
     [{"accepted_target": 20000}, {"accepted_target": 5}]),
], ids=["majority", "majority-collapsed", "veto-0.25", "veto-0.75",
        "veto-0.99", "consensus", "jump-0.25", "jump-0.75", "jump-0.999",
        "majority-from-one", "jump-0.75-from-one", "jump-budget-mid-member",
        "jump-stuck"])
@pytest.mark.parametrize("seed", [4, 9])
def test_block_driver_matches_per_call_reference(rule, shape, mode, legs,
                                                 seed):
    # windowed blocks from a 2,500-member start (or the listed members),
    # legs chained on one Rng: the same admissions, checkpoints and raw
    # steps as the per-call loops, and the stream left in the same state
    extra = (0.1, 0.5, 0.97)
    initial = shape if isinstance(shape, list) else _start(shape, 2500, seed)
    group, members = GroupState(initial), sorted(initial)
    rng, ref_rng = Rng(seed), Rng(seed)
    reference = _step_loop if mode == "steps" else _jump_loop
    admitted = 0
    for leg in legs:
        traj = run(group, rule, rng, log_admitted=True, extra_quantiles=extra,
                   mode=mode, **leg)
        ref_cks, ref_admitted, ref_raw = reference(
            members, rule, ref_rng, extra_quantiles=extra, **leg)
        assert traj.admitted == ref_admitted
        assert traj.checkpoints == ref_cks
        assert traj.raw_steps == ref_raw
        assert rng.state() == ref_rng.state()
        assert group.members(1, group.size) == members
        admitted += traj.accepted
    assert admitted > 0


@st.composite
def _differential_cases(draw):
    rule = draw(st.sampled_from([
        RuleSpec("majority"), RuleSpec("consensus"), RuleSpec("veto", r=0.25),
        RuleSpec("veto", r=0.5), RuleSpec("veto", r=0.75),
        RuleSpec("veto", r=0.99)]))
    mode = draw(st.sampled_from(("steps", "jump") if rule.kind == "veto"
                                else ("steps",)))
    initial = _start(draw(st.sampled_from((
        "spread", "middle", "collapsed", "duplicates", "grid", "two-point",
        "narrow", "squeezed"))), draw(st.integers(1, 6000)),
        draw(st.integers(0, 2 ** 32)))
    legs = []
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.none() | st.integers(1, 2000))
        if mode == "steps":  # a steps run of tiny acceptance needs a budget
            budget = draw(st.integers(1, 4000))
        elif target is None:
            budget = draw(st.integers(1, 3000))
        else:
            budget = draw(st.none() | st.integers(1, 10 ** 6))
        legs.append({"accepted_target": target, "raw_budget": budget})
    return rule, mode, initial, legs, draw(st.integers(0, 2 ** 64 - 1))


@settings(max_examples=300)
@given(_differential_cases())
def test_block_driver_matches_per_call_reference_on_random_cases(case):
    # every rule and mode from every `_start` shape (duplicate-heavy,
    # two-point and collapsed among them) of 1 to 6,000 members, 1 to 3 legs
    # chained on one Rng: the admissions, checkpoints, raw counts, the group
    # and the stream's state all equal the per-call loops'
    rule, mode, initial, legs, seed = case
    extra = (0.1, 0.5, 0.97)
    group, members = GroupState(initial), sorted(initial)
    rng, ref_rng = Rng(seed), Rng(seed)
    reference = _step_loop if mode == "steps" else _jump_loop
    for leg in legs:
        traj = run(group, rule, rng, log_admitted=True, extra_quantiles=extra,
                   mode=mode, **leg)
        ref_cks, ref_admitted, ref_raw = reference(
            members, rule, ref_rng, extra_quantiles=extra, **leg)
        assert traj.admitted == ref_admitted
        assert traj.checkpoints == ref_cks
        assert traj.raw_steps == ref_raw
        assert rng.state() == ref_rng.state()
        assert group.members(1, group.size) == members


@pytest.mark.parametrize("rule, initial", [
    (RuleSpec("veto", r=0.25), [0.0]),
    (RuleSpec("veto", r=0.25), [0.0] * 2000 + [1.0] * 500),
    (RuleSpec("consensus"), [0.0, 1.0]),
], ids=["veto-from-zero", "veto-q-zero", "consensus-full-span"])
def test_stuck_steps_runs_end_at_once(rule, initial):
    # no pair can join: no midpoint is below q_p = 0, and none is >= 1 or
    # < 0; each leg ends where it is stuck, as the per-call loop does, and
    # hands its draws back
    group, members = GroupState(initial), sorted(initial)
    rng, ref_rng = Rng(6), Rng(6)
    for leg in ({"accepted_target": 1}, {"raw_budget": 500},
                {"accepted_target": 10, "raw_budget": 10 ** 6}):
        traj = run(group, rule, rng, log_admitted=True, **leg)
        ref_cks, ref_admitted, ref_raw = _step_loop(members, rule, ref_rng,
                                                    **leg)
        assert traj.checkpoints == ref_cks
        assert traj.admitted == ref_admitted == []
        assert traj.raw_steps == ref_raw == 0
        assert traj.exhausted == ("accepted_target" in leg)
        assert rng.state() == ref_rng.state() == Rng(6).state()


def test_quantile_block_ends_where_possible_admissions_reach_b():
    # veto r = 0.5 from 2,500 spread members: B = 400, and the window's top
    # H is the member of rank 1250 + 400.  A pair whose midpoint is below
    # the window joins for sure, one from H on is rejected for sure, and
    # the walk decides the rest, some of them rejected.  Only a pair below
    # H can admit, so the block ends at the first step where those reach
    # B, and admits there what the per-call loop admits
    from admitlab.engine import _quantile_block

    rule = RuleSpec("veto", r=0.5)
    initial = _start("spread", 2500, 2)
    members = sorted(initial)
    span, top = 8 * math.isqrt(2500), members[1250 + 400 - 1]
    u = Rng(7).uniform_block(4000)
    possible = np.cumsum((u[0::2] + u[1::2]) * 0.5 < top)
    stop = int(np.searchsorted(possible, span)) + 1
    new, raws, raw, used, done = _quantile_block(GroupState(initial), rule, u,
                                                 10, math.inf)
    _, ref_admitted, _ = _step_loop(members, rule,
                                    StubRng(u[:2 * stop].tolist()),
                                    raw_budget=stop)
    assert stop < u.size // 4  # well inside the pairs the block reads
    assert (raw, used, done) == (10 + stop, 2 * stop, False)
    assert new.tolist() == ref_admitted
    assert len(ref_admitted) < span
    assert raws[-1] <= raw


def test_narrow_majority_pairs_are_walked():
    # the median 1.9e-20 sits in a window [1e-20, 0.3]; the pair
    # (1e-20, 2e-20) admits its left member at the window's bottom but its
    # right member at its top and at the median itself, so it is walked
    initial = [1e-20] * 1500 + [1.9e-20] + [0.3] * 1500
    stream = [2e-20, 1e-20] + Rng(3).uniform_block(400).tolist()
    rule = RuleSpec("majority")
    group, members = GroupState(initial), sorted(initial)
    traj = run(group, rule, StubRng(stream), accepted_target=201,
               log_admitted=True)
    _, ref_admitted, _ = _step_loop(members, rule, StubRng(stream),
                                    accepted_target=201)
    assert ref_admitted[0] == 2e-20
    assert traj.admitted == ref_admitted
    assert group.members(1, group.size) == members


@pytest.mark.parametrize("rule, mode", [
    (RuleSpec("majority"), "steps"), (RuleSpec("veto", r=0.25), "steps"),
    (RuleSpec("consensus"), "steps"), (RuleSpec("veto", r=0.75), "jump")])
def test_trajectory_values_are_python_floats(rule, mode):
    group = GroupState(_start("middle", 2100, 1))
    traj = run(group, rule, Rng(2), accepted_target=300, raw_budget=30000,
               log_admitted=True, extra_quantiles=(0.25,), mode=mode)
    assert traj.admitted and all(type(y) is float for y in traj.admitted)
    for c in traj.checkpoints:
        got = [c.x1, c.xk, *c.extra.values()]
        if rule.p is not None:
            got += [c.q_p] + ([c.gap] if rule.tau is not None else [])
        assert all(type(x) is float for x in got)
        assert type(c.k) is int and type(c.steps) is int
