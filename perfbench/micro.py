"""Layer microbenchmarks for the traced run.

Per-operation layers (generator draws, GroupState operations, rule
decisions, committee votes) are called inside the engine and fuzz loops, so
spans cannot time them without slowing those loops; they are timed here in
isolation instead.  Inputs come from the same seeds the workloads use: the
``triangle`` group is the admitted members of the ``grow`` majority task,
``uniform`` is that task's own candidate stream, ``collapsed`` puts 97% of
its members below 2^-12 using the jump task's stream, ``int11`` is the
first fuzz epoch's profile and ``frac15`` is the k=3 removal committee
part-way through its schedule.
"""

from __future__ import annotations

import statistics
import time

from workloads import GROW, REPLAY_K3_PREFIX, _seed

GROUP_K = 25_000          # members when the queries are timed
GROUP_EXTRA = 2_000       # members inserted on top, timing insert
SHAPE_P = {"uniform": 0.75, "triangle": 0.75, "collapsed": 0.1}
# a veto r=0.9 jump group at 25,001 members holds 24,222 below 2^-12; such
# runs raise on some seeds (see CHANGES.md), so the shape is drawn directly
COLLAPSED_SHARE = 0.97
COLLAPSED_WIDTH = 2.0 ** -12
REPS = 5


def _per_op(fn, n_ops: int, scale: float) -> float:
    """Median over REPS runs of fn()'s time per operation, times `scale`."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / n_ops * scale


def _admitted(lab, task: str, seed: int, accepted: int) -> list:
    doc = GROW[task][0]
    rule = (lab.rules.RuleSpec("majority") if doc["rule"] == "majority" else
            lab.rules.RuleSpec("veto", r=doc["rule"]["r"]))
    group = lab.group.GroupState(doc.get("initial", [1.0]))
    traj = lab.engine.run(group, rule, lab.rng.Rng(seed),
                          accepted_target=accepted, log_admitted=True,
                          mode=doc.get("mode", "steps"))
    return traj.admitted


def layer_metrics(lab, seed: int, frac_schedule) -> dict:
    """name -> (value, unit) for every microbenchmarked layer metric."""
    m = {}
    n = GROUP_K + GROUP_EXTRA
    maj_seed = _seed(seed, list(GROW).index("majority"))
    jump_seed = _seed(seed, list(GROW).index("jump"))
    u = list(lab.rng.Rng(jump_seed).uniform_block(2 * n))
    shapes = {
        "uniform": list(lab.rng.Rng(maj_seed).uniform_block(n)),
        "triangle": _admitted(lab, "majority", maj_seed, n),
        "collapsed": [a * COLLAPSED_WIDTH if b < COLLAPSED_SHARE else a
                      for a, b in zip(u[0::2], u[1::2])],
    }

    rng = lab.rng.Rng(maj_seed)
    m["rng.uniform_ns"] = (_per_op(
        lambda: [rng.uniform() for _ in range(50_000)], 50_000, 1e9), "ns")
    m["rng.block_ns_per_draw"] = (_per_op(
        lambda: rng.uniform_block(65_536), 65_536, 1e9), "ns")
    m["rng.split_us"] = (_per_op(
        lambda: [rng.split(i) for i in range(5_000)], 5_000, 1e6), "us")

    groups = {}
    for shape, vals in shapes.items():
        base, extra = vals[:GROUP_K], vals[GROUP_K:]
        g = lab.group.GroupState(base)
        p = SHAPE_P[shape]
        m[f"group.median_ns.{shape}"] = (_per_op(
            lambda: [g.median() for _ in range(20_000)], 20_000, 1e9), "ns")
        m[f"group.quantile_ns.{shape}"] = (_per_op(
            lambda: [g.quantile(p) for _ in range(20_000)], 20_000, 1e9),
            "ns")
        m[f"group.count_interval_ns.{shape}"] = (_per_op(
            lambda: [g.count_interval(a, a + 0.002, "closed")
                     for a in extra], len(extra), 1e9), "ns")
        times = []
        for _ in range(REPS):
            fresh = lab.group.GroupState(base)
            t = time.perf_counter()
            for x in extra:
                fresh.insert(x)
            times.append(time.perf_counter() - t)
        m[f"group.insert_ns.{shape}"] = (
            statistics.median(times) / len(extra) * 1e9, "ns")
        groups[shape] = g

    tri = groups["triangle"]
    u = shapes["uniform"]
    pairs = [lab.rules.CandidatePair(a, b) for a, b in zip(u[0::2], u[1::2])]
    for kind, rule in (("majority", lab.rules.RuleSpec("majority")),
                       ("veto", lab.rules.RuleSpec("veto", r=0.25))):
        m[f"rules.decide_ns.{kind}"] = (_per_op(
            lambda: [lab.rules.decide(rule, tri, pr) for pr in pairs],
            len(pairs), 1e9), "ns")
    cdf = lab.oracles.triangle_cdf
    m["oracles.triangle_cdf_ns"] = (_per_op(
        lambda: [cdf(x) for x in shapes["triangle"]], n, 1e9), "ns")

    m.update(_committee_metrics(lab, seed, frac_schedule))
    return m


def _legal_moves(lab, c) -> list:
    """One integer candidate inside each legal interval of each member.

    Intervals run from x_i to a reflection 2x_j - x_i, so their midpoint is
    a member; a third of the way along is not.
    """
    moves = []
    for i in range(1, c.n + 1):
        for lo, hi in lab.adversaries.legal_intervals(c, i):
            y = lo + (hi - lo) // 3
            if lo <= y <= hi and y not in c.values:
                moves.append((i, y))
    return moves


def _committee_metrics(lab, seed: int, frac_schedule) -> dict:
    m = {}
    Committee = lab.committee.Committee
    rng = lab.rng.Rng(_seed(seed, 20))       # the n=11 fuzz task's stream
    vals: set = set()
    while len(vals) < 11:
        vals.add(int(rng.uniform() * (1 << 24)))
    int11 = Committee(sorted(vals), ell=2)
    moves = _legal_moves(lab, int11)
    calls = moves * (2_000 // len(moves) + 1)
    m["committee.vote_count_us.int11"] = (_per_op(
        lambda: [int11.vote_count(i, y) for i, y in calls], len(calls), 1e6),
        "us")
    m["committee.replace_attempt_us.int11"] = (_per_op(
        lambda: [int11.replace_attempt(i, y) for i, y in calls], len(calls),
        1e6), "us")
    members = list(range(1, 12)) * 100
    m["adversaries.legal_intervals_us"] = (_per_op(
        lambda: [lab.adversaries.legal_intervals(int11, i) for i in members],
        len(members), 1e6), "us")

    # a chain of accepted replacements, scaled up so integer candidates last
    start = Committee([v << 24 for v in sorted(vals)], ell=2)
    chain = [start]
    while len(chain) < 300:
        moves = _legal_moves(lab, chain[-1])
        if not moves:
            break
        i, y = moves[len(chain) * 7 % len(moves)]
        chain.append(chain[-1].replace_attempt(i, y)[1])
    steps = list(zip(chain, chain[1:]))
    moved = [(a, b) for a, b in steps if a.median() != b.median()] or steps
    drift, shift = lab.committee.drift_bound_check, lab.committee.shift_lemma_check
    m["committee.drift_check_us"] = (_per_op(
        lambda: [drift(start, b) for _, b in steps], len(steps), 1e6), "us")
    m["committee.shift_check_us"] = (_per_op(
        lambda: [shift(a, b) for a, b in moved], len(moved), 1e6), "us")

    frac = Committee(list(range(1, 16)), ell=4)
    for i, y in frac_schedule.steps[:REPLAY_K3_PREFIX]:
        frac = frac.replace_attempt(i, y)[1]
    nxt = frac_schedule.steps[REPLAY_K3_PREFIX:REPLAY_K3_PREFIX + 500]
    m["committee.vote_count_us.frac15"] = (_per_op(
        lambda: [frac.vote_count(i, y) for i, y in nxt], len(nxt), 1e6),
        "us")

    def replace_run():
        c = frac
        for i, y in nxt:
            c = c.replace_attempt(i, y)[1]
    m["committee.replace_attempt_us.frac15"] = (
        _per_op(replace_run, len(nxt), 1e6), "us")
    return m
