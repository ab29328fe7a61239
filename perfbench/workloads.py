"""The benchmark's tasks, their inputs and the checks on their outputs.

Three families of tasks drive admitlab's public functions:

* ``grow``: growing-group runs through the user's path,
  ``cli.parse_config`` -> ``cli.run_experiment`` -> ``cli.emit_outputs``;
* ``checkers``: the statistical checkers at the shape of the acceptance
  gate (criteria 01, 08 and 14);
* ``committee``: the exact fixed-size engine (fuzz, removal schedule,
  replay, tightness and immunity constructions).

A workload runs its own family at full size.  Every result line carries
every end-to-end metric, so a workload also runs the other two families at
the small probe sizes below, interleaved in the same rounds.  Each task is
one operation (one timed call into the program).  Inputs depend only on the
run's seed: task number i of a run with seed s uses seed 100*s + i.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref

FAMILIES = ("grow", "checkers", "committee")

# grow: config documents; the sizes are (full, probe)
GROW = {
    "majority": ({"rule": "majority", "initial": [0.25], "log_admitted": True},
                 "accepted", (50_000, 25_000), "majority_members_per_s"),
    "veto": ({"rule": {"kind": "veto", "r": 0.25}},
             "accepted", (50_000, 25_000), "veto_members_per_s"),
    "jump": ({"rule": {"kind": "veto", "r": 0.75}, "mode": "jump",
              "log_admitted": True},
             "accepted", (25_000, 15_000), "jump_members_per_s"),
    "consensus": ({"rule": "consensus", "initial": [0.5]},
                  "raw_budget", (300_000, 100_000), "consensus_steps_per_s"),
}
GROW_REPLAY_K = 20_000          # steps-mode rows replayed bit for bit up to k
JUMP_FINAL_QUANTILE_MAX = {25_000: 0.1, 15_000: 0.15}

# checkers: trials per grid point (full, probe)
MC_QS = (0.2, 0.35, 0.5, 0.65, 0.8)
MC_TRIALS = (100_000, 40_000)
SMOOTH_QS = (0.65, 0.75, 0.85)
SMOOTH_DELTAS = (0.1, 0.2)
SMOOTH_TRIALS = (100_000, 50_000)
PROGRESS_TRIALS = (6, 2)         # per side; the gate runs 200
PROGRESS_ARGS = dict(start_gap=0.1, sigma=0.002, t=5000)
PROGRESS_PASS_MIN = 2 / 3        # of both sides' trials pooled, full size

# committee
FUZZ_ACCEPTED = (5_000, 2_500)
REMOVAL_K = (3, 2)               # schedule generated in the timed task
SCHEDULE_RUNS = (1, 8)           # k=2 takes ~40 ms, so the probe makes eight
REPLAY_K3_PREFIX = 2_000
REPLAY_K2_PROBE_PREFIX = 1_500
TIGHTNESS = (((6, 1), (8, 2), (12, 3)), ((4, 2),))
IMMUNITY_K = (1, 2, 3)
IMMUNITY_WIDTH = 3 << 18         # divisible by 2k for k <= 3

# statistical tolerances (see README: where each comes from)
Z_TOL = 5.0
KS_TOL = {50_000: 0.25, 25_000: 0.3}
VETO_GAP_TOL = {50_000: 0.02, 25_000: 0.03}


@dataclass
class Task:
    """One timed call; `digest` turns its output into (work, key) untimed."""

    name: str
    family: str
    metric: Optional[str]                 # end-to-end rate it feeds
    call: Callable[[], object]
    digest: Callable[[object], tuple]
    check: Callable[[object, object], list]   # (output, key) -> errors


def _seed(seed: int, i: int) -> int:
    return 100 * seed + i


# ------------------------------------------------------------------ grow

def grow_tasks(lab, seed: int, full: bool, outdir: str) -> list[Task]:
    tasks = []
    for i, (name, (doc, size_key, sizes, metric)) in enumerate(GROW.items()):
        size = sizes[0] if full else sizes[1]
        text = json.dumps({"kind": "grow", **doc, size_key: size,
                           "seed": _seed(seed, i)})
        out = os.path.join(outdir, f"grow-{name}")
        tasks.append(Task(name, "grow", metric,
                          _grow_call(lab, text, out),
                          _grow_digest(out, name),
                          _grow_check(json.loads(text), size)))
    return tasks


def _grow_call(lab, text, out):
    def call():
        cfg = lab.cli.parse_config(text)
        record = lab.cli.run_experiment(cfg)
        lab.cli.emit_outputs(record, out, cfg.extra_quantiles)
        return record
    return call


def _grow_digest(out, name):
    def digest(record):
        with open(os.path.join(out, "trajectory.csv")) as fh:
            csv_text = fh.read()
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        s = summary["summary"]
        work = s["raw_steps"] if name == "consensus" else s["accepted"]
        return work, (csv_text, s, summary["verdicts"])
    return digest


def _csv_rows(csv_text: str) -> list[str]:
    lines = csv_text.splitlines()
    if lines[:2] != ["# admitlab-trajectory-v1", "k,steps,q_p,gap,x1,xk"]:
        raise ValueError(f"unexpected CSV header {lines[:2]}")
    return lines[2:]


def _grow_check(doc, size):
    rule = doc["rule"] if isinstance(doc["rule"], str) else doc["rule"]["kind"]
    p = {"majority": 0.5, "consensus": None}.get(rule)
    if rule == "veto":
        p = 1.0 - doc["rule"]["r"]
    initial = doc.get("initial", [1.0])
    tau_p = 0.5 if rule == "majority" else (
        ref.tau(p) if rule == "veto" and p > 0.5 else None)

    def check(record, key):
        errors = []
        csv_text, s, verdicts = key
        rows = _csv_rows(csv_text)
        ks = [int(r.split(",", 1)[0]) for r in rows]
        if not verdicts.get("completed"):
            errors.append("run did not complete")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            errors.append("k column does not rise strictly")
        if ks[-1] != len(initial) + s["accepted"] or s["k"] != ks[-1]:
            errors.append(f"final k {ks[-1]} != initial + accepted")
        if "accepted" in doc and s["accepted"] != size:
            errors.append(f"accepted {s['accepted']} != target {size}")
        if "raw_budget" in doc and s["raw_steps"] != size:
            errors.append(f"raw steps {s['raw_steps']} != budget {size}")
        if rule == "majority" and s["raw_steps"] != s["accepted"]:
            errors.append("majority raw steps differ from accepted")
        if doc.get("mode") == "jump":
            errors += _check_jump(record.trajectory.admitted, initial, p,
                                  rows, s, JUMP_FINAL_QUANTILE_MAX[size])
            return errors
        want = ref.simulate(rule, p, initial, doc["seed"],
                            accepted=doc.get("accepted"),
                            raw_budget=doc.get("raw_budget"),
                            tau_p=tau_p, max_k=GROW_REPLAY_K)
        got = [r for r in rows if int(r.split(",", 1)[0]) <= GROW_REPLAY_K]
        if got != want:
            bad = next((a, b) for a, b in zip(got + [""], want + [""])
                       if a != b)
            errors.append(f"replay mismatch up to k={GROW_REPLAY_K}: "
                          f"program {bad[0]!r}, reference {bad[1]!r}")
        if rule == "majority":
            adm = record.trajectory.admitted
            ks_ref = ref.ks_distance(adm[len(adm) // 2:], ref.triangle_cdf)
            if abs(ks_ref - s["ks_triangle_second_half"]) > 1e-12:
                errors.append(f"KS {s['ks_triangle_second_half']} != "
                              f"recomputed {ks_ref}")
            if not ks_ref <= KS_TOL[size]:
                errors.append(f"KS {ks_ref:.4f} > {KS_TOL[size]}")
        if rule == "veto":
            gap = abs(s["final_q_p"] - tau_p)
            if gap != s["final_gap"] or not gap <= VETO_GAP_TOL[size]:
                errors.append(f"final gap {s['final_gap']} vs tau(0.75): "
                              f"recomputed {gap}, tolerance "
                              f"{VETO_GAP_TOL[size]}")
        return errors
    return check


def _check_jump(admitted, initial, p, rows, s, q_max) -> list:
    """Every admitted value lies in [0, 2q] for the driving quantile q of
    the group just before it; checkpoint rows match the admitted log."""
    errors = []
    group = ref.SortedGroup(initial)
    by_k = {int(r.split(",", 1)[0]): r.split(",")[2:] for r in rows}
    for y in admitted:
        q = group.quantile(p)
        if not 0.0 <= y <= 2.0 * q:
            errors.append(f"admitted {y!r} outside [0, 2q] with q={q!r}")
            break
        group.insert(y)
        row = by_k.get(len(group.xs))
        if row is not None:
            want = [format(group.quantile(p), ".17g"), "",
                    format(group.xs[0], ".17g"), format(group.xs[-1], ".17g")]
            if row != want:
                errors.append(f"row at k={len(group.xs)} {row} != {want}")
                break
    final_q = group.quantile(p)
    if final_q != s["final_q_p"] or not final_q <= q_max:
        errors.append(f"final quantile {s['final_q_p']} (recomputed "
                      f"{final_q}) not <= {q_max}")
    return errors


# --------------------------------------------------------------- checkers

def checker_tasks(lab, seed: int, full: bool) -> list[Task]:
    pick = 0 if full else 1
    majority = lab.rules.RuleSpec("majority")
    veto = lab.rules.RuleSpec("veto", r=0.25)
    mc_trials = MC_TRIALS[pick]
    sm_trials = SMOOTH_TRIALS[pick]
    prog_trials = PROGRESS_TRIALS[pick]

    def mc():
        rng = lab.rng.Rng(_seed(seed, 10))
        return [lab.stats.estimate_interval_accept_prob(
            majority, q, (0.0, q), mc_trials, rng) for q in MC_QS]

    def mc_check(out, key):
        zs = [abs(est - ref.f_majority(q))
              / math.sqrt(ref.f_majority(q) * (1 - ref.f_majority(q))
                          / mc_trials) for q, (est, _) in zip(MC_QS, out)]
        return [] if max(zs) <= Z_TOL else [f"criterion-01 z {max(zs):.2f}"]

    def smooth():
        return lab.stats.smoothness_report(
            veto, list(SMOOTH_QS), list(SMOOTH_DELTAS), sm_trials,
            lab.rng.Rng(_seed(seed, 11)))

    def smooth_check(rep, key):
        errors = []
        # the certificate's first-bin test misfires with chance 5e-5 at
        # the probe size and 6e-6 at full size: only the latter is held
        if full and not rep.passed:
            errors.append("smoothness certificate failed")
        for q, fh, se in rep.f_hat:
            if abs(fh - ref.f_veto(q)) > Z_TOL * se:
                errors.append(f"f_hat({q})={fh} vs f_veto={ref.f_veto(q)}")
        nbins = sum(round(1 / d) for d in SMOOTH_DELTAS) * len(SMOOTH_QS)
        if len(rep.intervals) != nbins:
            errors.append(f"{len(rep.intervals)} certificate rows, "
                          f"want {nbins}")
        return errors

    def progress():
        return [lab.stats.quantile_progress_test(
            majority, lab.oracles.majority_context(),
            PROGRESS_ARGS["start_gap"], PROGRESS_ARGS["sigma"],
            PROGRESS_ARGS["t"], prog_trials, lab.rng.Rng(_seed(seed, i)),
            side=side) for side, i in (("right", 12), ("left", 13))]

    def progress_check(sides, key):
        # the pilot's trials fail one time in 60 (gain below the required
        # members), so the gate's 0.9 per side is out of reach of a few
        # trials; both sides are pooled and checked at full size only
        passed = sum(round(r.pass_fraction * r.trials) for r in sides)
        if any(r.trials != prog_trials for r in sides) or (
                full and passed < PROGRESS_PASS_MIN * 2 * prog_trials):
            return [f"progress passed {passed:g} of {2 * prog_trials}"]
        return []

    return [
        Task("mc", "checkers", "mc_samples_per_s", mc,
             lambda out: (mc_trials * len(MC_QS), [e for e, _ in out]),
             mc_check),
        Task("smoothness", "checkers", "smoothness_samples_per_s", smooth,
             lambda rep: (sm_trials * len(SMOOTH_QS),
                          (rep.passed, [tuple(map(float, r))
                                        for r in rep.f_hat])),
             smooth_check),
        Task("progress", "checkers", "progress_trials_per_s", progress,
             lambda sides: (sum(r.trials for r in sides),
                            [(r.pass_fraction, r.details) for r in sides]),
             progress_check),
    ]


# -------------------------------------------------------------- committee

class CommitteeInputs:
    """Profiles and the k=2 removal schedule, built before timing."""

    def __init__(self, lab):
        self.removal = {k: lab.committee.Committee(list(range(1, 4 * k + 4)),
                                                   ell=k + 1)
                        for k in (2, 3)}
        self.schedule_k2 = lab.adversaries.removal_schedule(self.removal[2])
        self.immunity = [lab.adversaries.immunity_config(
            k, 1, IMMUNITY_WIDTH, IMMUNITY_WIDTH) for k in IMMUNITY_K]
        self.schedules = {}      # filled by the timed schedule task


def committee_tasks(lab, seed: int, full: bool,
                    inputs: CommitteeInputs) -> list[Task]:
    pick = 0 if full else 1
    adv = lab.adversaries
    target = FUZZ_ACCEPTED[pick]
    k_sched = REMOVAL_K[pick]

    def fuzz(n, ell, consensus, i):
        def call():
            return adv.committee_fuzz(n, ell, target,
                                      lab.rng.Rng(_seed(seed, i)),
                                      consensus_checks=consensus)
        return call

    def fuzz_digest(rep):
        return rep.accepted, (rep.accepted, rep.epochs, rep.median_moves,
                              rep.clean)

    def fuzz_check(rep, key):
        if rep.clean and rep.accepted == target and rep.epochs >= 1:
            return []
        return [f"fuzz report {rep}"]

    def schedule():
        runs = [adv.removal_schedule(inputs.removal[k_sched])
                for _ in range(SCHEDULE_RUNS[pick])]
        inputs.schedules[k_sched] = runs[0]
        return runs

    def schedule_check(runs, key):
        n = inputs.removal[k_sched].n
        s = runs[0]
        if not s.steps or any(i not in (1, n) for i, _ in s.steps):
            return ["removal schedule steps outside positions 1 and n"]
        if any(r.steps != s.steps for r in runs[1:]):
            return ["removal schedules differ between calls"]
        return []

    def replay(k, prefix):
        def call():
            sched = inputs.schedule_k2 if k == 2 else inputs.schedules[k]
            if prefix is not None:
                sched = adv.ReplacementSchedule(sched.steps[:prefix],
                                                sched.provenance)
            return sched, adv.replay(inputs.removal[k], sched,
                                     require_votes=3 * k + 2)
        return call

    def replay_check(k, whole):
        def check(out, key):
            sched, res = out
            start = inputs.removal[k]
            counts, final = ref.replay_profile(start.values, sched.steps)
            errors = []
            if not res.accepted_all:
                errors.append(f"k={k} replay failed at step {res.failed_at}")
            if res.vote_counts != counts:
                errors.append(f"k={k} vote counts differ from brute force")
            if list(res.committee.values) != final:
                errors.append(f"k={k} final profile differs from brute force")
            if whole and set(start.ids) & set(res.committee.ids):
                errors.append(f"k={k} removal left original ids")
            return errors
        return check

    def replay_digest(out):
        sched, res = out
        return len(sched.steps), (res.accepted_all, res.vote_counts)

    tasks = [
        Task("fuzz_drift", "committee", "fuzz_replacements_per_s",
             fuzz(11, 2, False, 20), fuzz_digest, fuzz_check),
        Task("fuzz_consensus", "committee", "fuzz_replacements_per_s",
             fuzz(5, 2, True, 21), fuzz_digest, fuzz_check),
        Task("schedule", "committee", "schedule_steps_per_s", schedule,
             lambda runs: (sum(len(r.steps) for r in runs),
                           hash(tuple(runs[0].steps))), schedule_check),
    ]
    if full:
        tasks += [
            Task("replay_k2", "committee", "replay_steps_per_s",
                 replay(2, None), replay_digest, replay_check(2, True)),
            Task("replay_k3", "committee", "replay_steps_per_s",
                 replay(3, REPLAY_K3_PREFIX), replay_digest,
                 replay_check(3, False)),
        ]
    else:
        tasks.append(Task("replay", "committee", "replay_steps_per_s",
                          replay(2, REPLAY_K2_PROBE_PREFIX), replay_digest,
                          replay_check(2, False)))
    for k, ell in TIGHTNESS[pick]:
        tasks.append(Task(
            f"tightness_{k}_{ell}", "committee", None,
            lambda k=k, ell=ell: adv.geometric_tightness_run(k, ell),
            lambda tr: (len(tr.schedule.steps), tr.bound_ratio),
            lambda tr, key: [] if 0 < tr.bound_ratio <= 1 else
            [f"tightness ratio {tr.bound_ratio} outside (0, 1]"]))

    def immunity():
        return [adv.one_step_irreplaceable(c, 2 * k + 2)
                for k, c in zip(IMMUNITY_K, inputs.immunity)]

    def immunity_check(out, key):
        errors = []
        for k, c, (irr, votes, _) in zip(IMMUNITY_K, inputs.immunity, out):
            brute = ref.max_votes_against(c.values, 2 * k + 2)
            if not irr or votes != brute or brute >= c.threshold:
                errors.append(f"immunity k={k}: irreplaceable={irr}, "
                              f"votes {votes}, brute force {brute}, "
                              f"threshold {c.threshold}")
        return errors

    tasks.append(Task("immunity", "committee", None, immunity,
                      lambda out: (len(out), [(a, b) for a, b, _ in out]),
                      immunity_check))
    return tasks


def build_tasks(lab, workload: str, seed: int, outdir: str) -> list[Task]:
    """The workload's own family at full size, then the probes."""
    inputs = CommitteeInputs(lab)
    builders = {
        "grow": lambda full: grow_tasks(lab, seed, full, outdir),
        "checkers": lambda full: checker_tasks(lab, seed, full),
        "committee": lambda full: committee_tasks(lab, seed, full, inputs),
    }
    tasks = builders[workload](True)
    for family in FAMILIES:
        if family != workload:
            tasks += builders[family](False)
    return tasks
