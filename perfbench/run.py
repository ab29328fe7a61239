"""admitlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports admitlab from its
``src`` directory.  Single process, main thread only.  Rounds of the
workload's tasks repeat for about ``--seconds``; every round first
imports admitlab afresh and builds its inputs (timed as set-up), then makes
the same calls on the same inputs.  The first round's outputs are checked
against the reference code in this directory, and every later round must
reproduce them exactly.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds, reports per-layer
metrics from the traced rounds' spans plus layer microbenchmarks, and
writes the spans to ``perfbench/out/trace-<workload>-<seed>.json``.
See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
import micro  # noqa: E402
from spans import Tracer, span_metrics  # noqa: E402

LAYERS = ("rng", "group", "rules", "engine", "oracles", "stats", "committee",
          "adversaries", "experiments", "cli")
CALIB_STEPS = 8192
CALIB_NOMINAL_S = 0.0115      # box_speed()'s work at this box's median speed
RATE_UNITS = {
    "majority_members_per_s": "members/s", "veto_members_per_s": "members/s",
    "jump_members_per_s": "members/s", "consensus_steps_per_s": "steps/s",
    "mc_samples_per_s": "samples/s", "smoothness_samples_per_s": "samples/s",
    "progress_trials_per_s": "trials/s",
    "fuzz_replacements_per_s": "replacements/s",
    "schedule_steps_per_s": "steps/s", "replay_steps_per_s": "steps/s",
}


class Lab:
    """admitlab's layer modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "admitlab" or m.startswith("admitlab.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"admitlab.{layer}"))
        where = os.path.dirname(os.path.abspath(self.cli.__file__))
        if where != os.path.join(SRC, "admitlab"):
            raise ImportError(f"admitlab imported from {where}, not {SRC}")


def box_speed() -> float:
    """Time of a fixed stretch of pure-Python work over its nominal time.

    Above 1 the box is running slow.  The work is reference xoshiro draws,
    which share nothing with admitlab's code.
    """
    x = ref.Xoshiro(0)
    t = time.perf_counter()
    for _ in range(CALIB_STEPS):
        x.next_u64()
    return (time.perf_counter() - t) / CALIB_NOMINAL_S


class Round:
    """One pass over the tasks: times, work, digests, failures.

    The box speed is measured before the set-up and after every task; each
    time is divided by the round's mean speed, which removes the slow
    drifts in this box's speed (see README: run-to-run spread).
    """

    def __init__(self, workload, seed, outdir, tracer=None):
        self.speeds = [box_speed()]
        t = time.perf_counter()
        self.lab = Lab()
        self.tasks = workloads.build_tasks(self.lab, workload, seed, outdir)
        self.raw_setup = time.perf_counter() - t
        if tracer is not None:
            tracer.install(self.lab)
        self.raw, self.work, self.keys = [], [], []
        self.outputs, self.failed, self.task_spans = [], [], {}
        try:
            for task in self.tasks:
                span = None
                if tracer is not None:
                    span = self.task_spans[task.name] = tracer.open(
                        f"task.{task.name}")
                t = time.perf_counter()
                try:
                    out = task.call()
                except Exception:
                    out = None
                    self.failed.append(task.name)
                    traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - t
                if span is not None:
                    tracer.close(span)
                self.speeds.append(box_speed())
                work, key = task.digest(out) if out is not None else (0, None)
                self.raw.append(dt)
                self.work.append(work)
                self.keys.append(key)
                self.outputs.append(out)
        finally:
            if tracer is not None:
                tracer.restore()
        speed = statistics.mean(self.speeds)
        self.setup = self.raw_setup / speed
        self.times = [dt / speed for dt in self.raw]
        self.names = [task.name for task in self.tasks]
        self.metrics = [task.metric for task in self.tasks]
        own = [task.family == workload for task in self.tasks]
        self.own = sum(dt for dt, o in zip(self.times, own) if o)
        self.raw_own = sum(dt for dt, o in zip(self.raw, own) if o)

    def release(self) -> None:
        """Drop the tasks, their inputs and outputs once checked."""
        self.tasks = self.outputs = None

    def check(self) -> list[str]:
        errors = []
        for task, out, key in zip(self.tasks, self.outputs, self.keys):
            if key is not None:
                errors += [f"{task.name}: {e}" for e in task.check(out, key)]
        return errors


def end_to_end(rounds, raw=False) -> dict:
    """name -> (value, unit).  Rates are the run's total work over its
    total time; set-up and own-task times are medians over rounds.  `raw`
    skips the speed correction."""
    work, busy = {}, {}
    for r in rounds:
        for metric, w, dt, key in zip(r.metrics, r.work,
                                      r.raw if raw else r.times, r.keys):
            if metric is not None and key is not None:
                work[metric] = work.get(metric, 0) + w
                busy[metric] = busy.get(metric, 0.0) + dt
    metrics = {
        "setup_s": (statistics.median(
            r.raw_setup if raw else r.setup for r in rounds), "s"),
        "wall_s": (statistics.median(
            r.raw_own if raw else r.own for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024, "MB"),
    }
    for name, unit in RATE_UNITS.items():
        if name not in work:
            raise RuntimeError(f"no successful task measured {name}")
        metrics[name] = (work[name] / busy[name], unit)
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool,
        outdir: str) -> dict:
    """Rounds until about `seconds` have passed; then metrics."""
    rounds, traced_rounds = [], []
    tracer = Tracer() if traced else None
    errors = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        new = [Round(workload, seed, outdir)]
        if traced:
            new.append(Round(workload, seed, outdir, tracer))
            traced_rounds.append(new[1])
        rounds.append(new[0])
        took = time.perf_counter() - t
        if len(rounds) == 1:
            errors += new[0].check()
        for r in new:
            for name, key, want in zip(r.names, r.keys, rounds[0].keys):
                if key is not None and want is not None and key != want:
                    errors.append(f"{name}: output differs from the first "
                                  "round's on the same inputs")
            r.release()
        if time.perf_counter() - start + took / 2 > seconds:
            break
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    all_rounds = rounds + traced_rounds
    result = {
        "correct": not errors,
        "attempted": sum(len(r.names) for r in all_rounds),
        "failed": sum(len(r.failed) for r in all_rounds),
    }
    if not traced:
        metrics = end_to_end(rounds)
        raw = end_to_end(rounds, raw=True)
        print(json.dumps({
            "box_speed": statistics.median(
                s for r in rounds for s in r.speeds),
            "uncorrected": {k: v for k, (v, _) in raw.items()}}))
    else:
        overhead = (statistics.median(r.own for r in traced_rounds)
                    / statistics.median(r.own for r in rounds) - 1) * 100
        metrics = span_metrics(tracer, traced_rounds, list(workloads.GROW))
        metrics["trace.overhead_pct"] = (overhead, "%")
        lab = rounds[-1].lab
        schedule = lab.adversaries.removal_schedule(
            lab.committee.Committee(list(range(1, 16)), ell=4))
        metrics.update(micro.layer_metrics(lab, seed, schedule))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "spans": tracer.spans}, fh)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.FAMILIES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ref.self_check()
    try:
        Lab()
    except ImportError as e:
        print(f"cannot import admitlab from {SRC}: {e}", file=sys.stderr)
        return 2
    outdir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
