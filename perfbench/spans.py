"""Spans around the calls into each admitlab layer, kept in memory.

The tracer wraps the module or class attribute that callers resolve (for
example both ``cli.engine_run`` and ``engine.run``); no source file of the
program changes.  A span has a name, start, end, parent and optional
counts taken from the call's result.
"""

from __future__ import annotations

import functools
import os
import statistics
import time


class Tracer:
    """Spans of one run, in order of opening; wrapped attributes to restore."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr by a traced call; `counts(args, result)`
        returns a dict of counts stored on the span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span["counts"] = counts(args, out)
            return out

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, orig))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def install(self, lab) -> None:
        """Wrap the layer boundaries the benchmark's tasks cross."""
        def traj(args, t):
            return {"raw_steps": t.raw_steps, "accepted": t.accepted,
                    "checkpoints": len(t.checkpoints)}

        def csv_bytes(args, paths):
            return {"csv_bytes": sum(os.path.getsize(p) for p in paths
                                     if p.endswith(".csv"))}

        w = self.wrap
        w(lab.cli, "parse_config", "cli.parse_config")
        w(lab.cli, "run_experiment", "cli.run_experiment")
        w(lab.cli, "emit_outputs", "cli.emit_outputs", csv_bytes)
        w(lab.cli, "engine_run", "engine.run", traj)
        w(lab.engine, "run", "engine.run", traj)
        w(lab.stats, "ks_distance", "stats.ks_distance",
          lambda a, r: {"samples": len(a[0])})
        w(lab.stats, "estimate_interval_accept_prob", "stats.frozen_mc")
        w(lab.stats, "smoothness_report", "stats.smoothness")
        w(lab.stats, "quantile_progress_test", "stats.progress")
        w(lab.rng.Rng, "split", "rng.split")
        w(lab.adversaries, "committee_fuzz", "adversaries.fuzz",
          lambda a, r: {"accepted": r.accepted, "epochs": r.epochs})
        w(lab.adversaries, "removal_schedule", "adversaries.schedule",
          lambda a, r: {"steps": len(r.steps)})
        w(lab.adversaries, "replay", "adversaries.replay",
          lambda a, r: {"steps": len(r.vote_counts)})
        w(lab.adversaries, "geometric_tightness_run", "adversaries.tightness")
        w(lab.adversaries, "one_step_irreplaceable", "adversaries.immunity")

    def within(self, root: dict) -> list[dict]:
        """Spans below `root` (its descendants)."""
        inside = {root["id"]}
        out = []
        for s in self.spans[root["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out


def _total(spans, name, field=None):
    picked = [s for s in spans if s["name"] == name]
    if field is None:
        return sum(s["end"] - s["start"] for s in picked)
    return sum(s.get("counts", {}).get(field, 0) for s in picked)


def span_metrics(tracer: Tracer, rounds, grow_tasks) -> dict:
    """name -> (value, unit): per traced round, then the median over rounds.

    `rounds` hold the traced rounds' task spans; engine metrics are kept
    per grow task, the other layers summed over the round.
    """
    per_round = []
    for r in rounds:
        m = {}
        inside = {t: tracer.within(s) for t, s in r.task_spans.items()}
        for task in grow_tasks:
            spans = inside[task]
            raw = _total(spans, "engine.run", "raw_steps")
            acc = _total(spans, "engine.run", "accepted")
            m[f"engine.run_s.{task}"] = (_total(spans, "engine.run"), "s")
            m[f"engine.raw_steps.{task}"] = (raw, "count")
            m[f"engine.accepted.{task}"] = (acc, "count")
            m[f"engine.checkpoints.{task}"] = (
                _total(spans, "engine.run", "checkpoints"), "count")
            m[f"engine.accept_ratio.{task}"] = (acc / raw, "ratio")
        spans = [s for group in inside.values() for s in group]
        parses = [s["end"] - s["start"] for s in spans
                  if s["name"] == "cli.parse_config"]
        m["cli.parse_us"] = (statistics.median(parses) * 1e6, "us")
        m["cli.emit_s"] = (_total(spans, "cli.emit_outputs"), "s")
        m["cli.csv_bytes"] = (_total(spans, "cli.emit_outputs", "csv_bytes"),
                              "bytes")
        m["stats.ks_s"] = (_total(spans, "stats.ks_distance"), "s")
        m["stats.ks_samples"] = (
            _total(spans, "stats.ks_distance", "samples"), "count")
        for name in ("frozen_mc", "smoothness", "progress"):
            m[f"stats.{name}_s"] = (_total(spans, f"stats.{name}"), "s")
        for name in ("fuzz", "schedule", "replay", "tightness"):
            m[f"adversaries.{name}_s"] = (
                _total(spans, f"adversaries.{name}"), "s")
        m["adversaries.fuzz_accepted"] = (
            _total(spans, "adversaries.fuzz", "accepted"), "count")
        m["adversaries.fuzz_epochs"] = (
            _total(spans, "adversaries.fuzz", "epochs"), "count")
        m["adversaries.replay_steps"] = (
            _total(spans, "adversaries.replay", "steps"), "count")
        per_round.append(m)
    return {name: (statistics.median(m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()}
