"""Experiment orchestration: config parsing, runners, outputs, verify suites.

Configs are JSON documents; trajectories come out as CSV and summaries as
JSON.  A run is a pure function of its config bytes: rerunning a config
byte-identically reproduces its outputs.  Only the randomized kinds, grow
and committee, take a seed; `verify` runs the acceptance criteria
registered in `experiments` on their own committed seeds.

A kind's keys are the keys its parser reads: each kind has one parser, and
a key it did not read (say `ell` for the removal construction, or `p` for an
oracle that takes none) is a ConfigError that names it.

Subcommands: grow, committee, adversary, oracle, verify, sweep, replay; each
runs only configs of its own kind.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import adversaries, oracles, stats
from .committee import Committee
from .engine import run as engine_run
from .experiments import CRITERIA
from .group import GroupState
from .records import Record
from .rng import Rng
from .rules import KINDS, RuleSpec

class ConfigError(ValueError):
    """Schema violation, tagged with the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fmt(x) -> str:
    """17 significant digits: round-trips any 64-bit float."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class ExperimentConfig(SimpleNamespace):
    """kind, seed, raw (the document) and the values its parser returned."""


class _Doc(dict):
    """A config document that records each key read through `get`."""

    def __init__(self, doc: dict):
        super().__init__(doc)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# the kinds whose runs draw random numbers; no other kind takes a seed
_SEEDED = ("grow", "committee")


def _json_object(text: str) -> dict:
    """The JSON object in `text`; anything else is a ConfigError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("$", f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    return doc


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config document with its kind's parser.  A key the
    parser did not read is rejected, the first in sorted order named."""
    doc = _Doc(_json_object(text))
    kind = _choice(doc, "kind", _KINDS)
    seed = _int_field(doc, "seed", required=True) if kind in _SEEDED else None
    values = _KINDS[kind][0](doc)
    key = min(doc.keys() - doc.read, default=None)
    if key is not None:
        raise ConfigError(key, f"{kind} runs take no seed" if key == "seed"
                          else "not a key this run reads")
    return ExperimentConfig(kind=kind, seed=seed, raw=dict(doc), **values)


def _choice(doc: dict, key: str, options, default=None) -> str:
    """doc[key], which must be one of the names in `options`."""
    value = doc.get(key, default)
    if not isinstance(value, str) or value not in options:
        raise ConfigError(key, f"must be one of {sorted(options)}, "
                               f"got {value!r}")
    return value


def _int_field(doc: dict, key: str, minimum: Optional[int] = None,
               maximum: Optional[int] = None, required: bool = False,
               default: Optional[int] = None):
    """doc[key] as an integer in [minimum, maximum], or `default` when the
    key is absent or null.

    JSON true/false are rejected although bool is an int subclass."""
    value = doc.get(key)
    if value is None:
        if required:
            raise ConfigError(key, "a mandatory integer")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(key, f"must be <= {maximum}, got {value}")
    return value


def _ell_field(doc: dict, n: int) -> int:
    """doc["ell"] for a committee of n members: 0 <= ell <= (n-1)/2."""
    return _int_field(doc, "ell", minimum=0, maximum=(n - 1) // 2,
                      required=True)


def _bool_field(doc: dict, key: str) -> bool:
    """doc[key] as a JSON true/false, False when the key is absent."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(key, f"must be true or false, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number; true/false are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _exact(value, key: str):
    """An exact rational, given as an int or a "num/den" string; ints stay
    ints, strings become Fractions.  JSON floats and true/false are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(key, f'must be an integer or a "num/den" string, '
                               f'got {value!r}')
    if isinstance(value, int):
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(key, f"not an exact rational: {value!r}") from None


def _rational(value, key: str):
    """`_exact`, restricted to positive values."""
    x = _exact(value, key)
    if x <= 0:
        raise ConfigError(key, f"must be positive, got {value!r}")
    return x


def _rational_field(doc: dict, key: str, default):
    """doc[key] through `_rational`, or `default` when the key is absent."""
    value = doc.get(key)
    return default if value is None else _rational(value, key)


# ------------------------------------------------------- one parser per kind

def _grow(doc: dict) -> dict:
    rule = _parse_rule(doc.get("rule"))
    mode = _choice(doc, "mode", ("steps", "jump"), default="steps")
    if mode == "jump" and rule.kind != "veto":
        raise ConfigError("mode", "jump mode is veto-only")
    accepted = _int_field(doc, "accepted", minimum=1)
    raw_budget = _int_field(doc, "raw_budget", minimum=1)
    if accepted is None and raw_budget is None:
        raise ConfigError("accepted", "need accepted or raw_budget")
    extra = doc.get("extra_quantiles", [])
    if not isinstance(extra, list):
        raise ConfigError("extra_quantiles", "must be a list")
    for q in extra:
        if not _is_number(q) or not 0.0 <= q <= 1.0:
            raise ConfigError("extra_quantiles", f"{q!r} outside [0, 1]")
    gap_bound = doc.get("assert_final_gap_below")
    if gap_bound is not None:
        if not _is_number(gap_bound) or not gap_bound > 0:
            raise ConfigError("assert_final_gap_below",
                              "must be a positive number")
        if rule.tau is None:
            raise ConfigError("assert_final_gap_below",
                              "the rule has no fixed-point gap")
        gap_bound = float(gap_bound)
    return {"rule": rule, "initial": _parse_initial(doc.get("initial"), rule),
            "accepted": accepted, "raw_budget": raw_budget, "mode": mode,
            "log_admitted": _bool_field(doc, "log_admitted"),
            "extra_quantiles": tuple(extra),
            "assert_final_gap_below": gap_bound}


def _parse_rule(node) -> RuleSpec:
    node = {"kind": node} if isinstance(node, str) else node
    if not isinstance(node, dict):
        raise ConfigError("rule", "must be an object or rule name")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError("rule.kind", f"unknown rule kind {kind!r}")
    allowed = {"kind", "r"} if kind == "veto" else {"kind"}
    unknown = sorted(node.keys() - allowed)
    if unknown:
        raise ConfigError(f"rule.{unknown[0]}", "unknown key")
    if kind != "veto":
        return RuleSpec(kind)
    r = node.get("r")
    if not _is_number(r) or not 0.0 < r < 1.0:
        raise ConfigError("rule.r", f"must be in (0, 1), got {r!r}")
    return RuleSpec("veto", r=float(r))


def _parse_initial(node, rule: RuleSpec) -> list:
    if node is None:
        # rule-specific defaults: veto starts from the founder at 1
        if rule.kind == "veto":
            return [1.0]
        if rule.kind == "majority":
            return [0.5]
        raise ConfigError("initial", "consensus runs need an explicit group")
    if not isinstance(node, list) or not node:
        raise ConfigError("initial", "must be a non-empty list")
    for v in node:
        if not _is_number(v) or not 0.0 <= v <= 1.0:
            raise ConfigError("initial", f"opinion {v!r} outside [0, 1]")
    return [float(v) for v in node]


def _committee(doc: dict) -> dict:
    # the fuzz draws distinct values from 2^_VALUE_BITS
    n = _int_field(doc, "n", minimum=3,
                   maximum=1 << adversaries._VALUE_BITS, required=True)
    if n % 2 == 0:
        # drift/potential monitors are stated for odd sizes only
        raise ConfigError("n", "monitored committee runs require odd n")
    return {"n": n, "ell": _ell_field(doc, n),
            "steps": _int_field(doc, "steps", minimum=1, default=1000),
            "consensus_checks": _bool_field(doc, "consensus_checks")}


def _adversary(doc: dict) -> dict:
    """Each construction reads its own keys: drift `initial` (else `n`) and
    `target_displacement`; removal `k`; tightness `k` and `ell`; immunity
    `k`, `ell`, `d` and `D`."""
    c = _choice(doc, "construction",
                ("drift", "tightness", "immunity", "removal"))
    if c == "drift":
        return {"construction": c, "initial": _drift_profile(doc),
                "target_displacement":
                _rational_field(doc, "target_displacement", 100)}
    k = _int_field(doc, "k", minimum=1, required=True)
    if c == "removal":
        return {"construction": c, "k": k}
    ell = _int_field(doc, "ell", minimum=1, maximum=k, required=True)
    if c == "tightness":
        return {"construction": c, "k": k, "ell": ell}
    return {"construction": c, "k": k, "ell": ell,
            "d": _rational_field(doc, "d", 1),
            "D": _rational_field(doc, "D", 1)}


def _drift_profile(doc: dict) -> list:
    """The drift committee: the opinions in `initial`, else 1..n (n = 7 when
    absent); an odd number (>= 3) of distinct values either way."""
    initial = doc.get("initial")
    if initial is None:
        key, values = "n", list(range(1, _int_field(doc, "n", default=7) + 1))
    elif not isinstance(initial, list):
        raise ConfigError("initial", "must be a list")
    else:
        key, values = "initial", [_rational(v, "initial") for v in initial]
    if len(values) < 3 or len(values) % 2 == 0 or \
            len(set(values)) != len(values):
        raise ConfigError(key, "an odd number (>= 3) of distinct opinions")
    return values


def _oracle(doc: dict) -> dict:
    name = _choice(doc, "oracle", _ORACLES)
    grid = doc.get("grid")
    if not isinstance(grid, list) or not grid or \
            not all(_is_number(x) for x in grid):
        raise ConfigError("grid", "non-empty list of evaluation points")
    takes_p = _ORACLES[name][1]
    p = doc.get("p") if takes_p else None
    if p is None and takes_p == "required":
        raise ConfigError("p", f"{name} needs the veto quantile p")
    if p is not None and not (_is_number(p) and 0.5 < p < 1.0):
        raise ConfigError("p", f"must be in (1/2, 1), got {p!r}")
    return {"oracle": name, "grid": grid, "p": p}


def _verify(doc: dict) -> dict:
    return {"suite": _choice(doc, "suite", VERIFY_SUITES, default="quick")}


def _sweep(doc: dict) -> dict:
    base = doc.get("base")
    if not isinstance(base, dict):
        raise ConfigError("base", "sweep needs a base config object")
    if base.get("kind") not in _SEEDED:
        raise ConfigError("base.kind",
                          f"a sweep runs a seeded kind {_SEEDED}, "
                          f"got {base.get('kind')!r}")
    axis = doc.get("axis")
    if not isinstance(axis, dict) or len(axis) != 1 or \
            not isinstance(next(iter(axis.values())), list):
        raise ConfigError("axis", "exactly one {key: [values]} pair")
    if "seed" in axis:  # each cell's seed comes from `seeds`
        raise ConfigError("axis", "sweep seeds with `seeds`, not an axis")
    seeds = doc.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in seeds):
        raise ConfigError("seeds", "non-empty list of integer seeds")
    return {"base": base, "axis": axis, "seeds": seeds}


# ------------------------------------------------------------- run records

@dataclass(repr=False, eq=False)
class RunRecord(Record):
    config: dict
    seed: Optional[int]
    config_hash: str
    kind: str
    wall_clock: float
    verdicts: dict
    summary: dict
    trajectory: Optional[object] = None
    schedule: Optional[object] = None

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run a parsed config; each runner returns (verdicts, summary[,
    trajectory, schedule])."""
    runner = _KINDS[cfg.kind][1]
    if runner is None:
        raise ConfigError("kind", f"cannot run {cfg.kind!r} directly")
    t0 = time.perf_counter()
    out = runner(cfg)
    wall_clock = time.perf_counter() - t0
    config_hash = hashlib.sha256(
        json.dumps(cfg.raw, sort_keys=True).encode()).hexdigest()[:16]
    return RunRecord(cfg.raw, cfg.seed, config_hash, cfg.kind, wall_clock,
                     *out)


def _run_grow(cfg: ExperimentConfig):
    group = GroupState(cfg.initial)
    rule = cfg.rule
    traj = engine_run(group, rule, Rng(cfg.seed),
                      accepted_target=cfg.accepted,
                      raw_budget=cfg.raw_budget,
                      log_admitted=cfg.log_admitted,
                      extra_quantiles=cfg.extra_quantiles,
                      mode=cfg.mode)
    verdicts = {"completed": not traj.exhausted}
    last = traj.checkpoints[-1]
    if cfg.assert_final_gap_below is not None:
        verdicts["final_gap_below"] = last.gap <= cfg.assert_final_gap_below
    summary = {"k": last.k, "raw_steps": traj.raw_steps,
               "accepted": traj.accepted, "final_q_p": last.q_p,
               "final_gap": last.gap, "x1": last.x1, "xk": last.xk,
               "tau": rule.tau}
    if cfg.log_admitted and traj.admitted:
        half = traj.admitted[len(traj.admitted) // 2:]
        if rule.kind == "majority":
            summary["ks_triangle_second_half"] = stats.ks_distance(
                half, oracles.triangle_cdf)
    return verdicts, summary, traj


def _run_committee(cfg: ExperimentConfig):
    rep = adversaries.committee_fuzz(cfg.n, cfg.ell, cfg.steps, Rng(cfg.seed),
                                     consensus_checks=cfg.consensus_checks)
    return {"invariants_clean": rep.clean}, asdict(rep)


def _run_adversary(cfg: ExperimentConfig):
    c = cfg.construction
    if c == "drift":
        committee = Committee(cfg.initial, ell=0)
        target = Fraction(cfg.target_displacement) * committee.diameter
        schedule = adversaries.arithmetic_drift_schedule(committee, target)
        res = adversaries.replay(committee, schedule)
        moved = res.committee.median() - committee.median()
        return ({"all_steps_legal": res.accepted_all,
                 "median_moved_past_target": moved >= target},
                {"steps": len(schedule.steps),
                 "median_displacement": str(moved)}, None, schedule)
    if c == "tightness":
        tr = adversaries.geometric_tightness_run(cfg.k, cfg.ell)
        # all_steps_legal: the construction raises otherwise
        return ({"all_steps_legal": True,
                 "within_drift_bound": 0 < tr.bound_ratio <= 1},
                {"delta": tr.delta, "bound_ratio": float(tr.bound_ratio),
                 "steps": len(tr.schedule.steps)}, None, tr.schedule)
    if c == "immunity":
        com = adversaries.immunity_config(cfg.k, cfg.ell, cfg.d, cfg.D)
        ok, votes, _ = adversaries.one_step_irreplaceable(com, 2 * cfg.k + 2)
        return ({"median_irreplaceable": ok},
                {"n": com.n, "threshold": com.threshold, "max_votes": votes})
    committee, schedule, res = adversaries.removal_run(cfg.k)
    survivors = set(committee.ids) & set(res.committee.ids)
    return ({"all_steps_legal": res.accepted_all,
             "all_original_ids_removed": not survivors},
            {"steps": len(schedule.steps), "survivors": sorted(survivors)},
            None, schedule)


def _gap_functions(x, p):
    ctx = oracles.veto_context(p) if p else oracles.majority_context()
    return oracles.gap_functions(ctx, x)


# oracle -> (its value at x given p, whether it reads p: "required",
# "optional" or None, which rejects a p)
_ORACLES = {name: (lambda x, p, f=getattr(oracles, name): f(x), None)
            for name in ("f_majority", "accept_any_veto", "f_veto", "tau",
                         "triangle_cdf", "triangle_pdf", "phi1_bound")}
_ORACLES.update({
    "truncated_triangle_cdf": (lambda x, p: oracles.truncated_triangle_cdf(
        x, oracles.tau(p)), "required"),
    "g_r": (lambda x, p: _gap_functions(x, p).g_r, "optional"),
    "g_l": (lambda x, p: _gap_functions(x, p).g_l, "optional")})


def _run_oracle(cfg: ExperimentConfig):
    fn = _ORACLES[cfg.oracle][0]
    try:
        rows = [[x, fn(x, cfg.p)] for x in cfg.grid]
    except ValueError as e:  # p is checked at parse; the point left its domain
        raise ConfigError("grid", str(e)) from None
    return {"evaluated": True}, {"oracle": cfg.oracle, "rows": rows}


# ------------------------------------------------------------ verify suites

# each criterion runs on its committed seeds and sizes; quick runs 01 and 02
VERIFY_SUITES = {c.suite: (c,) for c in CRITERIA}
VERIFY_SUITES["quick"] = tuple(c for c in CRITERIA if c.num in (1, 2))


def _run_verify(cfg: ExperimentConfig):
    verdicts = {}
    results = {}
    for criterion in VERIFY_SUITES[cfg.suite]:
        v = criterion.run()
        verdicts[criterion.suite] = v.passed
        results[criterion.suite] = {"name": v.name, "detail": v.detail,
                                    "checked": v.checked}
    return verdicts, results


# each kind's parser, whose reads are its schema, and its runner; a sweep
# runs through `sweep`
_KINDS = {"grow": (_grow, _run_grow),
          "committee": (_committee, _run_committee),
          "adversary": (_adversary, _run_adversary),
          "oracle": (_oracle, _run_oracle), "verify": (_verify, _run_verify),
          "sweep": (_sweep, None)}


# ------------------------------------------------------------------- output

_CSV_HEADER_BASE = ["k", "steps", "q_p", "gap", "x1", "xk"]
_CSV_SCHEMA_VERSION = "admitlab-trajectory-v1"


def trajectory_csv(traj, extra_quantiles=()) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = list(_CSV_HEADER_BASE) + [f"q_{_fmt(p)}" for p in extra_quantiles]
    w.writerow([f"# {_CSV_SCHEMA_VERSION}"])
    w.writerow(header)
    for c in traj.checkpoints:
        row = [c.k, c.steps, _fmt(c.q_p) if c.q_p is not None else "",
               _fmt(c.gap) if c.gap is not None else "",
               _fmt(c.x1), _fmt(c.xk)]
        row += [_fmt(c.extra[p]) for p in extra_quantiles]
        w.writerow(row)
    return buf.getvalue()


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit_outputs(record: RunRecord, out_dir: str,
                 extra_quantiles=()) -> list[str]:
    """Write the trajectory CSV (when present) and the JSON summary.

    Files are written atomically (temp + rename); numbers carry 17
    significant digits, exact rationals appear as "num/den" strings.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if record.trajectory is not None:
        path = os.path.join(out_dir, "trajectory.csv")
        _atomic_write(path, trajectory_csv(record.trajectory, extra_quantiles))
        written.append(path)
    if record.kind == "oracle":
        path = os.path.join(out_dir, "oracle.csv")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x", record.summary["oracle"]])
        for x, v in record.summary["rows"]:
            w.writerow([_fmt(x), _fmt(v)])
        _atomic_write(path, buf.getvalue())
        written.append(path)
    if record.schedule is not None:
        path = os.path.join(out_dir, "schedule.json")
        doc = {"provenance": record.schedule.provenance,
               "steps": [[i, _jsonable(Fraction(y))] for i, y in
                         record.schedule.steps]}
        _atomic_write(path, json.dumps(doc, indent=1))
        written.append(path)
    summary = {
        "seed": record.seed,
        "config_hash": record.config_hash,
        "kind": record.kind,
        "wall_clock_s": record.wall_clock,
        "verdicts": record.verdicts,
        "summary": _jsonable(record.summary),
    }
    path = os.path.join(out_dir, "summary.json")
    _atomic_write(path, json.dumps(summary, indent=1, default=_fmt))
    written.append(path)
    return written


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# -------------------------------------------------------------------- sweep

def sweep(base_doc: dict, axis: dict, seeds: list) -> dict:
    """Run the cross product of one parameter axis and a seed list.

    Per-cell failures are recorded and the sweep continues.  Each cell owns
    the seed written into its config, so cells are independent.
    """
    (axis_key, axis_values), = axis.items()
    if not axis_values:
        raise ConfigError("axis", f"{axis_key}: no values to sweep")
    if not seeds:
        raise ConfigError("seeds", "no seeds to sweep")
    results = []
    for value in axis_values:
        for seed in seeds:
            doc = json.loads(json.dumps(base_doc))
            _set_path(doc, axis_key, value)
            doc["seed"] = seed
            results.append(_sweep_cell(value, seed, doc))

    # grouped by the printed value, since list values are unhashable
    by_axis: dict = {}
    for r in results:
        by_axis.setdefault(str(r["axis"]), []).append(r["passed"])
    return {
        "cells": results,
        "pass_fraction": sum(r["passed"] for r in results) / len(results),
        "per_axis_pass": {k: sum(v) / len(v) for k, v in by_axis.items()},
    }


def _sweep_cell(value, seed: int, doc: dict) -> dict:
    try:
        rec = run_experiment(parse_config(json.dumps(doc)))
        return {"axis": value, "seed": seed, "passed": rec.passed,
                "summary": _jsonable(rec.summary)}
    except Exception as e:
        return {"axis": value, "seed": seed, "passed": False,
                "error": f"{type(e).__name__}: {e}"}


def _set_path(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for p in parents:
        doc = doc.setdefault(p, {})
        if not isinstance(doc, dict):
            raise ConfigError("axis", f"{dotted}: {p} is not an object")
    doc[last] = value


# ---------------------------------------------------------------------- CLI

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="admitlab",
        description="growing-group and fixed-size committee admission lab")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in _KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        if name in _SEEDED:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        if name == "verify":
            p.add_argument("--suite", choices=sorted(VERIFY_SUITES),
                           help="criterion-NN, or quick for 01 and 02")
    rp = sub.add_parser("replay")
    rp.add_argument("--schedule", required=True, help="schedule.json to replay")
    rp.add_argument("--profile", required=True,
                    help="JSON file with {profile: [...], ell: int}")
    return ap


def _read_json(path: str, flag: str) -> dict:
    """The JSON object in the file that command-line option `flag` names."""
    try:
        with open(path) as fh:
            return _json_object(fh.read())
    except OSError as e:
        raise ConfigError(flag, f"cannot read {path}: {e.strerror}") from None


def _load_config(args, kind: str) -> ExperimentConfig:
    """The --config document, which must be of the subcommand's kind."""
    doc = _read_json(args.config, "--config") if args.config else {}
    if doc.setdefault("kind", kind) != kind:
        raise ConfigError("kind", f"the {kind} subcommand runs {kind} "
                                  f"configs, got {doc['kind']!r}")
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if kind == "verify" and getattr(args, "suite", None):
        doc["suite"] = args.suite
    return parse_config(json.dumps(doc))


def main(argv=None) -> int:
    """Exit status: 0 when every verdict passed, 1 when one failed, 2 for
    a usage or config error."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"admitlab: config error: {e}", file=sys.stderr)
        return 2


def _parse_profile(doc: dict) -> Committee:
    """The committee of a replay profile file {profile: [...], ell: int}."""
    profile = doc.get("profile")
    if not isinstance(profile, list) or not profile:
        raise ConfigError("profile", "must be a non-empty list")
    values = [_exact(v, "profile") for v in profile]
    return Committee(values, _ell_field(doc, len(values)))


def _parse_schedule(doc: dict, n: int) -> adversaries.ReplacementSchedule:
    """A schedule.json document: steps [index in 1..n, candidate]."""
    steps = doc.get("steps")
    if not isinstance(steps, list):
        raise ConfigError("steps", "must be a list of [index, candidate]")
    parsed = []
    for step in steps:
        if not isinstance(step, list) or len(step) != 2:
            raise ConfigError("steps", f"{step!r} is not [index, candidate]")
        i, y = step
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
            raise ConfigError("steps", f"index {i!r} outside 1..{n}")
        parsed.append((i, _exact(y, "steps")))
    return adversaries.ReplacementSchedule(parsed, doc.get("provenance", "?"))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "replay":
        committee = _parse_profile(_read_json(args.profile, "--profile"))
        sched = _parse_schedule(_read_json(args.schedule, "--schedule"),
                                committee.n)
        res = adversaries.replay(committee, sched)
        print(json.dumps({"accepted_all": res.accepted_all,
                          "failed_at": res.failed_at,
                          "final_profile":
                          res.committee.to_json_profile()}, indent=1))
        return 0 if res.accepted_all else 1

    cfg = _load_config(args, cmd)
    if cmd == "sweep":
        report = sweep(cfg.base, cfg.axis, cfg.seeds)
        out = json.dumps(_jsonable(report), indent=1, default=_fmt)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _atomic_write(os.path.join(args.out, "sweep.json"), out)
        else:
            print(out)
        return 0 if report["pass_fraction"] == 1.0 else 1
    record = run_experiment(cfg)
    if args.out:
        emit_outputs(record, args.out, getattr(cfg, "extra_quantiles", ()))
    else:
        print(json.dumps({"verdicts": record.verdicts,
                          "summary": _jsonable(record.summary)},
                         indent=1, default=_fmt))
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
