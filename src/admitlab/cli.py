"""Experiment orchestration: config parsing, runners, outputs, verify suites.

Configs are JSON documents; trajectories come out as CSV and summaries as
JSON.  A run is a pure function of its config bytes: rerunning a config
byte-identically reproduces its outputs.  Only the randomized kinds, grow
and committee, take a seed; `verify` runs the acceptance criteria
registered in `experiments` on their own committed seeds.

Subcommands: grow, committee, adversary, oracle, verify, sweep, replay.
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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from . import adversaries, oracles, stats
from .committee import Committee
from .engine import run as engine_run
from .experiments import CRITERIA
from .group import GroupState
from .rng import Rng
from .rules import RuleSpec

_KINDS = ("grow", "committee", "adversary", "oracle", "verify", "sweep")


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


@dataclass
class ExperimentConfig:
    kind: str
    seed: Optional[int]
    rule: Optional[RuleSpec] = None
    initial: Optional[list] = None
    accepted: Optional[int] = None
    raw_budget: Optional[int] = None
    mode: str = "steps"
    log_admitted: bool = False
    extra_quantiles: tuple = ()
    assert_final_gap_below: Optional[float] = None
    # committee / adversary experiments
    n: Optional[int] = None
    ell: Optional[int] = None
    k: Optional[int] = None
    steps: Optional[int] = None
    construction: Optional[str] = None
    consensus_checks: bool = False
    target_displacement: Optional[Fraction] = None
    d: Optional[Fraction] = None
    D: Optional[Fraction] = None
    # oracle evaluation
    oracle: Optional[str] = None
    grid: Optional[list] = None
    p: Optional[float] = None
    # verify
    suite: Optional[str] = None
    raw: dict = field(default_factory=dict)


_SCHEMA = {
    "grow": {"kind", "seed", "rule", "initial", "accepted", "raw_budget",
             "mode", "log_admitted", "extra_quantiles",
             "assert_final_gap_below"},
    "committee": {"kind", "seed", "n", "ell", "steps", "consensus_checks"},
    "adversary": {"kind", "construction", "n", "k", "ell",
                  "target_displacement", "d", "D", "initial"},
    "oracle": {"kind", "oracle", "grid", "p"},
    "verify": {"kind", "suite"},
    "sweep": {"kind", "base", "axis", "seeds"},
}
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
    """Validate a JSON config document; unknown keys are rejected."""
    doc = _json_object(text)
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ConfigError("kind", f"must be one of {_KINDS}, got {kind!r}")
    allowed = _SCHEMA[kind]
    for key in doc:
        if key not in allowed:
            raise ConfigError(key, f"{kind} runs take no seed"
                              if key == "seed" else "unknown key")
    seed = _int_field(doc, "seed", required=kind in _SEEDED)
    cfg = ExperimentConfig(kind=kind, seed=seed, raw=doc)

    if kind == "grow":
        cfg.rule = _parse_rule(doc.get("rule"))
        cfg.initial = _parse_initial(doc.get("initial"), cfg.rule)
        cfg.accepted = _int_field(doc, "accepted", minimum=1)
        cfg.raw_budget = _int_field(doc, "raw_budget", minimum=1)
        if cfg.accepted is None and cfg.raw_budget is None:
            raise ConfigError("accepted", "need accepted or raw_budget")
        cfg.mode = doc.get("mode", "steps")
        if cfg.mode not in ("steps", "jump"):
            raise ConfigError("mode", f"must be steps or jump, got {cfg.mode!r}")
        if cfg.mode == "jump" and cfg.rule.kind != "veto":
            raise ConfigError("mode", "jump mode is veto-only")
        cfg.log_admitted = _bool_field(doc, "log_admitted")
        extra = doc.get("extra_quantiles", [])
        if not isinstance(extra, list):
            raise ConfigError("extra_quantiles", "must be a list")
        for q in extra:
            if not _is_number(q) or not 0.0 <= q <= 1.0:
                raise ConfigError("extra_quantiles", f"{q!r} outside [0, 1]")
        cfg.extra_quantiles = tuple(extra)
        gap_bound = doc.get("assert_final_gap_below")
        if gap_bound is not None:
            if not _is_number(gap_bound) or not gap_bound > 0:
                raise ConfigError("assert_final_gap_below",
                                  "must be a positive number")
            if cfg.rule.kind == "consensus":
                raise ConfigError("assert_final_gap_below",
                                  "consensus has no fixed-point gap")
            cfg.assert_final_gap_below = float(gap_bound)
    elif kind == "committee":
        cfg.n = _int_field(doc, "n", minimum=3, required=True)
        cfg.ell = _int_field(doc, "ell", minimum=0, required=True)
        cfg.steps = _int_field(doc, "steps", minimum=1, default=1000)
        cfg.consensus_checks = _bool_field(doc, "consensus_checks")
        if cfg.n % 2 == 0:
            # drift/potential monitors are stated for odd sizes only
            raise ConfigError("n", "monitored committee runs require odd n")
        if cfg.ell > (cfg.n - 1) // 2:
            raise ConfigError("ell", f"at most (n-1)/2 = {(cfg.n - 1) // 2}")
    elif kind == "adversary":
        cfg.construction = doc.get("construction")
        if cfg.construction not in ("drift", "tightness", "immunity", "removal"):
            raise ConfigError("construction",
                              "one of drift|tightness|immunity|removal")
        cfg.n = _int_field(doc, "n", minimum=3)
        cfg.k = _int_field(doc, "k", minimum=1,
                           required=cfg.construction != "drift")
        cfg.ell = _int_field(doc, "ell", minimum=1,
                             required=cfg.construction in ("tightness",
                                                           "immunity"))
        cfg.target_displacement = _rational_field(doc, "target_displacement")
        cfg.d = _rational_field(doc, "d")
        cfg.D = _rational_field(doc, "D")
        initial = doc.get("initial")
        if initial is not None:
            if not isinstance(initial, list) or not initial:
                raise ConfigError("initial", "must be a non-empty list")
            cfg.initial = [_rational(v, "initial") for v in initial]
    elif kind == "oracle":
        cfg.oracle = doc.get("oracle")
        if cfg.oracle not in _ORACLES:
            raise ConfigError("oracle", f"unknown oracle {cfg.oracle!r}")
        cfg.grid = doc.get("grid")
        if not isinstance(cfg.grid, list) or not cfg.grid or \
                not all(_is_number(x) for x in cfg.grid):
            raise ConfigError("grid", "non-empty list of evaluation points")
        cfg.p = doc.get("p")
        if cfg.p is not None and not (_is_number(cfg.p) and 0.5 < cfg.p < 1.0):
            raise ConfigError("p", f"must be in (1/2, 1), got {cfg.p!r}")
        if cfg.p is None and cfg.oracle == "truncated_triangle_cdf":
            raise ConfigError("p", f"{cfg.oracle} needs the veto quantile p")
    elif kind == "verify":
        cfg.suite = doc.get("suite", "quick")
        if cfg.suite not in VERIFY_SUITES:
            raise ConfigError("suite",
                              f"unknown suite; pick from {sorted(VERIFY_SUITES)}")
    elif kind == "sweep":
        base = doc.get("base")
        if not isinstance(base, dict):
            raise ConfigError("base", "sweep needs a base config object")
        if base.get("kind") not in _SEEDED:
            raise ConfigError("base.kind",
                              f"a sweep runs a seeded kind {_SEEDED}, "
                              f"got {base.get('kind')!r}")
        axis = doc.get("axis")
        if not isinstance(axis, dict) or len(axis) != 1:
            raise ConfigError("axis", "exactly one {key: [values]} pair")
        seeds = doc.get("seeds")
        if not isinstance(seeds, list) or not seeds or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in seeds):
            raise ConfigError("seeds", "non-empty list of integer seeds")
    return cfg


def _int_field(doc: dict, key: str, minimum: Optional[int] = None,
               required: bool = False, default: Optional[int] = None):
    """doc[key] as an integer, or `default` when the key is absent.

    JSON true/false are rejected although bool is an int subclass."""
    value = doc.get(key, default)
    if value is None:
        if required:
            raise ConfigError(key, "a mandatory integer")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {value}")
    return value


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


def _rational_field(doc: dict, key: str):
    """doc[key] through `_rational`, or None when the key is absent."""
    value = doc.get(key)
    return None if value is None else _rational(value, key)


def _parse_rule(node) -> RuleSpec:
    node = {"kind": node} if isinstance(node, str) else node
    if not isinstance(node, dict):
        raise ConfigError("rule", "must be an object or rule name")
    kind = node.get("kind")
    if kind not in ("majority", "consensus", "veto"):
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


# ------------------------------------------------------------- run records

@dataclass
class RunRecord:
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


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    runner = {"grow": _run_grow, "committee": _run_committee,
              "adversary": _run_adversary, "oracle": _run_oracle,
              "verify": _run_verify}.get(cfg.kind)
    if runner is None:
        raise ConfigError("kind", f"cannot run {cfg.kind!r} directly")
    t0 = time.perf_counter()
    record = runner(cfg)
    record.wall_clock = time.perf_counter() - t0
    return record


def _run_grow(cfg: ExperimentConfig) -> RunRecord:
    group = GroupState(cfg.initial)
    rule = cfg.rule
    tau = None
    if rule.kind == "majority":
        tau = 0.5
    elif rule.kind == "veto" and rule.p > 0.5:
        tau = oracles.tau(rule.p)
    traj = engine_run(group, rule, Rng(cfg.seed),
                      accepted_target=cfg.accepted,
                      raw_budget=cfg.raw_budget,
                      log_admitted=cfg.log_admitted,
                      tau=tau, extra_quantiles=cfg.extra_quantiles,
                      mode=cfg.mode)
    verdicts = {"completed": not traj.exhausted}
    last = traj.checkpoints[-1]
    if cfg.assert_final_gap_below is not None:
        verdicts["final_gap_below"] = (last.gap is not None and
                                       last.gap <= cfg.assert_final_gap_below)
    summary = {
        "k": last.k,
        "raw_steps": traj.raw_steps,
        "accepted": traj.accepted,
        "final_q_p": last.q_p,
        "final_gap": last.gap,
        "x1": last.x1,
        "xk": last.xk,
        "tau": tau,
    }
    if cfg.log_admitted and traj.admitted:
        half = traj.admitted[len(traj.admitted) // 2:]
        if rule.kind == "majority":
            summary["ks_triangle_second_half"] = stats.ks_distance(
                half, oracles.triangle_cdf)
    return RunRecord(cfg.raw, cfg.seed, _config_hash(cfg.raw), "grow",
                     0.0, verdicts, summary, trajectory=traj)


def _run_committee(cfg: ExperimentConfig) -> RunRecord:
    rep = adversaries.committee_fuzz(cfg.n, cfg.ell, cfg.steps, Rng(cfg.seed),
                                     consensus_checks=cfg.consensus_checks)
    return RunRecord(cfg.raw, cfg.seed, _config_hash(cfg.raw), "committee",
                     0.0, {"invariants_clean": rep.clean}, asdict(rep))


def _run_adversary(cfg: ExperimentConfig) -> RunRecord:
    c = cfg.construction
    verdicts: dict = {}
    summary: dict = {}
    schedule = None
    if c == "drift":
        committee = Committee(cfg.initial or list(range(1, (cfg.n or 7) + 1)),
                              ell=0)
        target = Fraction(cfg.target_displacement or 100) * committee.diameter
        schedule = adversaries.arithmetic_drift_schedule(committee, target)
        res = adversaries.replay(committee, schedule)
        moved = res.committee.median() - committee.median()
        verdicts["all_steps_legal"] = res.accepted_all
        verdicts["median_moved_past_target"] = moved >= target
        summary = {"steps": len(schedule.steps), "median_displacement": str(moved)}
    elif c == "tightness":
        tr = adversaries.geometric_tightness_run(cfg.k, cfg.ell)
        schedule = tr.schedule
        verdicts["all_steps_legal"] = True  # construction raises otherwise
        verdicts["within_drift_bound"] = 0 < tr.bound_ratio <= 1
        summary = {"delta": tr.delta, "bound_ratio": float(tr.bound_ratio),
                   "steps": len(tr.schedule.steps)}
    elif c == "immunity":
        com = adversaries.immunity_config(cfg.k, cfg.ell,
                                          cfg.d or 1, cfg.D or 1)
        ok, votes, _ = adversaries.one_step_irreplaceable(com, 2 * cfg.k + 2)
        verdicts["median_irreplaceable"] = ok
        summary = {"n": com.n, "threshold": com.threshold, "max_votes": votes}
    elif c == "removal":
        k = cfg.k
        n = 4 * k + 3
        committee = Committee(list(range(1, n + 1)), ell=k + 1)  # 3k+2 votes
        schedule = adversaries.removal_schedule(committee)
        res = adversaries.replay(committee, schedule, require_votes=3 * k + 2)
        survivors = set(committee.ids) & set(res.committee.ids)
        verdicts["all_steps_legal"] = res.accepted_all
        verdicts["all_original_ids_removed"] = not survivors
        summary = {"steps": len(schedule.steps),
                   "survivors": sorted(survivors)}
    return RunRecord(cfg.raw, cfg.seed, _config_hash(cfg.raw), "adversary",
                     0.0, verdicts, summary, schedule=schedule)


_ORACLES = {
    "f_majority": lambda x, p: oracles.f_majority(x),
    "accept_any_veto": lambda x, p: oracles.accept_any_veto(x),
    "f_veto": lambda x, p: oracles.f_veto(x),
    "tau": lambda x, p: oracles.tau(x),
    "triangle_cdf": lambda x, p: oracles.triangle_cdf(x),
    "triangle_pdf": lambda x, p: oracles.triangle_pdf(x),
    "truncated_triangle_cdf": lambda x, p: oracles.truncated_triangle_cdf(
        x, oracles.tau(p)),
    "phi1_bound": lambda x, p: oracles.phi1_bound(x),
    "g_r": lambda x, p: oracles.gap_functions(
        oracles.veto_context(p) if p else oracles.majority_context(), x).g_r,
    "g_l": lambda x, p: oracles.gap_functions(
        oracles.veto_context(p) if p else oracles.majority_context(), x).g_l,
}


def _run_oracle(cfg: ExperimentConfig) -> RunRecord:
    fn = _ORACLES[cfg.oracle]
    try:
        rows = [(x, fn(x, cfg.p)) for x in cfg.grid]
    except ValueError as e:  # p is checked at parse; the point left its domain
        raise ConfigError("grid", str(e)) from None
    summary = {"oracle": cfg.oracle, "rows": [[x, v] for x, v in rows]}
    return RunRecord(cfg.raw, cfg.seed, _config_hash(cfg.raw), "oracle",
                     0.0, {"evaluated": True}, summary)


# ------------------------------------------------------------ verify suites

# each criterion runs on its committed seeds and sizes; quick runs 01 and 02
VERIFY_SUITES = {c.suite: (c,) for c in CRITERIA}
VERIFY_SUITES["quick"] = tuple(c for c in CRITERIA if c.num in (1, 2))


def _run_verify(cfg: ExperimentConfig) -> RunRecord:
    verdicts = {}
    results = {}
    for criterion in VERIFY_SUITES[cfg.suite]:
        v = criterion.run()
        verdicts[criterion.suite] = v.passed
        results[criterion.suite] = {"name": v.name, "detail": v.detail,
                                    "checked": v.checked}
    return RunRecord(cfg.raw, cfg.seed, _config_hash(cfg.raw), "verify",
                     0.0, verdicts, results)


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
    results = []
    for value in (axis_values if axis_values else [None]):
        for seed in seeds:
            doc = json.loads(json.dumps(base_doc))
            if value is not None:
                _set_path(doc, axis_key, value)
            doc["seed"] = seed
            results.append(_sweep_cell(value, seed, doc))

    by_axis: dict = {}
    for r in results:
        by_axis.setdefault(r["axis"], []).append(r)
    return {
        "cells": results,
        "pass_fraction": (sum(r["passed"] for r in results) / len(results)
                          if results else 1.0),
        "per_axis_pass": {str(k): sum(r["passed"] for r in v) / len(v)
                          for k, v in by_axis.items()},
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
    doc[last] = value


# ---------------------------------------------------------------------- CLI

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="admitlab",
        description="growing-group and fixed-size committee admission lab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(name):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        if name in _SEEDED:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        return p

    for name in ("grow", "committee", "adversary", "oracle", "sweep"):
        common(name)
    v = common("verify")
    v.add_argument("--suite", help="criterion-NN, or quick for 01 and 02",
                   choices=sorted(VERIFY_SUITES))
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
    if args.config:
        doc = _read_json(args.config, "--config")
    else:
        doc = {"kind": kind}
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if kind == "verify" and getattr(args, "suite", None):
        doc["suite"] = args.suite
    doc.setdefault("kind", kind)
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
    ell = _int_field(doc, "ell", minimum=0, required=True)
    if ell > (len(values) - 1) // 2:
        raise ConfigError("ell", f"at most (n-1)/2 = {(len(values) - 1) // 2}")
    return Committee(values, ell)


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

    if cmd == "sweep":
        doc = _load_config(args, cmd).raw  # validates shape
        report = sweep(doc["base"], doc["axis"], doc["seeds"])
        out = json.dumps(_jsonable(report), indent=1, default=_fmt)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _atomic_write(os.path.join(args.out, "sweep.json"), out)
        else:
            print(out)
        return 0 if report["pass_fraction"] == 1.0 else 1

    cfg = _load_config(args, cmd)
    record = run_experiment(cfg)
    if args.out:
        emit_outputs(record, args.out, cfg.extra_quantiles)
    else:
        print(json.dumps({"verdicts": record.verdicts,
                          "summary": _jsonable(record.summary)},
                         indent=1, default=_fmt))
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
