"""Config parsing, experiment runners, output emission, CLI surface."""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from admitlab.cli import (
    ConfigError,
    emit_outputs,
    main,
    parse_config,
    run_experiment,
    sweep,
    trajectory_csv,
)
from admitlab.experiments import CRITERIA, Verdict


def _parse(doc):
    return parse_config(json.dumps(doc))


def test_minimal_grow_config():
    cfg = _parse({"kind": "grow", "rule": "majority", "initial": [0.25],
                  "accepted": 1000, "seed": 1})
    assert cfg.kind == "grow"
    assert cfg.rule.kind == "majority"
    assert cfg.initial == [0.25]


def test_veto_r_out_of_range_names_path():
    with pytest.raises(ConfigError) as err:
        _parse({"kind": "grow", "rule": {"kind": "veto", "r": 1.2},
                "accepted": 10, "seed": 1})
    assert err.value.path == "rule.r"


def test_committee_even_n_rejected():
    with pytest.raises(ConfigError) as err:
        _parse({"kind": "committee", "n": 10, "ell": 1, "steps": 10, "seed": 1})
    assert err.value.path == "n"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        _parse({"kind": "grow", "rule": "majority", "accepted": 10,
                "seed": 1, "bogus": 3})
    assert err.value.path == "bogus"


_GROW = {"kind": "grow", "rule": "majority", "accepted": 10, "seed": 1}
_COMMITTEE = {"kind": "committee", "n": 7, "ell": 1, "steps": 10, "seed": 1}
_REMOVAL = {"kind": "adversary", "construction": "removal", "k": 1}
_TIGHTNESS = {"kind": "adversary", "construction": "tightness", "k": 3,
              "ell": 2}


@pytest.mark.parametrize("base, key, value", [
    (_COMMITTEE, "steps", -5),
    (_COMMITTEE, "steps", 0),
    (_COMMITTEE, "steps", True),
    (_COMMITTEE, "n", True),
    (_COMMITTEE, "ell", False),
    (_COMMITTEE, "ell", None),
    (_COMMITTEE, "seed", True),
    (_GROW, "seed", False),
    (_GROW, "seed", 1.5),
    (_GROW, "accepted", True),
    (_GROW, "raw_budget", 0),
    (_REMOVAL, "k", None),
    (_REMOVAL, "k", True),
    ({"kind": "adversary", "construction": "tightness", "k": 3},
     "ell", None),
    # drift needs an odd number of opinions; tightness and immunity 1<=ell<=k
    ({"kind": "adversary", "construction": "drift", "n": 7}, "n", 8),
    (_TIGHTNESS, "ell", 4),
    ({"kind": "adversary", "construction": "immunity", "k": 1, "ell": 1},
     "ell", 2),
])
def test_integer_fields_validated(base, key, value):
    doc = dict(base)
    if value is None:
        doc.pop(key, None)
    else:
        doc[key] = value
    with pytest.raises(ConfigError) as err:
        _parse(doc)
    assert err.value.path == key


_IMMUNITY = {"kind": "adversary", "construction": "immunity", "k": 1,
             "ell": 1}
_DRIFT = {"kind": "adversary", "construction": "drift", "n": 7}
_ORACLE = {"kind": "oracle", "oracle": "g_r", "grid": [0.01]}


# construction -> keys it does not read, each given a value that some
# other construction would accept
_NOT_READ = {
    "drift": (_DRIFT, ("k", "ell", "d", "D")),
    "tightness": (_TIGHTNESS, ("n", "target_displacement", "d", "D",
                               "initial")),
    "immunity": (_IMMUNITY, ("n", "target_displacement", "initial")),
    "removal": (_REMOVAL, ("n", "ell", "target_displacement", "d", "D",
                           "initial")),
}
_READABLE = {"n": 7, "k": 1, "ell": 1, "target_displacement": 5, "d": 1,
             "D": "1/2", "initial": [1, 2, 3], "p": 0.75}


@pytest.mark.parametrize("base, key, value", [
    (_IMMUNITY, "d", True),
    (_IMMUNITY, "d", "abc"),
    (_IMMUNITY, "d", -2),
    (_IMMUNITY, "d", 0.5),
    (_IMMUNITY, "D", "1/0"),
    (_IMMUNITY, "D", "-1/3"),
    (_DRIFT, "target_displacement", 0),
    (_DRIFT, "target_displacement", False),
    (_DRIFT, "initial", [1, 2, "q"]),
    (_DRIFT, "initial", [1, 2, True]),
    (_DRIFT, "initial", []),
    (_ORACLE, "grid", [True, 0.7]),
    (_ORACLE, "grid", ["x"]),
    (_ORACLE, "p", "hi"),
    (_ORACLE, "p", True),
    (_ORACLE, "p", 0.25),
    ({"kind": "oracle", "oracle": "truncated_triangle_cdf", "grid": [0.5]},
     "p", None),
    (_GROW, "extra_quantiles", ["a"]),
    (_GROW, "extra_quantiles", [True]),
    (_GROW, "extra_quantiles", [1.5]),
    (_GROW, "extra_quantiles", 0.5),
    (_GROW, "initial", [True]),
    (_GROW, "assert_final_gap_below", True),
    # drift needs an odd number (>= 3) of distinct opinions
    (_DRIFT, "initial", [1, 2, 3, 4]),
    (_DRIFT, "initial", [1, "2/1", 2]),
    (_DRIFT, "initial", [5]),
    # ill-shaped values, not only out-of-range ones
    (_ORACLE, "oracle", ["tau"]),
    ({"kind": "verify"}, "suite", [1]),
    ({"kind": "sweep", "base": _GROW, "seeds": [1]}, "axis", {"accepted": 5}),
] + [
    # keys the run does not read, with values a run that reads them takes
    (base, key, _READABLE[key]) for base, keys in _NOT_READ.values()
    for key in keys] + [
    # drift reads n only when initial is absent
    ({"kind": "adversary", "construction": "drift", "initial": [1, 2, 3]},
     "n", 7)] + [
    ({"kind": "oracle", "oracle": name, "grid": [0.75]}, "p", 0.75)
    for name in ("f_majority", "accept_any_veto", "f_veto", "tau",
                 "triangle_cdf", "triangle_pdf", "phi1_bound")])
def test_free_form_fields_validated(base, key, value):
    doc = dict(base)
    if value is None:
        doc.pop(key, None)
    else:
        doc[key] = value
    with pytest.raises(ConfigError) as err:
        _parse(doc)
    assert err.value.path == key


@pytest.mark.parametrize("base, key", [(_GROW, "log_admitted"),
                                       (_COMMITTEE, "consensus_checks")])
@pytest.mark.parametrize("value", ["false", "no", 0, 1])
def test_boolean_fields_take_only_json_booleans(base, key, value):
    with pytest.raises(ConfigError) as err:
        _parse(dict(base, **{key: value}))
    assert err.value.path == key
    assert getattr(_parse(dict(base, **{key: True})), key) is True
    assert getattr(_parse(dict(base, **{key: False})), key) is False
    assert getattr(_parse(base), key) is False


@pytest.mark.parametrize("rule, key", [
    ({"kind": "majority", "r": 0.3, "typo": 1}, "rule.r"),
    ({"kind": "majority", "typo": 1}, "rule.typo"),
    ({"kind": "consensus", "r": 0.3}, "rule.r"),
    ({"kind": "veto", "r": 0.3, "p": 0.7}, "rule.p"),
    ({"kind": "veto", "r": True}, "rule.r"),
    ({"kind": "bogus", "r": 0.3}, "rule.kind"),
    (["majority"], "rule"),
    ({"kind": []}, "rule.kind"),
    ({"kind": {}}, "rule.kind"),
])
def test_rule_keys_checked(rule, key):
    with pytest.raises(ConfigError) as err:
        _parse(dict(_GROW, rule=rule))
    assert err.value.path == key


_ONE_OF_EACH = {
    "grow": {"kind": "grow", "seed": 1, "rule": {"kind": "veto", "r": 0.25},
             "initial": [0.5], "accepted": 10, "raw_budget": 100,
             "mode": "jump", "log_admitted": True, "extra_quantiles": [0.25],
             "assert_final_gap_below": 0.1},
    "committee": dict(_COMMITTEE, consensus_checks=True),
    "drift-n": dict(_DRIFT, target_displacement=5),
    "drift-initial": {"kind": "adversary", "construction": "drift",
                      "initial": [1, 2, 3], "target_displacement": "1/2"},
    "tightness": _TIGHTNESS,
    "immunity": dict(_IMMUNITY, d=1, D="1/2"),
    "removal": _REMOVAL,
    "oracle": {"kind": "oracle", "oracle": "tau", "grid": [0.75]},
    "oracle-p": dict(_ORACLE, p=0.75),
    "oracle-needs-p": {"kind": "oracle", "oracle": "truncated_triangle_cdf",
                       "grid": [0.5], "p": 0.75},
    "verify": {"kind": "verify", "suite": "quick"},
    "sweep": {"kind": "sweep", "base": _GROW, "axis": {"accepted": [10]},
              "seeds": [1]},
}


@pytest.mark.parametrize("name", sorted(_ONE_OF_EACH))
def test_any_value_parses_or_is_a_config_error(name):
    # whatever value a key holds, at the top level or inside an object such
    # as grow's rule, parsing returns or raises ConfigError: never a
    # TypeError or other traceback
    base = _ONE_OF_EACH[name]
    _parse(base)
    values = (None, True, -1, 0, 0.5, "x", [], [1], {})
    docs = [dict(base, **{key: v}) for key in base for v in values]
    docs += [dict(base, **{key: dict(node, **{sub: v})})
             for key, node in base.items() if isinstance(node, dict)
             for sub in node for v in values]
    for doc in docs:
        try:
            _parse(doc)
        except ConfigError:
            pass


@pytest.mark.parametrize("command, doc, key", [
    # a subcommand runs only configs of its own kind
    ("grow", _COMMITTEE, "kind"),
    ("sweep", _GROW, "kind"),
    ("oracle", {"kind": "verify"}, "kind"),
    # the base's rule is the string "majority": rule.r has nowhere to go
    ("sweep", {"kind": "sweep", "base": _GROW, "axis": {"rule.r": [0.3]},
               "seeds": [1]}, "axis"),
])
def test_cli_config_error_names_key(command, doc, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"admitlab: config error: {key}:")


def test_oracle_point_outside_domain_names_grid():
    cfg = _parse({"kind": "oracle", "oracle": "tau", "grid": [0.75, 0.2]})
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert err.value.path == "grid"


def test_exact_rational_fields_accepted():
    cfg = _parse(dict(_IMMUNITY, d="1/2", D=3))
    assert (cfg.d, cfg.D) == (Fraction(1, 2), 3)
    rec = run_experiment(cfg)
    assert rec.passed
    # drift reads n only when initial is absent, so this document has no n
    cfg = _parse({"kind": "adversary", "construction": "drift",
                  "initial": [1, "5/2", 4, 7, 9], "target_displacement": "3/2"})
    assert cfg.initial == [1, Fraction(5, 2), 4, 7, 9]
    assert cfg.target_displacement == Fraction(3, 2)
    assert run_experiment(cfg).passed


def test_seed_mandatory():
    with pytest.raises(ConfigError):
        _parse({"kind": "grow", "rule": "majority", "accepted": 10})


@pytest.mark.parametrize("doc, key", [
    (dict(_REMOVAL, seed=1), "seed"),
    (dict(_ORACLE, seed=1), "seed"),
    ({"kind": "verify", "seed": 1}, "seed"),
    ({"kind": "sweep", "base": _GROW, "axis": {"accepted": []},
      "seeds": [1], "seed": 1}, "seed"),
    ({"kind": "sweep", "base": _REMOVAL, "axis": {"k": [1, 2]},
      "seeds": [1]}, "base.kind"),
    # each cell's seed is an entry of `seeds`, which would overwrite an axis
    ({"kind": "sweep", "base": _GROW, "axis": {"seed": [1, 2, 3]},
      "seeds": [7]}, "axis"),
])
def test_seed_only_where_read(doc, key):
    # only grow and committee runs draw random numbers, and a sweep takes
    # its seeds from `seeds` alone
    with pytest.raises(ConfigError) as err:
        _parse(doc)
    assert err.value.path == key


def test_grow_run_and_determinism(tmp_path):
    doc = {"kind": "grow", "rule": "majority", "initial": [0.25],
           "accepted": 2000, "seed": 7}
    rec1 = run_experiment(_parse(doc))
    rec2 = run_experiment(_parse(doc))
    assert rec1.passed
    csv1 = trajectory_csv(rec1.trajectory)
    csv2 = trajectory_csv(rec2.trajectory)
    assert csv1 == csv2  # identical bytes
    ks = [c.k for c in rec1.trajectory.checkpoints]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_adversary_removal_record():
    rec = run_experiment(_parse(_REMOVAL))
    assert rec.verdicts["all_original_ids_removed"]
    assert rec.verdicts["all_steps_legal"]
    assert rec.passed


def test_adversary_drift_record():
    rec = run_experiment(_parse({"kind": "adversary", "construction": "drift",
                                 "n": 7, "target_displacement": 100}))
    assert rec.passed
    assert rec.summary["steps"] > 0


def test_committee_run_record():
    rec = run_experiment(_parse({"kind": "committee", "n": 7, "ell": 1,
                                 "steps": 500, "seed": 5}))
    assert rec.passed
    assert rec.summary["accepted"] == 500


def test_oracle_grid_record():
    rec = run_experiment(_parse({"kind": "oracle", "oracle": "tau",
                                 "grid": [0.6, 0.75, 0.9]}))
    rows = rec.summary["rows"]
    assert rows[1][1] == pytest.approx(0.8449489743, abs=1e-9)


def test_verify_quick_suite():
    rec = run_experiment(_parse({"kind": "verify", "suite": "quick"}))
    assert rec.passed
    assert set(rec.verdicts) == {"criterion-01", "criterion-02"}
    # criteria run on their committed sizes: no trials knob
    with pytest.raises(ConfigError) as err:
        _parse({"kind": "verify", "suite": "quick", "trials": 20000})
    assert err.value.path == "trials"


def test_emit_outputs_empty_trajectory(tmp_path):
    from admitlab.engine import Trajectory

    text = trajectory_csv(Trajectory([], 0, 0))
    lines = text.strip().split("\n")
    assert len(lines) == 2  # schema marker + header, no data rows
    assert lines[1] == "k,steps,q_p,gap,x1,xk"

    # a rejecting run still carries its initial-state checkpoint
    doc = {"kind": "grow", "rule": "consensus", "initial": [0.45, 0.55],
           "raw_budget": 4, "seed": 2}
    rec = run_experiment(_parse(doc))
    files = emit_outputs(rec, str(tmp_path))
    csv_path = [f for f in files if f.endswith(".csv")][0]
    lines = open(csv_path).read().strip().split("\n")
    assert lines[1].startswith("k,steps,q_p")
    assert lines[2].split(",")[0] == "2"


def test_emit_outputs_summary_has_provenance(tmp_path):
    doc = {"kind": "grow", "rule": "majority", "initial": [0.25],
           "accepted": 100, "seed": 11}
    rec = run_experiment(_parse(doc))
    emit_outputs(rec, str(tmp_path))
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["seed"] == 11
    assert len(summary["config_hash"]) == 16
    assert "verdicts" in summary
    # a run that draws no random numbers records no seed
    emit_outputs(run_experiment(_parse(_ORACLE)), str(tmp_path))
    assert json.load(open(tmp_path / "summary.json"))["seed"] is None


def test_float_serialization_17_digits(tmp_path):
    doc = {"kind": "grow", "rule": "majority", "initial": [0.3333333333333333],
           "accepted": 10, "seed": 4}
    rec = run_experiment(_parse(doc))
    text = trajectory_csv(rec.trajectory)
    # a full-precision float survives the round trip
    value = text.strip().split("\n")[2].split(",")[4]
    assert float(value) == 0.3333333333333333


def test_committee_schedule_rationals_as_strings(tmp_path):
    rec = run_experiment(_parse(_REMOVAL))
    files = emit_outputs(rec, str(tmp_path))
    sched = json.load(open(tmp_path / "schedule.json"))
    assert all("/" in y for _, y in sched["steps"])


def test_sweep_majority_convergence_pass_fraction():
    # seed sweep aggregating the |median - 1/2| verdict per cell
    base = {"kind": "grow", "rule": "majority", "initial": [0.25],
            "accepted": 20000, "seed": 0, "assert_final_gap_below": 0.2}
    report = sweep(base, {"accepted": [20000]}, seeds=[1, 2, 3, 4, 5])
    assert len(report["cells"]) == 5
    assert report["pass_fraction"] == 1.0


def test_grow_gap_verdict_validation():
    # only a rule with a fixed point tau has a final gap to bound: not
    # consensus, and not veto with r >= 1/2
    for rule, mode in (("consensus", "steps"),
                       ({"kind": "veto", "r": 0.75}, "jump"),
                       ({"kind": "veto", "r": 0.5}, "steps")):
        with pytest.raises(ConfigError) as err:
            _parse({"kind": "grow", "rule": rule, "initial": [0.4, 0.6],
                    "mode": mode, "raw_budget": 10, "seed": 1,
                    "assert_final_gap_below": 0.1})
        assert err.value.path == "assert_final_gap_below"


def test_committee_n_beyond_fuzz_values_rejected():
    # the fuzz draws n distinct values from 2^24: a larger n never fills
    _parse(dict(_COMMITTEE, n=2 ** 24 - 1))
    with pytest.raises(ConfigError) as err:
        _parse(dict(_COMMITTEE, n=2 ** 24 + 1))
    assert err.value.path == "n"


def test_sweep_axis_and_failure_recorded():
    base = {"kind": "grow", "rule": {"kind": "veto", "r": 0.25},
            "accepted": 300, "seed": 0}
    report = sweep(base, {"rule.r": [0.25, 1.7]}, seeds=[1, 2])
    assert len(report["cells"]) == 4
    # the invalid r cells fail but the sweep completes
    assert report["per_axis_pass"]["0.25"] == 1.0
    assert report["per_axis_pass"]["1.7"] == 0.0
    # list values are grouped by their printed form, as they are reported
    report = sweep(base, {"initial": [[0.25], [0.5]]}, seeds=[1, 2])
    assert [c["axis"] for c in report["cells"]] == [[0.25]] * 2 + [[0.5]] * 2
    assert report["per_axis_pass"] == {"[0.25]": 1.0, "[0.5]": 1.0}
    # a null value is set like any other: it lifts the base's raw budget
    report = sweep(dict(base, raw_budget=7), {"raw_budget": [None, 20]},
                   seeds=[1])
    null_cell, cell_20 = report["cells"]
    assert null_cell["axis"] is None and null_cell["passed"]
    assert null_cell["summary"]["accepted"] == 300
    assert cell_20["summary"]["raw_steps"] == 20 and not cell_20["passed"]
    # an empty axis or seed list has nothing to sweep
    with pytest.raises(ConfigError, match="^axis: "):
        sweep(base, {"raw_budget": []}, seeds=[1])
    with pytest.raises(ConfigError, match="^seeds: "):
        sweep(base, {"raw_budget": [None]}, seeds=[])


def test_cli_main_verify(capsys):
    # verify runs the registry's own objects: ids 1..15, once each
    assert sorted(c.num for c in CRITERIA) == list(range(1, 16))
    v = CRITERIA[1].run()
    assert v.line == f"criterion 02 [veto fixed point]: PASS ({v.detail})"
    rc = main(["verify", "--suite", "criterion-02"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdicts"] == {"criterion-02": v.passed}
    assert out["summary"]["criterion-02"]["detail"] == v.detail
    # no verdict passes on an empty sample
    assert Verdict(9, "x", False, "d", 0).line == "criterion 09 [x]: FAIL (d)"
    assert not Verdict(9, "x", True, "d", 0).passed


def test_cli_main_config_error_exit_status(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "adversary", "construction": "immunity",
                               "k": 1, "ell": 1, "d": "abc"}))
    rc = main(["adversary", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "admitlab: config error: d: not an exact rational: 'abc'\n"
    cfg.write_text('{"kind": "grow", ')
    for cmd in ("grow", "sweep"):
        assert main([cmd, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "admitlab: config error: $: invalid JSON")
    # argparse usage errors exit 2 too: only grow and committee take --seed
    with pytest.raises(SystemExit) as exit_:
        main(["oracle", "--seed", "1"])
    assert exit_.value.code == 2


def test_cli_main_grow_to_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "grow", "rule": "majority",
                               "initial": [0.25], "accepted": 500, "seed": 9}))
    rc = main(["grow", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("rule, initial", [
    ({"kind": "veto", "r": 0.25}, [0.0]), ("consensus", [0.0, 1.0])],
    ids=["veto-q-zero", "consensus-full-span"])
def test_cli_grow_stuck_run_ends_incomplete(rule, initial, tmp_path):
    # no candidate pair can ever join these groups: the run ends at once,
    # short of its target, instead of drawing forever
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "grow", "rule": rule,
                               "initial": initial, "accepted": 1,
                               "seed": 1}))
    out = tmp_path / "out"
    assert main(["grow", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"completed": False}
    assert summary["summary"]["raw_steps"] == 0


def test_cli_replay_round_trip(tmp_path):
    rec = run_experiment(_parse({"kind": "adversary", "construction": "drift",
                                 "n": 7, "target_displacement": 5}))
    emit_outputs(rec, str(tmp_path))
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"profile": [str(i) for i in range(1, 8)],
                                "ell": 0}))
    rc = main(["replay", "--schedule", str(tmp_path / "schedule.json"),
               "--profile", str(prof)])
    assert rc == 0


@pytest.mark.parametrize("argv, flag", [
    (["grow", "--config", "{missing}"], "--config"),
    (["sweep", "--config", "{missing}"], "--config"),
    (["replay", "--schedule", "{file}", "--profile", "{missing}"],
     "--profile"),
    (["replay", "--schedule", "{missing}", "--profile", "{file}"],
     "--schedule"),
])
def test_missing_input_file_is_a_config_error(argv, flag, tmp_path, capsys):
    # a file that cannot be read exits 2 naming its option, not 1 with a
    # traceback (1 is the status of a failed verdict)
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"profile": [1, 2, 3], "ell": 0}))
    missing = tmp_path / "nope.json"
    argv = [a.format(missing=missing, file=prof) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"admitlab: config error: {flag}: cannot read {missing}")


_REPLAY_PROFILE = {"profile": ["-3", "-1/2", 0, 2, 5, 8, 13], "ell": 0}
_REPLAY_SCHEDULE = {"provenance": "hand", "steps": [[1, "8/1"], [1, 9]]}


@pytest.mark.parametrize("profile, steps, key", [
    ({"profile": _REPLAY_PROFILE["profile"]}, None, "ell"),
    (dict(_REPLAY_PROFILE, ell=True), None, "ell"),
    (dict(_REPLAY_PROFILE, ell=4), None, "ell"),
    (dict(_REPLAY_PROFILE, profile=["1/0", 1, 2]), None, "profile"),
    (dict(_REPLAY_PROFILE, profile=[0, 1.5, 2]), None, "profile"),
    (dict(_REPLAY_PROFILE, profile=[]), None, "profile"),
    (None, [[9, "1/2"]], "steps"),
    (None, [[0, 1]], "steps"),
    (None, [[True, 1]], "steps"),
    (None, [[1, 7.5]], "steps"),
    (None, [[1, "x"]], "steps"),
    (None, [[1]], "steps"),
])
def test_cli_replay_validates_files(profile, steps, key, tmp_path, capsys):
    prof, sched = tmp_path / "profile.json", tmp_path / "schedule.json"
    prof.write_text(json.dumps(profile or _REPLAY_PROFILE))
    sched.write_text(json.dumps(dict(_REPLAY_SCHEDULE,
                                     steps=steps or _REPLAY_SCHEDULE["steps"])))
    argv = ["replay", "--schedule", str(sched), "--profile", str(prof)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"admitlab: config error: {key}:")
    # the files without the fault replay: signed exact values are fine
    prof.write_text(json.dumps(_REPLAY_PROFILE))
    sched.write_text(json.dumps(_REPLAY_SCHEDULE))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["final_profile"] == ["0/1", "2/1", "5/1", "8/1", "8/1", "9/1",
                                    "13/1"]


# sha256 of trajectory.csv, of summary.json without wall_clock_s (keys
# sorted) and of the admitted list (float reprs joined by commas), recorded
# before the per-rule engine loops became one kernel driver
_PINNED_RUNS = {
    "majority": ({"kind": "grow", "seed": 11, "rule": "majority",
                  "initial": [0.25], "accepted": 20000, "log_admitted": True,
                  "extra_quantiles": [0.25, 0.75]},
                 "8adb0ce7a5d1ee133eb2684ca49a22d851d43061b89914e55f084d969e39c5f8",
                 "2f8f53809176d5879d46e81f0235bc4b38771292e0cbc42f0f8409db657777d0",
                 "dd8219308cb87fc94541fd1d5806c14ed2b260b2723cb37c04f04394bdc414c5"),
    "veto-0.25": ({"kind": "grow", "seed": 12,
                   "rule": {"kind": "veto", "r": 0.25}, "accepted": 20000,
                   "log_admitted": True},
                  "a06f6121b671bdde9f4e17310a5c97c336fcafe8275b226eddb7bc92c453f017",
                  "44683942ed103ba06efa3525b5ea3d6032d0b85a56d3502b8ef4405f5e7126c3",
                  "4e5b11e345b4b03fce550ecbbae8246e5028d825f43e5b879fe40f28cd287b6c"),
    "veto-0.75-jump": ({"kind": "grow", "seed": 13,
                        "rule": {"kind": "veto", "r": 0.75}, "accepted": 20000,
                        "mode": "jump", "log_admitted": True},
                       "7e8cf036b3bc8df14c45d07f76b1bc83b0d7a95e7fd95c8be09ea583393063f5",
                       "10c4ecb6c817715046cec9ad86ceb728dffc66e64e5fd864f54d5480b65e6244",
                       "3baa8f81f6a62e43010bebf6daf76de7467e042299a8eb405b489b1abc294926"),
    "consensus": ({"kind": "grow", "seed": 14, "rule": "consensus",
                   "initial": [0.5], "raw_budget": 200000,
                   "log_admitted": True},
                  "5459e87fabea4b4a9f3f8a96228d581f3941ae9a8dc8e98eb006da0d8594e5f4",
                  "d421d64c104aac38a5ed844a486b00602b5940d8a176e45db2ff1f2868c0a8b7",
                  "4549bacd4493554acef8b567010109514f520d867daa283b99ac20f903d39a4c"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_grow_outputs_are_pinned(name, tmp_path):
    doc, traj_sha, summary_sha, admitted_sha = _PINNED_RUNS[name]
    cfg = _parse(doc)
    rec = run_experiment(cfg)
    emit_outputs(rec, str(tmp_path), cfg.extra_quantiles)
    with open(os.path.join(tmp_path, "trajectory.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == traj_sha
    with open(os.path.join(tmp_path, "summary.json")) as fh:
        summary = json.load(fh)
    summary.pop("wall_clock_s")
    blob = json.dumps(summary, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == summary_sha
    admitted = ",".join(map(repr, rec.trajectory.admitted)).encode()
    assert hashlib.sha256(admitted).hexdigest() == admitted_sha


# sha256 of summary.json without wall_clock_s (keys sorted), then of
# schedule.json or oracle.csv where the run writes one, recorded before each
# config kind's parser became its schema
_PINNED_OTHER = {
    "drift": ({"kind": "adversary", "construction": "drift", "n": 7,
               "target_displacement": 5},
              "3192880babe5ed4e8c7670230e531c6b2fea0014125f60f598ae4b28777fdc18",
              "bc6d038401899922ac656981f2adade4b0db7ca03a0fb23901620bb88123f674"),
    "drift-initial": ({"kind": "adversary", "construction": "drift",
                       "initial": [1, "5/2", 4, 7, 9],
                       "target_displacement": "3/2"},
                      "c756a7d41aaa25c86a79e53c42b3e6a361f55d555a4efa80cce13158cfa76278",
                      "889d77a49a593750752a266b3f4cbf2153bf2531281b6e21ac38038028c89a75"),
    "tightness": ({"kind": "adversary", "construction": "tightness", "k": 3,
                   "ell": 2},
                  "1c5551a853947073e191af5eb2ef38cd6bbb74787e78367355b66c0fd96a9e6e",
                  "90415a6a12168158dd7859d9094eb3fe5b3d3227575e9ddc9e5525641bbf0359"),
    "immunity": ({"kind": "adversary", "construction": "immunity", "k": 2,
                  "ell": 1, "d": "1/2", "D": 3},
                 "61a940428f18729f51e93ccf088ccdf7c429820dc4f97dd69234450830d464da"),
    "removal": ({"kind": "adversary", "construction": "removal", "k": 2},
                "6dae8a34bb95590f29b344e92c0d89163ee9c8c69099fae600df60f444ab1aef",
                "e6a4091d0a8d784d5d58689b935574ee3c81297bc10ef258c426a68f32a0ff9c"),
    "committee": ({"kind": "committee", "seed": 5, "n": 7, "ell": 1,
                   "steps": 300},
                  "36efb33b143ee39769cee33034994d4a0ee56b7c6d0cdef5c728b28904c84598"),
    "committee-checks": ({"kind": "committee", "seed": 6, "n": 9, "ell": 2,
                          "steps": 300, "consensus_checks": True},
                         "3c47dbf445c8d73d3f8d690d7c09ca294e888c7b0bc8a9c8f0ea6c7d993098e3"),
    "oracle": ({"kind": "oracle", "oracle": "tau", "grid": [0.6, 0.75, 0.9]},
               "f68053ed2db07d852773ef09b8a5c2873c659a60acba8862835a3d2bd9a199a3",
               "3948bdb61c7ba3c16f4a122174b3df2f62907d4d78fccb5d1f5e29676b634ef7"),
    "oracle-p": ({"kind": "oracle", "oracle": "truncated_triangle_cdf",
                  "grid": [0.1, 0.5, 0.9], "p": 0.8},
                 "5b95ed20feea3b1359854cf8d4e23addb528a3257dd0c9d853396c5fac7c1f58",
                 "63b95a63f70b350bac7b06b88da0dece7de5d302fe5dcb60a6ebf266be9d253e"),
    "verify": ({"kind": "verify", "suite": "criterion-02"},
               "0d2c9ec47067d008881efae96a1e8345ba7e407aed118f94bfc04189b772807c"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_OTHER))
def test_other_kinds_outputs_are_pinned(name, tmp_path):
    doc, summary_sha, *file_sha = _PINNED_OTHER[name]
    emit_outputs(run_experiment(_parse(doc)), str(tmp_path))
    with open(os.path.join(tmp_path, "summary.json")) as fh:
        summary = json.load(fh)
    summary.pop("wall_clock_s")
    blob = json.dumps(summary, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == summary_sha
    written = [f for f in ("schedule.json", "oracle.csv")
               if os.path.exists(os.path.join(tmp_path, f))]
    shas = []
    for f in written:
        with open(os.path.join(tmp_path, f), "rb") as fh:
            shas.append(hashlib.sha256(fh.read()).hexdigest())
    assert shas == file_sha
