"""Result records: the shared repr, equality and hash match what a
dataclass would generate for the same fields."""

import dataclasses
import importlib
import inspect

import pytest

import admitlab
from admitlab.records import FrozenRecord, Record

MODULES = ["adversaries", "cli", "engine", "experiments", "oracles", "rules",
           "stats"]
RECORDS = sorted({cls for m in MODULES
                  for _, cls in inspect.getmembers(
                      importlib.import_module(f"admitlab.{m}"),
                      dataclasses.is_dataclass)
                  if cls.__module__.startswith("admitlab")},
                 key=lambda c: c.__qualname__)


def _twin(cls):
    """The same fields in a dataclass that generates its own methods."""
    params = cls.__dataclass_params__
    return dataclasses.make_dataclass(
        cls.__qualname__,
        [(f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare))
         for f in dataclasses.fields(cls)],
        frozen=params.frozen)


def _build(cls, values):
    obj = object.__new__(cls)
    for name, v in values.items():
        object.__setattr__(obj, name, v)
    return obj


def test_every_dataclass_is_a_record():
    # a record that generated its own methods would bring their code back
    assert len(RECORDS) >= 15
    for cls in RECORDS:
        params = cls.__dataclass_params__
        assert not params.repr and not params.eq, cls
        assert issubclass(cls, FrozenRecord if params.frozen else Record), cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_methods_match_generated(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    values = {n: (i, f"v{i}", [i]) for i, n in enumerate(names)}
    a, b, t = _build(cls, values), _build(cls, values), _build(twin, values)
    assert repr(a) == repr(t)
    assert a == b and not a != b
    assert a != t  # another class, as for generated methods
    for n in names:
        other = _build(cls, {**values, n: "changed"})
        assert (a == other) == (t == _build(twin, {**values, n: "changed"}))
    if cls.__dataclass_params__.frozen:
        hashable = {n: (i, f"v{i}") for i, n in enumerate(names)}
        assert hash(_build(cls, hashable)) == hash(_build(twin, hashable))
    else:
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            hash(t)


def test_records_still_compare_in_practice():
    rule = admitlab.RuleSpec("veto", r=0.25)
    assert rule == admitlab.RuleSpec("veto", r=0.25)
    assert len({rule, admitlab.RuleSpec("veto", r=0.25)}) == 1
    assert repr(admitlab.rules.CandidatePair(0.9, 0.2)) == \
        "CandidatePair(y1=0.2, y2=0.9)"
