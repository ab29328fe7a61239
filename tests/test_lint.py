"""Source-level guards over the admitlab package."""

import ast
import pathlib
import re
import sys
import tomllib

import admitlab

SRC = pathlib.Path(admitlab.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, f"assert statements in src: {found}"


def test_committee_layout_private_to_committee_module():
    # the slot layout of a Committee is decided in committee.py alone:
    # other modules build committees through its public methods
    private = {"_of", "_next_id"}
    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits = [f"{path.name}:{node.lineno} {node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private]
        if path.name == "committee.py":
            inside = len(hits)
        else:
            found += hits
    assert inside > 0
    assert not found, f"Committee layout used outside committee.py: {found}"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from admitlab import *`
    missing = [name for name in admitlab.__all__
               if not hasattr(admitlab, name)]
    assert len(admitlab.__all__) > 10
    assert not missing, f"stale names in admitlab.__all__: {missing}"


def test_third_party_imports_are_declared():
    # a module installed here but missing from `dependencies` would import
    # in this environment and fail on a clean install
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
                .replace("-", "_") for dep in project["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"admitlab"}
    assert "numpy" in third_party
    assert third_party <= declared, \
        f"imported but not in pyproject dependencies: {third_party - declared}"
