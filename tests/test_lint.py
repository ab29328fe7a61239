"""Source-level guards over the admitlab package."""

import ast
import pathlib

import admitlab

SRC = pathlib.Path(admitlab.__file__).parent


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, f"assert statements in src: {found}"
