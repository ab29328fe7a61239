"""Source-level guards over the admitlab package."""

import ast
import importlib
import pathlib
import re
import sys
import tomllib

import admitlab

SRC = pathlib.Path(admitlab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
    # one vote-and-place loop: the vote is committee.py's module-level
    # `_votes`, no other module votes or swaps members itself, and replay's
    # one `for` is the pass that checks its steps
    tree = ast.parse((SRC / "committee.py").read_text())
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name in ("_votes", "_swap")]
    assert [(d.name, d in tree.body) for d in defs] == [("_votes", True)]
    for path in sorted(SRC.glob("*.py")):
        if path.name != "committee.py":
            names = _names(path) & {"_votes", "_swap"}
            assert not names, f"{path.name} names {sorted(names)}"
    replay, = [node for node in ast.walk(ast.parse(
        (SRC / "adversaries.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "replay"]
    loop, = [node for node in ast.walk(replay)
             if isinstance(node, (ast.For, ast.While))]
    assert "_check_index" in _names(loop)


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


def _dotted(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def test_benchmark_api_resolves():
    # perfbench reaches admitlab as lab.<layer>.<name>, through aliases and
    # `from admitlab` imports, and its Tracer.install wraps attributes by
    # name; a deleted name would first fail there, at benchmark time
    wanted = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "admitlab":
                base = ["lab"] + node.module.split(".")[1:]
                alias |= {a.asname or a.name: base + [a.name]
                          for a in node.names}
            elif isinstance(node, ast.Assign) and \
                    (_dotted(node.value) or [None])[0] == "lab":
                alias |= {t.id: _dotted(node.value) for t in node.targets
                          if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            chain = _dotted(node)
            if chain and chain[0] in alias:
                chain = alias[chain[0]] + chain[1:]
            if chain and chain[0] == "lab" and len(chain) > 1:
                wanted.append((path.name, chain))
            if isinstance(node, ast.Call) and len(node.args) > 1:
                owner, attr = _dotted(node.args[0]) or [], node.args[1]
                if owner[:1] == ["lab"] and len(owner) > 1 and \
                        isinstance(attr, ast.Constant):  # a Tracer wrap
                    wanted.append((path.name, owner + [attr.value]))
    missing = []
    for where, chain in wanted:
        try:
            obj = importlib.import_module(f"admitlab.{chain[1]}")
            for name in chain[2:]:
                obj = getattr(obj, name)
        except (ImportError, AttributeError):
            missing.append(f"{where}: {'.'.join(chain)}")
    assert sum(where == "spans.py" for where, _ in wanted) > 10
    assert not missing, f"perfbench uses names admitlab lacks: {missing}"


def test_stats_has_no_rule_kind_branch():
    # each admission rule's decision lives in rules.py: stats draws through
    # rules.block_kernel and never compares a rule's kind to a name
    tree = ast.parse((SRC / "stats.py").read_text(), filename="stats.py")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(isinstance(x, ast.Attribute) and x.attr == "kind"
               for x in sides) and \
                any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for x in sides for c in ast.walk(x)):
            found.append(f"stats.py:{node.lineno}")
    assert not found, f"rule kind compared to a name: {found}"


def test_group_insert_not_called_in_a_loop():
    # GroupState.insert costs O(k), so src grows a group a batch at a time
    # with insert_many.  Flags a one-argument `.insert(...)` call inside a
    # loop or comprehension (list.insert takes two), `GroupState.insert`
    # named anywhere, and any `.insert` not called on the spot, which
    # could carry it into a loop under another name
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        for loop in (n for n in ast.walk(tree) if isinstance(n, loops)):
            found += [f"{path.name}:{node.lineno} in a loop"
                      for node in ast.walk(loop)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "insert"
                      and len(node.args) + len(node.keywords) == 1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "insert":
                if id(node) not in called:
                    found.append(f"{path.name}:{node.lineno} aliased")
                elif _dotted(node) == ["GroupState", "insert"]:
                    found.append(f"{path.name}:{node.lineno} unbound")
    assert not found, f"GroupState.insert reachable from a loop: {found}"


def _names(path_or_node):
    """Every identifier, attribute, definition, argument and string
    constant in one source file, or under one syntax node."""
    tree = path_or_node if isinstance(path_or_node, ast.AST) else \
        ast.parse(path_or_node.read_text(), filename=path_or_node.name)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_is_read_beyond_the_tests():
    # a top-level public function or class of the package must be named
    # outside its own definition: by a src module (the package's exports
    # aside), by perfbench or by the acceptance suite.  One only the unit
    # tests read is a test-only twin or dead code
    readers = set().union(*map(_names, sorted(
        (ROOT / "perfbench").glob("*.py"))),
        _names(ROOT / "tests" / "test_acceptance.py"))
    tops = {path.name: [(node, _names(node)) for node in ast.parse(
        path.read_text(), filename=path.name).body]
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    unread = []
    for module, nodes in tops.items():
        elsewhere = readers.union(*(names for m, ns in tops.items()
                                    if m != module for _, names in ns))
        for node, _ in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            if node.name not in elsewhere.union(
                    *(names for other, names in nodes if other is not node)):
                unread.append(f"{module}:{node.lineno} {node.name}")
    assert len(tops) > 10
    assert not unread, f"public names only the unit tests read: {unread}"


def test_group_holds_no_runs_finger_or_prefix_list():
    # the group is one sorted array: none of the sorted runs, their tops,
    # the finger (run index and members before it) or the prefix counts
    # of the structure it replaced; and the engine has one quantile-rule
    # block for every group size, with no whole-group walk below a size
    guards = {"group.py": ("_a", {"_runs", "_tops", "_b", "_start", "_sums"}),
              "engine.py": ("_quantile_block", {"_plain_block", "_WINDOW_MIN"})}
    for name, (kept, gone) in guards.items():
        names = _names(SRC / name)
        assert kept in names
        assert not names & gone, f"{name} still names {sorted(names & gone)}"
    # one loop serves every rule and mode: `run` keeps no room
    # count and holds one `while`, and every block takes one signature; the
    # draw buffer alone bounds a steps block, which never reads the budget
    defs = {node.name: node for node in ast.walk(ast.parse(
        (SRC / "engine.py").read_text())) if isinstance(node, ast.FunctionDef)}
    inner = [node for node in ast.walk(defs["run"])
             if isinstance(node, ast.FunctionDef) and node is not defs["run"]]
    assert "room" not in {node.name for node in inner}
    nested = {id(node) for f in inner for node in ast.walk(f)}
    loops = [node for node in ast.walk(defs["run"])
             if isinstance(node, ast.While) and id(node) not in nested]
    assert len(loops) == 1
    assert "mode" not in {node.id for node in ast.walk(loops[0])
                          if isinstance(node, ast.Name)}
    for block in ("_quantile_block", "_consensus_block", "_jump_block"):
        args = defs[block].args
        assert [a.arg for a in args.posonlyargs + args.args] == \
            ["group", "rule", "u", "raw", "budget"], block
        assert not (args.vararg or args.kwonlyargs or args.kwarg), block
    for block in ("_quantile_block", "_consensus_block"):
        reads = {node.id for node in ast.walk(defs[block])
                 if isinstance(node, ast.Name)}
        assert "budget" not in reads, block
    # a quantile block fixes its last step before it walks: one search,
    # ahead of the walk loop, and no break inside it
    walk, = [node for node in ast.walk(defs["_quantile_block"])
             if isinstance(node, ast.For)]
    assert not any(isinstance(node, ast.Break) for node in ast.walk(walk))
    searches = [node.lineno for node in ast.walk(defs["_quantile_block"])
                if isinstance(node, ast.Attribute)
                and node.attr == "searchsorted"]
    assert len(searches) == 1 and searches[0] < walk.lineno


def test_engine_draws_only_in_blocks():
    # every draw in engine.py comes from a uniform_block buffer; the
    # per-call draws live only in the tests' reference loops
    tree = ast.parse((SRC / "engine.py").read_text(), filename="engine.py")
    found = [f"engine.py:{node.lineno} {node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("uniform", "next_u64")]
    assert "uniform_block" in _names(SRC / "engine.py")
    assert not found, f"per-call draws in the engine: {found}"


def test_no_fraction_internals():
    # Fraction's `_normalize` keyword (gone in Python 3.12) and its
    # `_numerator`/`_denominator` slots are CPython internals; src builds
    # every Fraction through the public constructor and reads the public
    # `numerator`/`denominator`, under every Python the package allows
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.keyword)
                  and node.arg == "_normalize"
                  or isinstance(node, ast.Attribute)
                  and node.attr in ("_numerator", "_denominator")]
    assert "Fraction" in _names(SRC / "adversaries.py")
    assert not found, f"Fraction internals in src: {found}"
