"""Every Python file of the project parses as the oldest Python that
``pyproject.toml`` supports, so a newer-only construct fails here and not
first on that interpreter."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_pyproject_declares_the_oldest_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups() == tuple(map(str, OLDEST))


def test_every_source_parses_as_the_oldest_python():
    paths = sorted(p for top in ("src", "tests", "perfbench", "scripts") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 30
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_the_package_does_not_import_dataclasses():
    """Records are NamedTuples or slotted classes: importing ``dataclasses``
    (and ``inspect`` with it) would cost every ``cdc`` child process."""
    paths = sorted((ROOT / "src" / "cdcgraph").rglob("*.py"))
    assert len(paths) > 10
    imports = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                        for name in names if name.split(".")[0] == "dataclasses"]
    assert imports == []


def _wrapped_names() -> set[tuple[str, str]]:
    """Every (owner, attribute) that ``perfbench/run.py``'s ``instrument``
    wraps by name, read from its source: the literal pairs of
    ``tracer.wrap(owner, "name", ...)`` calls, and for a call inside a
    ``for`` over a tuple of tuples, each tuple's item at the name's place."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    instrument = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "instrument")
    loops: dict[str, list[str]] = {}  # loop variable -> the names it takes
    for node in ast.walk(instrument):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) and isinstance(node.iter, ast.Tuple):
            for k, target in enumerate(node.target.elts):
                loops[target.id] = [ast.literal_eval(item)[k] for item in node.iter.elts]
    wrapped = set()
    for node in ast.walk(instrument):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "tracer.wrap":
            owner, name = ast.unparse(node.args[0]), node.args[1]
            names = [name.value] if isinstance(name, ast.Constant) else loops[name.id]
            wrapped.update((owner, attribute) for attribute in names)
    return wrapped


def test_every_name_perfbench_wraps_resolves():
    """The traced benchmark run wraps functions by name; a rename in the
    package must fail here, not first in CI's traced smoke run."""
    import cdcgraph
    import cdcgraph.inference
    import cdcgraph.query

    owners = {"cdc": cdcgraph, "cdc.FactStore": cdcgraph.FactStore, "cdcgraph.query": cdcgraph.query,
              "cdcgraph.inference": cdcgraph.inference}
    wrapped = _wrapped_names()
    assert {("cdc", "eval_query"), ("cdcgraph.query", "star_pairs"), ("cdcgraph.query", "derived_facts_for"),
            ("cdc.FactStore", "match")} <= wrapped
    assert {owner for owner, _ in wrapped} <= set(owners)
    assert sorted(f"{owner}.{name}" for owner, name in wrapped if not hasattr(owners[owner], name)) == []

