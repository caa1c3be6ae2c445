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
