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
