"""Smoke tests: the scripts under ``scripts/`` run and print their header."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_bench_sweep():
    lines = run_script("run_bench.py", "--facts", "200", "--domains", "1", "2")
    assert lines[0].split() == ["facts", "domains", "full", "filtered", "factor", "mat", "(s)", "derived"]
    assert [line.split()[:2] for line in lines[2:]] == [["200", "1"], ["200", "2"]]


def test_casestudy_tour_visits_every_case():
    lines = run_script("casestudy_tour.py")
    assert lines[0].startswith("== education: ")
    headers = [line.split(":")[0] for line in lines if line.startswith("== ")]
    assert headers == ["== education", "== enterprise", "== techdocs", "== cbt"]
