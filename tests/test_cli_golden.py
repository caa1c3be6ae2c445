"""Golden transcripts of the ``cdc`` command line.

Each case pins the exit code, stdout and stderr of one invocation, plus the
bytes of any file it writes, in both output formats where the command takes
``--format``.  Temporary paths read ``{tmp}`` and the benchmark's timing is
masked.  The expected transcripts live in ``golden/cli.json``; rewrite that
file only for a deliberate change of CLI output.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from cdcgraph.cli import main
from conftest import DERIVED_EDGE_KB

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

INPUTS = {
    "custom.cdc": (
        "@relation triggers intra transitive acyclic.\n"
        'triggers(bug, panic, "ops").\n'
        'triggers(panic, outage, "ops").\n'
    ),
    "cycle.cdc": 'requires(a, b, "d").\nrequires(b, a, "d").\n',
    "bad.cdc": 'is_a(a b, "d").\nis_a(x, y, "d").\n',
    "derived-edge.cdc": DERIVED_EDGE_KB,
}

EDU = ["--case", "education"]
CBT = ["--case", "cbt"]
ENT = ["--case", "enterprise"]
CUSTOM = ["--kb", "{tmp}/custom.cdc"]
CYCLE = ["--kb", "{tmp}/cycle.cdc"]
BAD = ["--kb", "{tmp}/bad.cdc"]
DERIVED_EDGE = ["--kb", "{tmp}/derived-edge.cdc"]

# commands that take --format: each runs once per format
FORMATTED = {
    "load-education": ["load", *EDU],
    "load-cbt": ["load", *CBT],
    "load-custom": ["load", *CUSTOM],
    "load-no-kb": ["load"],
    "load-parse-error": ["load", *BAD],
    "load-missing-file": ["load", "--kb", "{tmp}/missing.cdc"],
    "load-strict-cycle": ["load", "--strict", *CYCLE],
    "load-case-and-kb": ["load", *EDU, *CUSTOM],
    "check-education": ["check", *EDU],
    "check-cbt": ["check", *CBT],
    "check-custom": ["check", *CUSTOM],
    "check-cycle": ["check", *CYCLE],
    "check-parse-error": ["check", *BAD],
    "materialize-education": ["materialize", *EDU],
    "materialize-cbt": ["materialize", *CBT],
    "materialize-custom": ["materialize", *CUSTOM],
    "materialize-cycle": ["materialize", *CYCLE],
    "query-education": ["query", *EDU, 'is_a_star(quadratic_function, ?S, "math@algebra")'],
    "query-education-prereqs": ["query", *EDU, 'all_prerequisites(calculus, ?P, "highschool")'],
    "query-cbt": ["query", *CBT, 'cbt_distortion(all_or_nothing_thinking, ?M, "CBT@language_markers")'],
    "query-custom": ["query", *CUSTOM, 'triggers_star(bug, ?X, "ops")'],
    "query-custom-inherit": ["query", *CUSTOM, "--domain-mode", "inherit", 'triggers(?A, ?B, "ops@night")'],
    "query-no-solutions": ["query", *EDU, 'is_a(pig, ?W, "math@algebra")'],
    "query-no-kb": ["query", 'is_a(?X, ?Y, "d")'],
    "query-caret": ["query", *EDU, "is_a(a b, ?C)"],
    "query-bad-domain": ["query", *EDU, 'is_a(?X, ?Y, "math@@algebra")'],
    "query-cycle": ["query", *CYCLE, 'requires_star(a, ?X, "d")'],
    "explain-education": ["explain", *EDU, 'is_a_star(quadratic_function, function, "math@algebra")'],
    "explain-custom": ["explain", *CUSTOM, 'triggers_star(bug, outage, "ops")'],
    "explain-cycle": ["explain", *CYCLE, 'requires(a, b, "d")'],
    "explain-not-derivable": ["explain", *EDU, 'is_a(pig, bird, "math@algebra")'],
    "explain-malformed": ["explain", *EDU, "is_a(a b"],
    "explain-empty": ["explain", *EDU, ""],
    "explain-star-asserted-edge": ["explain", *EDU,
                                   'is_a_star(quadratic_function, polynomial_function, "math@algebra")'],
    "explain-symmetric-stored": [
        "explain", *ENT, 'conflicts_with(battery_efficiency, real_time_sync, "product+engineering@mobile")'],
    "explain-symmetric-as-written": [
        "explain", *ENT, 'conflicts_with(real_time_sync, battery_efficiency, "product+engineering@mobile")'],
    "explain-derived-edge": ["explain", *DERIVED_EDGE, 'r1_star(k0, k3, "d")'],
    "prereqs-education": ["prereqs", *EDU, "calculus", "highschool"],
    "prereqs-none": ["prereqs", *EDU, "arithmetic", "highschool"],
    "prereqs-cycle": ["prereqs", *CYCLE, "a", "d"],
    "prereqs-bad-domain": ["prereqs", *EDU, "calculus", "high@@school"],
    "prereqs-empty-concept": ["prereqs", *EDU, "", "highschool"],
    "stats-education": ["stats", *EDU],
    "stats-cbt": ["stats", *CBT],
    "stats-custom": ["stats", *CUSTOM],
    "save-education": ["save", *EDU, "{tmp}/out.cdc"],
    "save-cbt": ["save", *CBT, "{tmp}/out.cdc"],
    "save-custom": ["save", *CUSTOM, "{tmp}/out.cdc"],
    "save-unwritable": ["save", *EDU, "{tmp}/no_such_dir/out.cdc"],
    "export-prolog-education": ["export-prolog", *EDU, "{tmp}/out.pl"],
    "export-prolog-custom": ["export-prolog", *CUSTOM, "{tmp}/out.pl"],
    "export-prolog-unwritable": ["export-prolog", *EDU, "{tmp}/no_such_dir/out.pl"],
    "bench": ["bench", "200", "4"],
    "bench-seed": ["bench", "300", "3", "--seed", "3"],
    "bench-invalid": ["bench", "5", "10"],
}

REPL_SCRIPT = """\
help
is_a(dog, mammal, "biology").
?- is_a(dog, ?W, "biology").
?- broken(((
% a comment

retract is_a(dog, mammal, "biology").
retract is_a(cat, mammal, "biology").
retract is_a(a b
?- is_a(dog, ?W, "biology").
garbage that is not a clause
check
stats
quit
"""

# (argv, stdin, CDC_KB_PATH): repl takes no --format
CASES = {
    **{
        f"{name}[{fmt}]": ([*argv, "--format", fmt], None, None)
        for name, argv in FORMATTED.items()
        for fmt in ("text", "json-lines")
    },
    "env-kb-path[text]": (["query", 'triggers(bug, ?X, "ops")'], None, "{tmp}/custom.cdc"),
    "repl[text]": (["repl"], REPL_SCRIPT, None),
    "repl-education[text]": (
        ["repl", *EDU],
        '?- all_prerequisites(calculus, ?P, "highschool").\n?- is_a_star(?X, function, "math@algebra").\n',
        None,
    ),
    "repl-inherit[text]": (
        ["repl", *CUSTOM, "--domain-mode", "inherit"],
        '?- triggers_star(bug, ?X, "ops@night").\nquit\n',
        None,
    ),
    "repl-parse-error[text]": (["repl", *BAD], "quit\n", None),
}

_BENCH_TIME = re.compile(r"(materialize time: +)\S+ s")


def transcript(argv: list[str], tmp_path: Path) -> dict:
    """Run ``cdc argv`` in-process with the inputs written under ``tmp_path``
    and return its normalised transcript."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    tmp = str(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([arg.replace("{tmp}", tmp) for arg in argv])
    stdout = out.getvalue()
    if argv[0] == "bench":
        stdout = _BENCH_TIME.sub(r"\1<masked> s", stdout)
        if "json-lines" in argv:
            stdout = "".join(_without_timing(line) for line in stdout.splitlines(keepends=True))
    written = {
        path.name: path.read_text().replace(tmp, "{tmp}")
        for path in sorted(tmp_path.iterdir())
        if path.name not in INPUTS
    }
    return {
        "exit": status,
        "stdout": stdout.replace(tmp, "{tmp}"),
        "stderr": err.getvalue().replace(tmp, "{tmp}"),
        "files": written,
    }


def _without_timing(line: str) -> str:
    record = json.loads(line)
    record.pop("materialize_seconds")
    return json.dumps(record, sort_keys=True) + "\n"


def run_case(case_id: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> dict:
    argv, stdin, env_kb = CASES[case_id]
    if env_kb is None:
        monkeypatch.delenv("CDC_KB_PATH", raising=False)
    else:
        monkeypatch.setenv("CDC_KB_PATH", env_kb.replace("{tmp}", str(tmp_path)))
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    return transcript(argv, tmp_path)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_golden(case_id, golden, tmp_path, monkeypatch):
    assert run_case(case_id, tmp_path, monkeypatch) == golden[case_id]
