from __future__ import annotations

import io
import json

import pytest

from cdcgraph.cli import main, run_bench

APPLE_KB = """\
is_a(apple, fruit, "Biology@Plant_Taxonomy").
is_a(apple, company, "Business@Tech_Sector").
"""

CYCLE_KB = """\
requires(a, b, "d").
requires(b, a, "d").
"""


@pytest.fixture
def apple_path(tmp_path):
    path = tmp_path / "apple.cdc"
    path.write_text(APPLE_KB)
    return str(path)


def test_query_golden_education(capsys):
    status = main(["query", "--case", "education", 'strategy(explain_function, ?S, "math_background@cs")'])
    assert status == 0
    assert capsys.readouterr().out.strip() == "?S = use_formal_definition"


def test_query_no_solutions_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty.cdc"
    empty.write_text("")
    status = main(["query", "--kb", str(empty), 'is_a(?X, ?Y, "d")'])
    assert status == 1
    assert "no solutions" in capsys.readouterr().out


def test_query_malformed_exit_2_with_caret(capsys):
    status = main(["query", "--case", "education", "is_a(a b, ?C)"])
    assert status == 2
    err = capsys.readouterr().err
    assert "^" in err


def test_query_requires_kb(capsys, monkeypatch):
    monkeypatch.delenv("CDC_KB_PATH", raising=False)
    status = main(["query", 'is_a(?X, ?Y, "d")'])
    assert status == 2


def test_env_var_kb_path(apple_path, capsys, monkeypatch):
    monkeypatch.setenv("CDC_KB_PATH", apple_path)
    status = main(["query", 'is_a(apple, ?W, "Biology@Plant_Taxonomy")'])
    assert status == 0
    assert capsys.readouterr().out.strip() == "?W = fruit"


def test_check_apple_kb(apple_path, capsys):
    status = main(["check", "--kb", apple_path])
    assert status == 0
    out = capsys.readouterr().out
    assert "witness" in out
    assert "0 errors" in out


def test_check_cycle_exit_1(tmp_path, capsys):
    path = tmp_path / "cycle.cdc"
    path.write_text(CYCLE_KB)
    status = main(["check", "--kb", str(path)])
    assert status == 1
    assert "cycle" in capsys.readouterr().out


def test_check_techdocs_clean(capsys):
    assert main(["check", "--case", "techdocs"]) == 0


def test_check_unreadable_exit_2(capsys):
    assert main(["check", "--kb", "/no/such/file.cdc"]) == 2


def test_check_json_lines(apple_path, capsys):
    status = main(["check", "--kb", apple_path, "--format", "json-lines"])
    assert status == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = [r["type"] for r in records]
    assert "witness" in kinds and "summary" in kinds
    summary = records[-1]
    assert summary == {"type": "summary", "errors": 0, "warnings": 0, "witnesses": 1}


def test_load_reports_counts(apple_path, capsys):
    status = main(["load", "--kb", apple_path])
    assert status == 0
    assert "loaded 2 facts" in capsys.readouterr().out


def test_load_syntax_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cdc"
    path.write_text("is_a(a b, \"d\").\n")
    assert main(["load", "--kb", str(path)]) == 2


def test_materialize_counts(capsys):
    status = main(["materialize", "--case", "education"])
    assert status == 0
    out = capsys.readouterr().out
    assert "is_a_star: 1" in out
    assert "requires_star: 1" in out


def test_materialize_cycle_exit_1(tmp_path, capsys):
    path = tmp_path / "cycle.cdc"
    path.write_text(CYCLE_KB)
    assert main(["materialize", "--kb", str(path)]) == 1


def test_explain_trace(capsys):
    status = main(["explain", "--case", "education", 'is_a_star(quadratic_function, function, "math@algebra")'])
    assert status == 0
    out = capsys.readouterr().out
    assert "[transitive]" in out
    assert "[asserted]" in out


def test_explain_not_derivable_exit_1(capsys):
    status = main(["explain", "--case", "education", 'is_a(pig, bird, "math@algebra")'])
    assert status == 1


def test_prereqs_topological_order(capsys):
    status = main(["prereqs", "--case", "education", "calculus", "highschool"])
    assert status == 0
    assert capsys.readouterr().out.split() == ["arithmetic", "algebra"]


def test_prereqs_none_exit_1(capsys):
    status = main(["prereqs", "--case", "education", "arithmetic", "highschool"])
    assert status == 1


def test_prereqs_bad_concept_exit_2(capsys):
    assert main(["prereqs", "--case", "education", "", "highschool"]) == 2
    assert main(["prereqs", "--case", "education", "two\nlines", "highschool"]) == 2
    assert "line break" in capsys.readouterr().err


def test_stats_text(apple_path, capsys):
    status = main(["stats", "--kb", apple_path])
    assert status == 0
    out = capsys.readouterr().out
    assert "total facts: 2" in out
    assert "Biology@Plant_Taxonomy: 1" in out


def test_save_then_reload(tmp_path, apple_path, capsys):
    out = tmp_path / "saved.cdc"
    assert main(["save", "--kb", apple_path, str(out)]) == 0
    assert main(["query", "--kb", str(out), 'is_a(apple, ?W, "Biology@Plant_Taxonomy")']) == 0


def test_export_prolog_then_reload(tmp_path, apple_path, capsys):
    out = tmp_path / "kb.pl"
    assert main(["export-prolog", "--kb", apple_path, str(out)]) == 0
    assert ":- dynamic" in out.read_text()
    assert main(["query", "--kb", str(out), 'is_a(apple, ?W, "Biology@Plant_Taxonomy")']) == 0


def test_query_json_lines(capsys):
    status = main([
        "query", "--case", "education", "--format", "json-lines",
        'is_a_star(quadratic_function, ?S, "math@algebra")',
    ])
    assert status == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records == [
        {"type": "solution", "bindings": {"?S": "function"}},
        {"type": "solution", "bindings": {"?S": "polynomial_function"}},
    ]


def test_strict_load_rejects_cycles(tmp_path, capsys):
    path = tmp_path / "cycle.cdc"
    path.write_text(CYCLE_KB)
    assert main(["load", "--kb", str(path), "--strict"]) == 2
    assert main(["load", "--kb", str(path)]) == 0  # lax load defers to check


def test_domain_mode_flag(tmp_path, capsys):
    path = tmp_path / "kb.cdc"
    path.write_text('is_a(electron, particle, "Physics").\n')
    assert main(["query", "--kb", str(path), 'is_a(electron, ?W, "Physics@Quantum")']) == 1
    capsys.readouterr()
    status = main(["query", "--kb", str(path), "--domain-mode", "inherit", 'is_a(electron, ?W, "Physics@Quantum")'])
    assert status == 0
    assert capsys.readouterr().out.strip() == "?W = particle"


def test_bench_single_partition_factor_1(capsys):
    report = run_bench(100, 1, seed=0)
    assert report["reduction_factor"] == 1.0


def test_bench_uniform_1000_over_10(capsys):
    report = run_bench(1000, 10, seed=0)
    assert 8 <= report["reduction_factor"] <= 12
    assert report["scanned_full"] == 1000


def test_bench_cli_invalid_sizes(capsys):
    assert main(["bench", "5", "10"]) == 2
    assert main(["bench", "10", "0"]) == 2


def test_bench_cli_json(capsys):
    status = main(["bench", "200", "4", "--format", "json-lines"])
    assert status == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["type"] == "bench"
    assert record["n_facts"] == 200
    assert record["reduction_factor"] == pytest.approx(4.0)


def test_repl_session(monkeypatch, capsys):
    lines = io.StringIO(
        'is_a(dog, mammal, "biology").\n'
        '?- is_a(dog, ?W, "biology").\n'
        'retract is_a(dog, mammal, "biology").\n'
        '?- is_a(dog, ?W, "biology").\n'
        "quit\n"
    )
    monkeypatch.setattr("sys.stdin", lines)
    status = main(["repl"])
    assert status == 0
    out = capsys.readouterr().out
    assert "asserted 1 fact(s)" in out
    assert "?W = mammal" in out
    assert "retracted" in out
    assert "no solutions" in out


def test_repl_starts_with_case(monkeypatch, capsys):
    lines = io.StringIO('?- evolves_to(class_component, ?N, "react@paradigm_shift").\nquit\n')
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl", "--case", "techdocs"]) == 0
    assert "?N = functional_component" in capsys.readouterr().out


def test_repl_recovers_from_bad_input(monkeypatch, capsys):
    lines = io.StringIO(
        "garbage that is not a clause\n"
        '?- broken(((\n'
        'is_a(a, b, "d").\n'
        "quit\n"
    )
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "error" in out
    assert "asserted 1 fact(s)" in out


def test_case_and_kb_sources_merge(tmp_path, capsys):
    extra = tmp_path / "extra.cdc"
    extra.write_text('requires(linear_algebra, algebra, "highschool").\n')
    status = main(["prereqs", "--case", "education", "--kb", str(extra), "linear_algebra", "highschool"])
    assert status == 0
    assert capsys.readouterr().out.split() == ["arithmetic", "algebra"]


def test_save_preserves_custom_relation_directives(tmp_path, capsys):
    kb = tmp_path / "custom.cdc"
    kb.write_text('@relation triggers intra transitive acyclic.\ntriggers(bug, panic, "ops").\n')
    out = tmp_path / "saved.cdc"
    assert main(["save", "--kb", str(kb), str(out)]) == 0
    assert "@relation triggers intra transitive acyclic." in out.read_text()
    capsys.readouterr()
    assert main(["query", "--kb", str(out), 'triggers_star(bug, ?X, "ops")']) == 0
    assert capsys.readouterr().out.strip() == "?X = panic"
