from __future__ import annotations

import argparse
import io
import json
import random

import pytest

from cdcgraph import FactStore, builtin_registry, cli, load_casestudy, load_text, materialize, save_file
from cdcgraph.cli import build_parser, main
from cdcgraph.kbfile import CASESTUDY_NAMES, clause_texts
from cdcgraph.synthetic import generate_synthetic_store, run_bench
from conftest import DERIVED_EDGE_KB, carrier_chain_text, random_registry_store
import reference_explain

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


def test_query_bad_quoted_concept_exit_2_with_caret(capsys):
    status = main(["query", "--case", "education", 'is_a("", ?Y, "d")'])
    assert status == 2
    assert capsys.readouterr().err == 'error: empty concept symbol at offset 5\n  is_a("", ?Y, "d")\n       ^\n'
    status = main(["query", "--case", "education", 'is_a(a, "x\ny", ?D)'])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: concept symbol 'x\\ny' holds a line break at offset 8\n")


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


def test_check_lists_duplicate_facts_first(tmp_path, capsys):
    """The loader's duplicate-fact warnings come ahead of check's own lints,
    and the summary counts both."""
    path = tmp_path / "dup.cdc"
    path.write_text('is_a(a, b, "d").\nis_a(a, b, "d").\nis_a(a, b, "D").\n')
    duplicate = f'{path}:2:1: warning: duplicate fact is_a(a, b, "d")'
    assert main(["check", "--kb", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"warning [duplicate-fact]: {duplicate}",
        "warning [case-variant-domains]: domains differ only by case: D, d",
        "0 errors, 2 warnings, 0 separation witnesses",
    ]
    assert main(["check", "--kb", str(path), "--format", "json-lines"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r.get("kind") for r in records] == ["duplicate-fact", "case-variant-domains", None]
    assert records[0]["description"] == duplicate
    assert records[-1] == {"type": "summary", "errors": 0, "warnings": 2, "witnesses": 0}


def test_every_output_spells_a_domain_canonically(tmp_path, capsys):
    """A domain written ``zz+aa@m`` is saved, exported, warned about,
    reported and rendered as ``aa+zz@m``: no output reads the written atom
    order."""
    kb = tmp_path / "spelled.cdc"
    kb.write_text('is_a(a, b, "zz+aa@m").\nis_a(a, b, "zz+aa@m").\nis_a(b, a, "zz+aa@m").\n')
    saved, exported = tmp_path / "saved.cdc", tmp_path / "kb.pl"
    assert main(["save", "--kb", str(kb), str(saved)]) == 0
    assert saved.read_bytes() == b'is_a(a, b, "aa+zz@m").\nis_a(b, a, "aa+zz@m").\n'
    assert main(["export-prolog", "--kb", str(kb), str(exported)]) == 0
    assert "is_a(a, b, 'aa+zz@m').\nis_a(b, a, 'aa+zz@m').\n" in exported.read_text()
    capsys.readouterr()

    assert main(["check", "--kb", str(kb)]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "error [is_a @ aa+zz@m]: cycle a -> b -> a",
        f'warning [duplicate-fact]: {kb}:2:1: warning: duplicate fact is_a(a, b, "aa+zz@m")',
    ]
    assert main(["materialize", "--kb", str(kb)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: cycle in acyclic relation 'is_a' within domain 'aa+zz@m': a -> b -> a"
    )
    assert main(["query", "--kb", str(kb), "is_a(a, ?Y, ?D)"]) == 0
    assert capsys.readouterr().out == "?Y = b, ?D = aa+zz@m\n"


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


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_explain_deep_chain(fmt, tmp_path, capsys):
    """A trace 1,200 levels deep prints in full: past the recursion limit,
    and past the depth at which ``json.dumps`` gives up."""
    n = 1200
    path = tmp_path / "chain.cdc"
    path.write_text(carrier_chain_text(n))
    assert main(["explain", "--kb", str(path), "--format", fmt, 'trait(c0000, red, "d")']) == 0
    out = capsys.readouterr().out

    def trait(i):
        return f'trait(c{i:04d}, red, "d")'

    def under(i):
        return f'under(c{i:04d}, c{i + 1:04d}, "d")'

    if fmt == "text":
        want = []
        for i in range(n):
            want += [f"{'  ' * i}{trait(i)}   [inheritance]", f"{'  ' * (i + 1)}{under(i)}   [asserted]"]
        want.append(f"{'  ' * n}{trait(n)}   [asserted]")
    else:
        def head(clause):
            return f'{{"fact": {json.dumps(clause)}, "premises": ['

        asserted = '], "rule": "asserted", "type": "trace"}'
        opened = "".join(f"{head(trait(i))}{head(under(i))}{asserted}, " for i in range(n))
        want = [opened + head(trait(n)) + asserted + '], "rule": "inheritance", "type": "trace"}' * n]
    assert out.splitlines() == want


def _assert_explain_json_matches_reference(store: FactStore, source: list[str], capsys) -> None:
    """``cdc explain --format json-lines`` on every asserted and derived fact
    of ``store``, loaded by the CLI from ``source``, writes what
    ``json.dumps`` writes of the recursively built record.  Each fact is
    given both with no '.' and as the clause save writes, which read by
    different paths."""
    closure = materialize(store)
    facts = list(store) + [fact for facts in closure.derived.values() for fact in facts]
    assert facts
    for fact in facts:
        want = json.dumps(reference_explain.trace_record(fact, store, closure), sort_keys=True)
        for text in (repr(fact), clause_texts((fact,))[0]):
            assert main(["explain", *source, "--format", "json-lines", text]) == 0, text
            assert capsys.readouterr().out == want + "\n", text


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_explain_json_matches_reference_on_case_studies(name, capsys):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    _assert_explain_json_matches_reference(store, ["--case", name], capsys)


def test_explain_json_matches_reference_on_random_registries(tmp_path, capsys):
    rng = random.Random(61)
    path = tmp_path / "kb.cdc"
    for _ in range(10):
        store = random_registry_store(rng)
        save_file(store, str(path))
        _assert_explain_json_matches_reference(store, ["--kb", str(path)], capsys)


def test_explain_json_matches_reference_on_a_derived_edge(tmp_path, capsys):
    path = tmp_path / "derived-edge.cdc"
    path.write_text(DERIVED_EDGE_KB)
    store = FactStore(builtin_registry())
    assert load_text(DERIVED_EDGE_KB, store).ok
    _assert_explain_json_matches_reference(store, ["--kb", str(path)], capsys)


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


def test_synthetic_store_skips_a_domain_that_draws_no_fact():
    # 3 facts over 8 domains: at least 5 domains draw none
    store = generate_synthetic_store(3, 8, seed=0)
    assert len(store) == 3
    assert 1 <= len(store.relation_domains("is_a")) <= 3


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


def test_repl_survives_a_bad_quoted_concept(monkeypatch, capsys):
    lines = io.StringIO(
        '?- is_a("", ?Y, "d")\n'
        'is_a(a, b, "d").\n'
        '?- is_a(a, ?Y, "d")\n'
        "quit\n"
    )
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["error: empty concept symbol at offset 8", "asserted 1 fact(s)", "?Y = b"]


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


def test_prereqs_over_intransitive_requires_exit_2(tmp_path, capsys):
    path = tmp_path / "flat.cdc"
    path.write_text('@relation requires intra.\nrequires(a, b, "d").\n')
    assert main(["prereqs", "--kb", str(path), "a", "d"]) == 2
    assert capsys.readouterr().err == "error: all_prerequisites needs a transitive relation, 'requires' is not\n"


@pytest.mark.parametrize("argv", [["load"], ["check"], ["stats"], ["query", 'is_a(?X, ?Y, "d")']])
def test_kb_not_utf8_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "latin1.cdc"
    path.write_bytes(b'is_a(a, b, "d").\n\xff\xfe')
    assert main([*argv, "--kb", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:2:1: error: not UTF-8: byte 0xff at offset 17 does not decode\n"


# the flags of each subcommand besides its positionals and --help
SUBCOMMAND_FLAGS = {
    **dict.fromkeys(
        ["load", "check", "materialize", "explain", "prereqs", "stats", "save", "export-prolog"],
        {"--kb", "--case", "--strict", "--format"},
    ),
    "query": {"--kb", "--case", "--strict", "--format", "--domain-mode"},
    "repl": {"--kb", "--case", "--strict", "--domain-mode"},
    "bench": {"--format", "--seed"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    [commands] = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    taken = {
        name: {flag for flag in parser._option_string_actions if flag.startswith("--")} - {"--help"}
        for name, parser in commands.choices.items()
    }
    assert taken == SUBCOMMAND_FLAGS
    assert sum(map(len, taken.values())) == 43


@pytest.mark.parametrize("argv", [
    ["load", "--case", "education", "--seed", "3"],
    ["check", "--case", "education", "--domain-mode", "inherit"],
    ["repl", "--format", "json-lines"],
    ["bench", "10", "1", "--case", "education"],
])
def test_ignored_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_explain_reads_no_closure_for_an_asserted_fact(monkeypatch, capsys):
    """An asserted fact, in either orientation if its relation is symmetric,
    and a star fact over an asserted edge are leaves: ``cdc explain`` answers
    them without ``materialize``, and materializes once for a derived fact."""
    made = []
    monkeypatch.setattr(cli, "materialize", lambda store: made.append(store) or materialize(store))
    for fact in ['is_a(polynomial_function, function, "math@algebra")',
                 'is_a_star(polynomial_function, function, "math@algebra")',
                 'analogous_to(machine, function, "engineering@systems", "cs@programming")']:
        assert main(["explain", "--case", "education", fact]) == 0
        assert capsys.readouterr().out == f"{fact}   [asserted]\n"
    assert made == []
    assert main(["explain", "--case", "education", 'is_a_star(quadratic_function, function, "math@algebra")']) == 0
    assert "[transitive]" in capsys.readouterr().out
    assert len(made) == 1


def test_explain_checks_for_cycles_once(monkeypatch, tmp_path, capsys):
    """``cdc explain`` runs the acyclicity pass once: itself for a leaf, and
    inside ``materialize`` for a derived fact.  On a cyclic KB either kind of
    fact exits 1 with nothing on stdout."""
    from cdcgraph import inference

    calls = []
    for module in (cli, inference):
        monkeypatch.setattr(module, "ensure_acyclic", lambda store, check=module.ensure_acyclic:
                            calls.append(1) or check(store))
    for fact in ['is_a(polynomial_function, function, "math@algebra")',
                 'is_a_star(quadratic_function, function, "math@algebra")']:
        calls.clear()
        assert main(["explain", "--case", "education", fact]) == 0
        assert capsys.readouterr().out and calls == [1]
    path = tmp_path / "cycle.cdc"
    path.write_text(CYCLE_KB)
    for fact in ['requires(a, b, "d")', 'requires_star(a, b, "d")', 'requires_star(a, a, "d")']:
        calls.clear()
        assert main(["explain", "--kb", str(path), fact]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cycle in acyclic relation 'requires'") and calls == [1]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["stats", "--case", "education"]) == 0
    assert built == [1]
