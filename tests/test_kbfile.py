from __future__ import annotations

import copy
import pickle

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    CdcError,
    ConceptId,
    Fact,
    FactStore,
    RegistryError,
    RelationShape,
    RelationSpec,
    builtin_registry,
    export_interop,
    load_casestudy,
    load_file,
    load_text,
    parse_domain,
    parse_fact_text,
    save_file,
)
from cdcgraph.kbfile import Diagnostic, LoadedFact, LoadResult, SourceSpan, render_clause
from conftest import assert_record_contract, assert_tuple_contract, fusion, grammar_text, intra


def fresh_store() -> FactStore:
    return FactStore(builtin_registry())


def test_load_single_clause():
    store = fresh_store()
    result = load_text('is_a(apple, fruit, "Biology@Plant_Taxonomy").', store)
    assert result.ok
    assert len(result.facts) == 1
    fact = result.facts[0].fact
    assert fact.relation == "is_a"
    assert fact.concepts[0].symbol == "apple"
    assert fact.domains[0] == parse_domain("Biology@Plant_Taxonomy")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.cdc"
    path.write_text("")
    store = fresh_store()
    result = load_file(path, store)
    assert result.facts == [] and result.diagnostics == []


def test_load_file_not_utf8_is_one_error_diagnostic(tmp_path):
    path = tmp_path / "latin1.cdc"
    path.write_bytes('is_a(a, b, "d").\r\nis_a(\u00e9, '.encode() + b"\xff\xfe, \"d\").\n")
    store = fresh_store()
    result = load_file(path, store)
    assert result.facts == [] and len(store) == 0
    [error] = result.diagnostics
    assert str(error) == f"{path}:2:9: error: not UTF-8: byte 0xff at offset 27 does not decode"


def test_load_file_reads_any_bytes_like_a_text_mode_read(tmp_path):
    """On arbitrary bytes load_file returns a result or raises CdcError or
    OSError; on UTF-8 it loads what a text-mode read would give load_text."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from cdcgraph import LoadResult

    path = tmp_path / "noise.cdc"
    pieces = st.lists(grammar_text(8).map(str.encode) | st.binary(max_size=3), max_size=8).map(b"".join)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=80) | pieces)
    def fuzz(data):
        path.write_bytes(data)
        try:
            result = load_file(path, fresh_store())
        except (CdcError, OSError):
            return
        assert isinstance(result, LoadResult)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            assert result.facts == [] and [d.severity for d in result.diagnostics] == ["error"]
            return
        assert result == load_text(text, fresh_store(), file=str(path))

    fuzz()


def test_load_comments_and_multiline():
    store = fresh_store()
    result = load_text(
        """% a comment
        is_a(Neural_Network,
             Computational_Model,
             'CS@ML').   % trailing comment
        """,
        store,
    )
    assert result.ok and len(store) == 1


def test_single_quoted_concepts():
    store = fresh_store()
    result = load_text("context_value('Student_Zhang', biology_background, \"student@profile\").", store)
    assert result.ok
    assert result.facts[0].fact.concepts[0].symbol == "Student_Zhang"


def test_bare_atom_in_domain_position():
    store = fresh_store()
    assert load_text("requires(calculus, algebra, highschool).", store).ok
    assert store.facts()[0].domains[0] == parse_domain("highschool")


def test_syntax_error_has_span():
    store = fresh_store()
    result = load_text("is_a(apple fruit, \"d\").", store, file="bad.cdc")
    assert not result.ok
    diag = result.errors[0]
    assert diag.span.file == "bad.cdc"
    assert diag.span.line == 1
    assert diag.span.column > 1


def test_error_recovery_continues():
    store = fresh_store()
    result = load_text(
        "is_a(apple fruit, \"d\").\nis_a(pear, fruit, \"d\").\n",
        store,
    )
    assert len(result.errors) == 1
    assert len(result.facts) == 1


def test_unterminated_quote_recovers_at_the_line_break():
    # the quote runs to the line break and takes the line's '.' with it;
    # the next line's clause still loads
    store = fresh_store()
    result = load_text('is_a(\'a, b, "d").\nis_a(c, e, "d").\nis_a(f, g, "d").\n', store)
    assert [str(d) for d in result.diagnostics] == ["<string>:1:6: error: unterminated quote"]
    assert [repr(loaded.fact) for loaded in result.facts] == ['is_a(c, e, "d")', 'is_a(f, g, "d")']


def test_unknown_relation_diagnostic():
    store = fresh_store()
    result = load_text('totally_new(a, b, "d").', store)
    assert not result.ok
    assert "unknown relation" in result.errors[0].message


def test_arity_mismatch_diagnostic():
    store = fresh_store()
    result = load_text('analogous_to(a, b, "d").', store)
    assert not result.ok
    assert "4 arguments" in result.errors[0].message


def test_bad_domain_column_points_into_literal():
    store = fresh_store()
    result = load_text('is_a(a, b, "x@@y").', store, file="f.cdc")
    assert not result.ok
    diag = result.errors[0]
    # literal starts at column 12; the second '@' is 2 chars in, +1 for the quote
    assert diag.span.column == 12 + 1 + 2
    assert diag.message == "bad domain: empty segment"  # the column is the only position


def test_duplicate_warning():
    store = fresh_store()
    result = load_text('is_a(a, b, "d").\nis_a(a, b, "d").\n', store)
    assert result.ok
    assert len(result.warnings) == 1
    assert "duplicate" in result.warnings[0].message
    assert len(store) == 1


def test_relation_directive_registers_before_use():
    store = fresh_store()
    result = load_text(
        """@relation triggers intra transitive acyclic.
        triggers(code_bug, self_negation, "CBT@situation").
        """,
        store,
    )
    assert result.ok
    assert store.registry.lookup("triggers").transitive


def test_relation_directive_override():
    store = fresh_store()
    result = load_text("@relation cause_of intra transitive.", store)
    assert result.ok
    assert store.registry.lookup("cause_of").transitive


def test_relation_directive_inherits_via():
    store = fresh_store()
    result = load_text("@relation labeled_with intra inherits_via=is_a.", store)
    assert result.ok
    assert store.registry.lookup("labeled_with").inherits_via == "is_a"


@pytest.mark.parametrize("text, name, line", [
    ('@relation r intra.\n@relation r intra transitive inherits_via=r.\nr(a, b, "d").\n', "r", 2),
    ('@relation is_a intra transitive acyclic inherits_via=has_attribute.\nis_a(a, b, "d").\n', "is_a", 1),
    ('@relation r1 intra.\n@relation r2 intra inherits_via=r1.\n@relation r3 intra inherits_via=r2.\n'
     '@relation r1 intra inherits_via=r3.\nr1(a, b, "d").\n', "r1", 4),
], ids=["self", "builtin-override", "three"])
def test_relation_directive_closing_a_carrier_cycle_is_refused(text, name, line):
    store = fresh_store()
    held = builtin_registry().get(name) or RelationSpec(name)
    result = load_text(text, store, file="kb.cdc")
    assert [(d.severity, str(d.span), d.message) for d in result.diagnostics] == [
        ("error", f"kb.cdc:{line}:1", f"{name}: inheritance carriers would form a cycle")]
    # the old declaration stays, and the facts after the directive load
    assert store.registry.lookup(name) == held
    assert intra(name, "a", "b", "d") in store


def test_relation_directive_bad_shape():
    store = fresh_store()
    result = load_text("@relation oops sideways.", store)
    assert not result.ok


@pytest.mark.parametrize("text, held", [
    # a shape change would leave an intra fact under a cross relation
    ('@relation bar intra.\nbar(a, b, "d").\n@relation bar cross.\n', 1),
    # a flag change would leave both orientations of a symmetric fact
    ('@relation foo intra.\nfoo(b, a, "d").\n@relation foo intra symmetric.\nfoo(a, b, "d").\n', 2),
], ids=["shape", "flags"])
def test_relation_redefinition_after_its_facts_is_refused(text, held, tmp_path):
    store = fresh_store()
    name = text.split()[1]
    result = load_text(text, store)
    assert [(d.severity, d.span.line, d.message) for d in result.diagnostics] == [
        ("error", 3, f"{name}: cannot change the declaration of a relation that holds facts")]
    # the first declaration stays in force
    assert store.registry.lookup(name) == RelationSpec(name)
    assert len(store) == held
    path = tmp_path / "kb.cdc"
    save_file(store, path)
    reloaded = fresh_store()
    assert load_file(path, reloaded).ok
    assert reloaded.fact_set() == store.fact_set()
    assert reloaded.registry.lookup(name) == store.registry.lookup(name)


def test_relation_redeclared_unchanged_after_its_facts():
    store = fresh_store()
    result = load_text('@relation foo intra symmetric.\nfoo(b, a, "d").\n@relation foo intra symmetric.\n'
                       '@relation baz cross.\nfoo(a, b, "d").\n@relation baz intra.\n', store)
    assert [str(d) for d in result.diagnostics] == ['<string>:5:1: warning: duplicate fact foo(a, b, "d")']
    # a relation without facts may still change
    assert store.registry.lookup("baz").shape.value == "intra"


def test_api_override_after_its_facts_is_refused(tmp_path):
    """The registry refuses the redeclaration ``load_text`` refuses, for
    every store bound to it, whoever asks."""
    store = fresh_store()
    store.registry.register(RelationSpec("bar"))
    store.assert_fact(intra("bar", "a", "b", "d"))
    with pytest.raises(RegistryError, match="^bar: cannot change the declaration of a relation that holds facts$"):
        store.registry.register(RelationSpec("bar", RelationShape.CROSS), override=True)
    # the same declaration again is allowed, and the first one stays
    store.registry.register(RelationSpec("bar"), override=True)
    assert store.registry.lookup("bar") == RelationSpec("bar")
    assert store.facts()[0] in store
    path = tmp_path / "kb.cdc"
    save_file(store, path)
    reloaded = fresh_store()
    assert load_file(path, reloaded).ok
    assert reloaded.fact_set() == store.fact_set()
    # a second store on the registry holds the relation just the same
    other = FactStore(store.registry)
    with pytest.raises(RegistryError):
        other.registry.register(RelationSpec("bar", symmetric=True), override=True)
    # once no store holds a fact of it, the relation may change
    store.retract_fact(store.facts()[0])
    store.registry.register(RelationSpec("bar", RelationShape.CROSS), override=True)
    assert store.registry.lookup("bar").shape is RelationShape.CROSS


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["deepcopy", "pickle"])
def test_copied_store_binds_its_registry(duplicate):
    store = fresh_store()
    store.assert_fact(intra("cause_of", "a", "b", "d"))
    twin = duplicate(store)
    assert twin.fact_set() == store.fact_set() and twin.registry is not store.registry
    with pytest.raises(RegistryError, match="holds facts"):
        twin.registry.register(RelationSpec("cause_of", symmetric=True), override=True)


def test_save_sorted_and_deterministic(tmp_path):
    first = fresh_store()
    for clause in (
        'requires(b, a, "d2").',
        'is_a(z, y, "d1").',
        'is_a(a, b, "d1").',
    ):
        load_text(clause, first)
    second = fresh_store()
    for clause in (
        'is_a(a, b, "d1").',
        'is_a(z, y, "d1").',
        'requires(b, a, "d2").',
    ):
        load_text(clause, second)
    p1, p2 = tmp_path / "one.cdc", tmp_path / "two.cdc"
    save_file(first, p1)
    save_file(second, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines == ['is_a(a, b, "d1").', 'is_a(z, y, "d1").', 'requires(b, a, "d2").']


def test_save_empty_store(tmp_path):
    path = tmp_path / "empty.cdc"
    save_file(fresh_store(), path)
    assert path.read_text() == ""


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_case_study_round_trip(name, tmp_path):
    store = fresh_store()
    assert load_casestudy(name, store).ok
    out = tmp_path / f"{name}.cdc"
    save_file(store, out)
    reloaded = FactStore(builtin_registry())
    assert load_file(out, reloaded).ok
    assert reloaded.fact_set() == store.fact_set()
    # and saving again is byte-identical
    out2 = tmp_path / f"{name}2.cdc"
    save_file(reloaded, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_unknown_case_study():
    with pytest.raises(CdcError):
        load_casestudy("nope", fresh_store())


def test_education_contents():
    store = fresh_store()
    load_casestudy("education", store)
    assert intra("strategy", "explain_function", "use_workflow_metaphor", "design_background@cs") in store
    assert intra("strategy", "explain_function", "use_formal_definition", "math_background@cs") in store


def test_enterprise_contents_canonical_fusion_domain():
    store = fresh_store()
    load_casestudy("enterprise", store)
    expected = fusion(
        "fuses_with", "user_experience", "technical_feasibility", "integrated_product_spec",
        "engineering+product",
    )
    assert expected in store
    assert "engineering+product" in store.stats().facts_per_domain


def test_techdocs_contents():
    store = fresh_store()
    load_casestudy("techdocs", store)
    assert intra("evolves_to", "class_component", "functional_component", "react@paradigm_shift") in store


def test_cbt_contents_custom_relations():
    store = fresh_store()
    result = load_casestudy("cbt", store)
    assert result.ok
    for name in ("patient", "cognitive_pattern", "cbt_distortion", "first_line_treatment"):
        assert name in store.registry
    assert intra("patient", "zhang_san", "28", "software_engineer") in store
    assert intra("cognitive_pattern", "zhang_san", "all_or_nothing_thinking", "0.85") in store


def test_export_contains_dynamic_and_quoted_domain(tmp_path):
    store = fresh_store()
    load_text('is_a(apple, fruit, "Biology@Plant_Taxonomy").', store)
    out = tmp_path / "kb.pl"
    export_interop(store, out)
    text = out.read_text()
    assert ":- dynamic is_a/3." in text
    assert "is_a(apple, fruit, 'Biology@Plant_Taxonomy')." in text


def test_export_has_two_clause_requires_star(tmp_path):
    store = fresh_store()
    out = tmp_path / "kb.pl"
    export_interop(store, out)
    text = out.read_text()
    assert "requires_star(X, Y, Domain) :-\n    requires(X, Y, Domain)." in text
    assert "requires_star(X, Z, Domain) :-\n    requires(X, Y, Domain),\n    requires_star(Y, Z, Domain)." in text
    assert "all_prerequisites(Target, Domain, Prereqs) :-" in text
    assert "has_attribute(X, Attr, Domain) :-" in text


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_export_reparses_with_full_recovery(name, tmp_path):
    """The export is readable by our own clause reader in a *fresh* session:
    rule clauses are skipped, ':- dynamic' declarations re-register unknown
    ternary relations, and every fact comes back as it was."""
    store = fresh_store()
    load_casestudy(name, store)
    out = tmp_path / f"{name}.pl"
    export_interop(store, out)
    recovered = fresh_store()
    result = load_file(out, recovered)
    assert result.ok
    assert recovered.fact_set() == store.fact_set()


def test_dynamic_declaration_registers_ternary_relation():
    store = fresh_store()
    result = load_text(':- dynamic owns/3.\nowns(team, module, "org").\n', store)
    assert result.ok
    assert "owns" in store.registry
    assert not store.registry.lookup("owns").transitive  # flags are not in the export
    # 4-ary shapes are ambiguous (cross vs fusion): warn, don't guess
    other = fresh_store()
    result = load_text(":- dynamic links/4.\n", other)
    assert result.ok
    assert "links" not in other.registry
    assert any("cannot infer" in w.message for w in result.warnings)


def test_export_reparse_uppercase_concepts(tmp_path):
    """An uppercase symbol is quoted, not lowercased: ``Apple`` the fruit
    and ``apple`` the company stay two concepts."""
    store = fresh_store()
    load_text('is_a(Apple, Fruit, "Biology@Plant_Taxonomy").\nis_a(apple, company, "Biology@Plant_Taxonomy").', store)
    out = tmp_path / "apple.pl"
    export_interop(store, out)
    assert "is_a('Apple', 'Fruit', 'Biology@Plant_Taxonomy')." in out.read_text()
    recovered = fresh_store()
    assert load_file(out, recovered).ok
    assert recovered.fact_set() == store.fact_set()


def _prolog_term(text: str) -> tuple:
    """What an ISO-Prolog reader makes of an exported argument: a quoted
    atom, a number, or a bare atom."""
    if text.startswith("'"):
        return "atom", text[1:-1].replace("\\'", "'")
    if text[0].isdigit():
        return "number", float(text)
    return "atom", text


def test_export_keeps_distinct_symbols_distinct(tmp_path):
    """Symbols that a Prolog reader would fold together (numerals with a
    leading or trailing zero, case variants) export as distinct terms, as
    concepts and as domains; only a canonical integer is written bare."""
    numerals = ["7", "007", "0", "00", "1.5", "1.50", "0.85"]
    concepts = numerals + ["Apple", "apple", "APPLE", "it's", "x y", "-1"]
    store = fresh_store()
    for symbol in concepts:
        store.assert_fact(Fact.intra("is_a", ConceptId(symbol), ConceptId("thing"), parse_domain("d")))
    for text in numerals:
        store.assert_fact(Fact.intra("part_of", ConceptId("a"), ConceptId("b"), parse_domain(text)))
    out = tmp_path / "kb.pl"
    export_interop(store, out)
    written = {"is_a": set(), "part_of": set()}
    for line in out.read_text().splitlines():
        relation, _, arguments = line.partition("(")
        if relation in written and arguments.endswith(")."):
            first, second, domain = arguments[:-2].split(", ")
            written[relation].add(first if relation == "is_a" else domain)
    for relation, symbols in (("is_a", concepts), ("part_of", numerals)):
        terms = {_prolog_term(text) for text in written[relation]}
        assert len(terms) == len(written[relation]) == len(symbols), relation
        assert {text for text in written[relation] if _prolog_term(text)[0] == "number"} == {"7", "0"}


def test_parse_fact_text_roundtrip():
    registry = builtin_registry()
    fact = parse_fact_text('is_a(apple, fruit, "Biology@Plant_Taxonomy")', registry)
    assert render_clause(fact) == 'is_a(apple, fruit, "Biology@Plant_Taxonomy").'


def test_parse_fact_text_star():
    registry = builtin_registry()
    fact = parse_fact_text('is_a_star(a, c, "d")', registry, allow_star=True)
    assert fact.relation == "is_a_star"
    with pytest.raises(CdcError):
        parse_fact_text('is_a_star(a, c, "d")', registry)  # star not allowed here


def test_parse_fact_text_errors():
    registry = builtin_registry()
    with pytest.raises(CdcError):
        parse_fact_text("nonsense here", registry)
    with pytest.raises(CdcError):
        parse_fact_text('unknown_rel(a, b, "d")', registry)


@pytest.mark.parametrize("text", ["", "   ", " \n\t ", "% only a comment", "% only a comment\n"])
def test_parse_fact_text_without_a_clause(text):
    # the '.' parse_fact_text appends must not be what the error is about
    for allow_star in (False, True):
        with pytest.raises(CdcError, match="^expected exactly one fact clause$"):
            parse_fact_text(text, builtin_registry(), allow_star=allow_star)


@pytest.mark.parametrize("text", [
    'is_a(apple, fruit, "d") % note',
    'is_a(apple, fruit, "d") % note.',
    'is_a(apple, fruit, "d"). % note',
    'is_a(apple, fruit, "d"). % note.',
    'is_a(apple, fruit, "d") % note\n',
    'is_a(apple, fruit, "d")\n% a note. on its own line',
])
def test_parse_fact_text_with_a_trailing_comment(text):
    # the '.' comes from the last token, not the last character
    fact = parse_fact_text(text, builtin_registry())
    assert fact == Fact.intra("is_a", ConceptId("apple"), ConceptId("fruit"), parse_domain("d"))


def test_explain_takes_a_fact_with_a_trailing_comment(capsys):
    from cdcgraph.cli import main

    assert main(["explain", "--case", "education", 'is_a(quadratic_function, polynomial_function, '
                 '"math@algebra") % note']) == 0
    assert "polynomial_function" in capsys.readouterr().out


def test_parse_fact_text_never_crashes():
    from hypothesis import given, settings

    from cdcgraph import Fact

    registry = builtin_registry()

    @settings(max_examples=300, deadline=None)
    @given(grammar_text())
    def fuzz(text):
        for allow_star in (False, True):
            try:
                assert isinstance(parse_fact_text(text, registry, allow_star=allow_star), Fact)
            except CdcError:
                pass

    fuzz()


def test_round_trip_random_stores(tmp_path):
    import random

    from cdcgraph import Fact, RelationShape

    rng = random.Random(2718)
    symbols = ["apple", "Fruit", "x1", "New York", "n_42", "weird-one", "Zhang_San"]
    domain_texts = ["d", "a@b", "x+y@z", "HighSchool@Math@Calculus", "0.85"]
    for trial in range(20):
        store = fresh_store()
        specs = [store.registry.lookup(n) for n in store.registry.names()]
        for _ in range(rng.randint(0, 25)):
            spec = rng.choice(specs)
            c = lambda: ConceptId(rng.choice(symbols))
            d = lambda: parse_domain(rng.choice(domain_texts))
            if spec.shape is RelationShape.CROSS:
                fact = Fact.cross(spec.name, c(), c(), d(), d())
            elif spec.shape is RelationShape.FUSION:
                fact = Fact.fusion(spec.name, c(), c(), c(), d())
            else:
                fact = Fact.intra(spec.name, c(), c(), d())
            store.assert_fact(fact)
        path = tmp_path / f"random{trial}.cdc"
        save_file(store, path)
        reloaded = fresh_store()
        result = load_file(path, reloaded)
        assert result.ok, result.diagnostics
        assert reloaded.fact_set() == store.fact_set()


def test_loader_never_crashes_on_noise():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=80) | grammar_text())
    def fuzz(text):
        store = fresh_store()
        load_text(text, store)  # diagnostics, never exceptions

    fuzz()


def test_save_load_round_trip_property(tmp_path):
    """Any symbol ConceptId accepts survives save and load; the others are
    refused at construction."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from cdcgraph import Fact

    domains = [parse_domain(text) for text in ("d", "a@b", "x+y@z")]
    relations = st.sampled_from(["is_a", "has_attribute", "contrasts_with", "analogous_to", "fuses_with"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(relations, st.text(), st.text(), st.text(), st.sampled_from(domains)), max_size=6))
    @example([("is_a", "end.", "it's", 'a "b"', domains[0]), ("is_a", "a\rb", "c", "d", domains[0])])
    def round_trip(rows):
        store = fresh_store()
        for relation, *symbols, domain in rows:
            concepts = []
            for symbol in symbols:
                if not symbol or "\n" in symbol or "\r" in symbol or ("'" in symbol and '"' in symbol):
                    with pytest.raises(ValueError):
                        ConceptId(symbol)
                else:
                    concepts.append(ConceptId(symbol))
            if len(concepts) < 3:
                continue
            a, b, c = concepts
            if relation == "analogous_to":
                store.assert_fact(Fact.cross(relation, a, b, domain, domains[0]))
            elif relation == "fuses_with":
                store.assert_fact(Fact.fusion(relation, a, b, c, domain))
            else:
                store.assert_fact(Fact.intra(relation, a, b, domain))
        first, second = tmp_path / "first.cdc", tmp_path / "second.cdc"
        save_file(store, first)
        reloaded = fresh_store()
        result = load_file(first, reloaded)
        assert result.ok, result.diagnostics
        assert reloaded.fact_set() == store.fact_set()
        save_file(reloaded, second)
        assert second.read_bytes() == first.read_bytes()

    round_trip()


def test_source_span_record_contract():
    span = assert_record_contract(SourceSpan, dict(file="kb.cdc", line=3, column=7))
    assert str(span) == "kb.cdc:3:7"
    assert_tuple_contract(span, column=8)


def test_diagnostic_record_contract():
    diagnostic = assert_record_contract(Diagnostic, dict(severity="error", message="expected ')'",
                                                         span=SourceSpan("kb.cdc", 3, 7)))
    assert str(diagnostic) == "kb.cdc:3:7: error: expected ')'"
    assert_tuple_contract(diagnostic, severity="warning")


def test_loaded_fact_record_contract():
    loaded = assert_record_contract(LoadedFact, dict(fact=intra("is_a", "a", "b", "d"),
                                                     span=SourceSpan("kb.cdc", 1, 1)))
    assert_tuple_contract(loaded, span=SourceSpan("kb.cdc", 2, 1))


def test_load_result_record_contract():
    text = 'is_a(a, b, "d").\nis_a(a b).\n'
    result = load_text(text, FactStore(builtin_registry()), file="kb.cdc")
    assert_record_contract(LoadResult, dict(facts=result.facts, diagnostics=result.diagnostics),
                           frozen=False, hashable=False)
    assert result == load_text(text, FactStore(builtin_registry()), file="kb.cdc")
    assert result != (result.facts, result.diagnostics)
    combined = LoadResult()
    assert combined.facts == [] and combined.diagnostics == [] and combined.ok
    combined.merge(result)
    combined.merge(result)
    assert combined.facts == result.facts * 2 and len(combined.errors) == 2 and not combined.ok
