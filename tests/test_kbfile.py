from __future__ import annotations

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    CdcError,
    ConceptId,
    FactStore,
    builtin_registry,
    export_interop,
    load_casestudy,
    load_file,
    load_text,
    parse_domain,
    parse_fact_text,
    save_file,
)
from cdcgraph.kbfile import render_clause
from conftest import fusion, intra


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


def test_relation_directive_bad_shape():
    store = fresh_store()
    result = load_text("@relation oops sideways.", store)
    assert not result.ok


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
    ternary relations, and every fact comes back (lowercased)."""
    store = fresh_store()
    load_casestudy(name, store)
    out = tmp_path / f"{name}.pl"
    export_interop(store, out)
    recovered = fresh_store()
    result = load_file(out, recovered)
    assert result.ok
    expected = set()
    for fact in store.facts():
        lowered = tuple(ConceptId(c.symbol.lower()) for c in fact.concepts)
        expected.add((fact.relation, lowered, fact.domains))
    got = {(f.relation, f.concepts, f.domains) for f in recovered.facts()}
    assert got == expected


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
    store = fresh_store()
    load_text('is_a(Apple, Fruit, "Biology@Plant_Taxonomy").', store)
    out = tmp_path / "apple.pl"
    export_interop(store, out)
    recovered = fresh_store()
    assert load_file(out, recovered).ok
    assert intra("is_a", "apple", "fruit", "Biology@Plant_Taxonomy") in recovered


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
    @given(st.text(max_size=80))
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
