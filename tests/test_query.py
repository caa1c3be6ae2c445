from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings

from cdcgraph import (
    CASESTUDY_NAMES,
    CdcError,
    ConceptId,
    DomainExpr,
    Fact,
    FactStore,
    Query,
    QuerySyntaxError,
    RelationShape,
    StaleClosureError,
    builtin_registry,
    eval_query,
    explain,
    load_casestudy,
    load_text,
    materialize,
    parse_domain,
    parse_fact_text,
    parse_query,
)
from cdcgraph import query as query_module
from cdcgraph.inference import star_label
from cdcgraph.query import BindingSet, ConceptConst, DomainConst, Variable, _admitted_domains
from conftest import (
    apple_store,
    assert_record_contract,
    assert_tuple_contract,
    cross,
    grammar_text,
    intra,
    random_dag_store,
    random_registry_store,
)
from oracles import reachable_from
import reference_query


def q(text: str, store: FactStore, **modes):
    query = parse_query(text, store.registry)
    if modes:
        query = query.with_modes(**modes)
    return query


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_star_query(registry):
    query = parse_query('is_a_star(quadratic_function, ?S, "math@algebra")', registry)
    assert query.goal == "is_a_star"
    assert query.variables == ("S",)
    assert isinstance(query.args[0], ConceptConst)
    assert isinstance(query.args[1], Variable)
    assert isinstance(query.args[2], DomainConst)


def test_parse_cross_query(registry):
    query = parse_query('analogous_to(neural_network, ?C, "ai@ml", ?D)', registry)
    assert query.goal == "analogous_to"
    assert query.variables == ("C", "D")


def test_parse_arity_mismatch(registry):
    with pytest.raises(QuerySyntaxError, match="3 arguments"):
        parse_query("is_a(?X)", registry)


def test_parse_unknown_goal(registry):
    with pytest.raises(QuerySyntaxError, match="unknown goal"):
        parse_query("frobnicate(?X, ?Y, ?Z)", registry)
    with pytest.raises(QuerySyntaxError, match="unknown goal"):
        parse_query('cause_of_star(a, ?X, "d")', registry)  # cause_of is not transitive


def test_parse_syntax_error_offsets(registry):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("is_a(a b, ?C)", registry)
    assert err.value.offset == 7
    with pytest.raises(QuerySyntaxError) as err:
        parse_query('is_a(a, b, "unclosed', registry)
    assert err.value.offset == 11


def test_parse_trailing_input(registry):
    with pytest.raises(QuerySyntaxError, match="trailing input 'x'") as err:
        parse_query('is_a(a, ?Y, "d"). x', registry)
    assert err.value.offset == 18


def test_parse_bad_quoted_concept(registry):
    """A quoted concept that cannot be a concept symbol is a syntax error at
    the term, not a ValueError from ConceptId."""
    with pytest.raises(QuerySyntaxError) as err:
        parse_query('is_a("", ?Y, "d")', registry)
    assert str(err.value) == "empty concept symbol at offset 5"
    with pytest.raises(QuerySyntaxError, match="holds a line break") as err:
        parse_query('is_a(a, "x\ny", "d")', registry)
    assert err.value.offset == 8


def test_parse_tolerates_prolog_dress(registry):
    query = parse_query('?- is_a_star(quadratic_function, ?S, "math@algebra").', registry)
    assert query.goal == "is_a_star"


def test_parse_bad_domain_literal(registry):
    with pytest.raises(QuerySyntaxError, match="bad domain") as caught:
        parse_query('is_a(a, b, "x@@y")', registry)
    # one offset, into the query: the second '@'
    assert str(caught.value) == "bad domain: empty segment at offset 14"
    assert caught.value.offset == 14


def test_parse_query_never_crashes(registry):
    @settings(max_examples=300, deadline=None)
    @given(grammar_text())
    def fuzz(text):
        try:
            assert isinstance(parse_query(text, registry), Query)
        except QuerySyntaxError:
            pass

    fuzz()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_domain_scoping_hides_other_domains():
    store = apple_store()
    bindings = eval_query(q('is_a(Apple, ?W, "Biology@Plant_Taxonomy")', store), store)
    assert bindings.render_lines() == ["?W = Fruit"]


def test_empty_store_empty_bindings(store):
    bindings = eval_query(q('is_a(?X, ?Y, "d")', store), store)
    assert len(bindings) == 0
    assert not bindings


def test_ground_query_true(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    bindings = eval_query(q('is_a(a, b, "d")', store), store)
    assert bindings.render_lines() == ["true"]
    assert len(bindings) == 1


def test_star_query_lazy_matches_materialized(store):
    store.assert_fact(intra("is_a", "quadratic_function", "polynomial_function", "math@algebra"))
    store.assert_fact(intra("is_a", "polynomial_function", "function", "math@algebra"))
    query = q('is_a_star(quadratic_function, ?S, "math@algebra")', store)
    lazy = eval_query(query, store)
    closure = materialize(store)
    eager = eval_query(query, store, closure)
    assert lazy.render_lines() == eager.render_lines() == ["?S = function", "?S = polynomial_function"]


def test_requires_star_equals_all_prerequisites_goal(store):
    store.assert_fact(intra("requires", "calculus", "algebra", "highschool"))
    store.assert_fact(intra("requires", "algebra", "arithmetic", "highschool"))
    star = eval_query(q('requires_star(calculus, ?P, "highschool")', store), store)
    prereqs = eval_query(q('all_prerequisites(calculus, ?P, "highschool")', store), store)
    assert star.render_lines() == prereqs.render_lines() == ["?P = algebra", "?P = arithmetic"]


def test_star_query_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(10):
        store, edges = random_dag_store(rng, relations=("requires",), max_domains=1)
        edge_set = edges[("requires", "dom0")]
        nodes = sorted({c for e in edge_set for c in e})
        for node in nodes:
            bindings = eval_query(q(f'requires_star({node.symbol}, ?Y, "dom0")', store), store)
            got = {solution["Y"] for solution in bindings}
            assert got == reachable_from(node, nodes, edge_set)


def test_symmetric_relation_seen_from_both_sides(store):
    store.assert_fact(intra("conflicts_with", "real_time_sync", "battery_efficiency", "engineering+product@mobile"))
    one = eval_query(q('conflicts_with(real_time_sync, ?X, "product+engineering@mobile")', store), store)
    other = eval_query(q('conflicts_with(battery_efficiency, ?X, "product+engineering@mobile")', store), store)
    assert one.render_lines() == ["?X = battery_efficiency"]
    assert other.render_lines() == ["?X = real_time_sync"]


def test_cross_symmetric_reversed_query(store):
    store.assert_fact(cross("analogous_to", "neural_network", "brain", "ai@ml", "neuroscience@cognition"))
    bindings = eval_query(q('analogous_to(brain, ?C, "neuroscience@cognition", ?D)', store), store)
    assert bindings.render_lines() == ["?C = neural_network, ?D = ai@ml"]


def test_inherited_attributes_goal(store):
    store.assert_fact(intra("is_a", "apple", "fruit", "d"))
    store.assert_fact(intra("has_attribute", "fruit", "edible", "d"))
    bindings = eval_query(q('inherited_attributes(apple, ?A, "d")', store), store)
    assert bindings.render_lines() == ["?A = edible"]
    # also reachable through the plain relation goal with derivation on
    derived = eval_query(q('has_attribute(apple, ?A, "d")', store), store)
    assert derived.render_lines() == ["?A = edible"]


def test_exact_mode_hides_general_facts(store):
    store.assert_fact(intra("is_a", "electron", "particle", "Physics"))
    exact = eval_query(q('is_a(electron, ?W, "Physics@Quantum_Mechanics")', store), store)
    assert len(exact) == 0


def test_inherit_mode_admits_prefix_domains(store):
    store.assert_fact(intra("is_a", "electron", "particle", "Physics"))
    store.assert_fact(intra("is_a", "electron", "wavefunction", "Physics@Quantum_Mechanics"))
    inherit = eval_query(
        q('is_a(electron, ?W, "Physics@Quantum_Mechanics")', store, domain_mode="inherit"), store,
    )
    assert inherit.render_lines() == ["?W = particle", "?W = wavefunction"]
    exact = eval_query(q('is_a(electron, ?W, "Physics@Quantum_Mechanics")', store), store)
    assert set(exact.render_lines()) <= set(inherit.render_lines())


def test_inherit_mode_star_goal(store):
    store.assert_fact(intra("requires", "flight", "lift", "aero"))
    store.assert_fact(intra("requires", "lift", "airfoil", "aero"))
    bindings = eval_query(q('requires_star(flight, ?P, "aero@gliders")', store, domain_mode="inherit"), store)
    assert bindings.render_lines() == ["?P = airfoil", "?P = lift"]


def _literals(store: FactStore) -> list[DomainExpr]:
    """Each domain of the store, one level deeper, and a sibling of it."""
    literals = []
    for domain in {d for fact in store.facts() for d in fact.domains}:
        literals += [domain, parse_domain(domain.text + "@deeper"), parse_domain(domain.text + "x")]
    return literals


def _holds_to_reference_admission(store: FactStore) -> None:
    relations = sorted({fact.relation for fact in store.facts()})
    for relation in relations:
        for literal in _literals(store):
            for mode in ("exact", "inherit"):
                assert _admitted_domains(store, relation, literal, mode) == reference_query.admitted_domains(
                    store, relation, literal, mode
                )
    with mock.patch.object(query_module, "_admitted_domains", reference_query.admitted_domains):
        expected = _inherit_answers(store, relations)
    assert _inherit_answers(store, relations) == expected


def _inherit_answers(store: FactStore, relations: list[str]) -> list[list[str]]:
    """Inherit-mode answers of each relation's goals, and of its star goal,
    with one literal domain argument and variables elsewhere."""
    answers = []
    for relation in relations:
        spec = store.registry.lookup(relation)
        goals = [(relation, spec.shape)] + [(star_label(relation), RelationShape.INTRA)] * spec.transitive
        for goal, shape in goals:
            for position in shape.domain_positions:
                for literal in _literals(store):
                    args = [f"?V{i}" for i in range(shape.arity)]
                    args[position] = f'"{literal.text}"'
                    query = q(f"{goal}({', '.join(args)})", store, domain_mode="inherit")
                    answers.append(eval_query(query, store).render_lines())
    return answers


def test_inherit_admission_matches_reference_on_random_registries():
    rng = random.Random(83)
    for _ in range(25):
        store = random_registry_store(rng)
        for fact in list(store.facts()):
            if rng.random() < 0.3 and len(fact.domains) == 1:
                deeper = parse_domain(f"{fact.domain.text}@s{rng.randint(0, 2)}")
                store.assert_fact(Fact(fact.relation, fact.concepts, (deeper,)))
        _holds_to_reference_admission(store)


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_inherit_admission_matches_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    _holds_to_reference_admission(store)


def test_inherit_admission_looks_up_prefixes_among_1000_siblings():
    """Admission builds the literal's prefixes and looks each one up, so it
    never reads the relation's list of domains, here 1,001 of them."""
    store = FactStore(builtin_registry())
    store.assert_fact(intra("is_a", "x", "root_parent", "root"))
    for i in range(1000):
        store.assert_fact(intra("is_a", "x", f"p{i:04d}", f"root@s{i:04d}"))
    literal = parse_domain("root@s0500@deep")
    expected = reference_query.admitted_domains(store, "is_a", literal, "inherit")
    assert [d.text for d in expected] == ["root", "root@s0500"]
    with mock.patch.object(FactStore, "relation_domains", side_effect=AssertionError("scanned")):
        assert _admitted_domains(store, "is_a", literal, "inherit") == expected
        bindings = eval_query(q('is_a(x, ?Y, "root@s0500@deep")', store, domain_mode="inherit"), store)
    assert bindings.render_lines() == ["?Y = p0500", "?Y = root_parent"]


def test_domain_variable_binds_fact_domains(store):
    store.assert_fact(intra("strategy", "explain_function", "use_formal_definition", "math_background@cs"))
    store.assert_fact(intra("strategy", "explain_function", "use_workflow_metaphor", "design_background@cs"))
    bindings = eval_query(q("strategy(explain_function, ?S, ?D)", store), store)
    assert bindings.render_lines() == [
        "?S = use_formal_definition, ?D = math_background@cs",
        "?S = use_workflow_metaphor, ?D = design_background@cs",
    ]


def test_repeated_variable_constrains(store):
    store.assert_fact(intra("cause_of", "a", "a", "d"))
    store.assert_fact(intra("cause_of", "a", "b", "d"))
    bindings = eval_query(q('cause_of(?X, ?X, "d")', store), store)
    assert bindings.render_lines() == ["?X = a"]


def test_solutions_deduplicated(store):
    # both orientations of a symmetric fact produce the same binding for ?D
    store.assert_fact(intra("contrasts_with", "a", "b", "d"))
    bindings = eval_query(q("contrasts_with(?X, ?Y, ?D)", store), store)
    assert len(bindings) == 2  # (a,b) and (b,a), each once
    assert len(set(bindings.render_lines())) == len(bindings)


def test_strict_requires_fresh_closure(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    query = q('is_a_star(a, ?X, "d")', store)
    with pytest.raises(StaleClosureError):
        eval_query(query, store, closure=None, strict=True)
    closure = materialize(store)
    assert eval_query(query, store, closure, strict=True).render_lines() == ["?X = b", "?X = c"]
    store.assert_fact(intra("is_a", "c", "e", "d"))  # closure now stale
    with pytest.raises(StaleClosureError):
        eval_query(query, store, closure, strict=True)


def test_analogy_search_goal(store):
    store.assert_fact(cross("analogous_to", "atom", "solar_system", "Physics@Atomic", "Astronomy@Planetary"))
    bindings = eval_query(q('analogy_search(atom, ?C, "Physics@Atomic", ?D)', store), store)
    assert bindings.render_lines() == ["?C = solar_system, ?D = Astronomy@Planetary"]


def test_star_goal_with_domain_variable(store):
    store.assert_fact(intra("is_a", "a", "b", "d1"))
    store.assert_fact(intra("is_a", "b", "c", "d1"))
    store.assert_fact(intra("is_a", "a", "z", "d2"))
    bindings = eval_query(q("is_a_star(a, ?Y, ?D)", store), store)
    assert bindings.render_lines() == ["?Y = b, ?D = d1", "?Y = c, ?D = d1", "?Y = z, ?D = d2"]
    # domain variables only range over domains that actually hold facts
    closure = materialize(store)
    assert eval_query(q("is_a_star(a, ?Y, ?D)", store), store, closure).render_lines() == bindings.render_lines()


def test_fusion_goal_query(store):
    from conftest import fusion

    store.assert_fact(fusion("fuses_with", "ux", "feasibility", "spec", "product+engineering"))
    bindings = eval_query(q('fuses_with(feasibility, ?Other, ?New, "engineering+product")', store), store)
    assert bindings.render_lines() == ["?Other = ux, ?New = spec"]


# ---------------------------------------------------------------------------
# the goal table
# ---------------------------------------------------------------------------

def test_inherited_attributes_over_cross_has_attribute():
    """``inherited_attributes`` is a plain alias of ``has_attribute``, so it
    takes the relation's shape when a directive changes it."""
    store = FactStore(builtin_registry())
    load_text('@relation has_attribute cross.\nhas_attribute(a, red, "d", "e").\n', store)
    alias = eval_query(q('inherited_attributes(a, ?A, "d", ?E)', store), store)
    plain = eval_query(q('has_attribute(a, ?A, "d", ?E)', store), store)
    assert alias.render_lines() == plain.render_lines() == ["?A = red, ?E = e"]
    with pytest.raises(QuerySyntaxError, match="4 arguments"):
        parse_query('inherited_attributes(a, ?A, "d")', store.registry)


def test_star_names_agree_across_readers():
    """``parse_query``, ``parse_fact_text(allow_star=True)`` and ``explain``
    accept the same ``<rel>_star`` names: those of transitive relations."""
    rng = random.Random(61)
    for _ in range(40):
        store = random_registry_store(rng)
        for fact in store.facts():
            spec = store.registry.lookup(fact.relation)
            if spec.shape is not RelationShape.INTRA:
                continue
            label = star_label(fact.relation)
            x, y = (c.symbol for c in fact.concepts)
            text = f'{label}({x}, {y}, "{fact.domain.text}")'
            accepted = []
            for read in (lambda: parse_query(text, store.registry),
                         lambda: parse_fact_text(text, store.registry, allow_star=True),
                         lambda: explain(Fact(label, fact.concepts, fact.domains), store)):
                try:
                    read()
                    accepted.append(True)
                except CdcError:
                    accepted.append(False)
            assert accepted == [spec.transitive] * 3, (text, accepted)


_REQUIRES_KB = """
requires(a, b, "d").
requires(b, c, "d").
"""

_PRECEDENCE_KB = _REQUIRES_KB + """
@relation all_prerequisites intra.
all_prerequisites(a, own, "d").
"""


def test_registered_names_take_precedence():
    """A goal name resolves to a registered relation first, then to
    ``<rel>_star`` over a transitive relation, then to an alias: a custom
    relation named ``all_prerequisites`` captures the alias.  The first two
    never compete: the registry refuses ``requires_star`` as a relation."""
    store = FactStore(builtin_registry())
    assert not load_text(_PRECEDENCE_KB, store).diagnostics

    def answers(text, store=store):
        return eval_query(q(text, store), store).render_lines()

    assert answers('all_prerequisites(a, ?P, "d")') == ["?P = own"]
    assert answers('requires_star(a, ?P, "d")') == ["?P = b", "?P = c"]
    refused = load_text('@relation requires_star intra.\nrequires_star(a, own, "d").\n', store)
    assert [d.message for d in refused.errors] == [
        "requires_star: names the closure of transitive relation 'requires'",
        "unknown relation 'requires_star'",
    ]
    assert answers('requires_star(a, ?P, "d")') == ["?P = b", "?P = c"]

    # without a custom all_prerequisites, the alias reads the closure of
    # requires
    without = FactStore(builtin_registry())
    assert not load_text(_REQUIRES_KB, without).diagnostics
    assert answers('all_prerequisites(a, ?P, "d")', without) == ["?P = b", "?P = c"]


def answers_of(store: FactStore, text: str) -> list[str]:
    return eval_query(q(text, store), store).render_lines()


_STAR_PAIR_FACTS = 'foo(a, b, "d").\nfoo(b, c, "d").\nfoo_star(x, y, "d").\n'


@pytest.mark.parametrize("directives, refused_line", [
    ("@relation foo intra transitive.\n@relation foo_star intra.\n", 2),
    ("@relation foo_star intra.\n@relation foo intra transitive.\n", 2),
])
def test_star_name_pair_refused_in_a_fact_file(directives, refused_line):
    """A relation named ``foo_star`` next to a transitive ``foo`` is refused
    whichever is declared first, so the goal ``foo_star`` and the closure's
    derived ``foo_star`` facts keep one meaning."""
    store = FactStore(builtin_registry())
    result = load_text(directives + _STAR_PAIR_FACTS, store)
    assert [(d.span.line, d.severity) for d in result.diagnostics][0] == (refused_line, "error")
    assert "foo_star" in result.diagnostics[0].message
    if "foo" in store.registry:
        assert store.registry.lookup("foo").transitive
        assert "foo_star" not in store.registry
        closure = materialize(store)
        derived = {(f.subject.symbol, f.object.symbol) for f in closure.derived["foo_star"]}
        assert derived == {("a", "c")}
        assert answers_of(store, 'foo_star(?X, ?Y, "d")') == ["?X = a, ?Y = b", "?X = a, ?Y = c", "?X = b, ?Y = c"]
    else:
        # foo_star came first: foo is refused, and foo_star stays a plain relation
        assert store.registry.lookup("foo_star").transitive is False
        assert answers_of(store, 'foo_star(?X, ?Y, "d")') == ["?X = x, ?Y = y"]


def test_variable_record_contract():
    assert_tuple_contract(assert_record_contract(Variable, dict(name="X")), name="Y")


def test_concept_const_record_contract():
    assert_tuple_contract(assert_record_contract(ConceptConst, dict(value=ConceptId("Apple"))),
                          value=ConceptId("Pear"))


def test_domain_const_record_contract():
    assert_tuple_contract(assert_record_contract(DomainConst, dict(value=parse_domain("Biology@Plant_Taxonomy"))),
                          value=parse_domain("Biology"))


def test_query_record_contract(registry):
    args = (ConceptConst(ConceptId("Apple")), Variable("Y"), DomainConst(parse_domain("Biology")))
    query = assert_record_contract(Query, dict(goal="is_a", args=args, domain_mode="inherit"))
    assert query == parse_query('is_a(Apple, ?Y, "Biology")', registry).with_modes("inherit")
    assert Query("is_a", args).domain_mode == "exact" and query.variables == ("Y",)
    assert query.with_modes() is query and query.with_modes("exact") == Query("is_a", args)
    assert_tuple_contract(query, goal="part_of")


def test_binding_set_record_contract():
    solutions = ((ConceptId("Company"),), (ConceptId("Fruit"),))
    binding = assert_record_contract(BindingSet, dict(variables=("Y",), solutions=solutions))
    query = parse_query('is_a(Apple, ?Y, "Biology@Plant_Taxonomy")', builtin_registry())
    assert eval_query(query, apple_store()) == BindingSet(("Y",), solutions[1:])
    assert len(binding) == 2 and binding and not BindingSet(("Y",), ())
    assert list(binding) == [{"Y": ConceptId("Company")}, {"Y": ConceptId("Fruit")}]
    assert binding != BindingSet(("Z",), solutions) and binding != (("Y",), solutions)
