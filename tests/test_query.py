from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from cdcgraph import (
    CdcError,
    Fact,
    FactStore,
    Query,
    QuerySyntaxError,
    RelationShape,
    StaleClosureError,
    builtin_registry,
    eval_query,
    explain,
    load_text,
    materialize,
    parse_fact_text,
    parse_query,
)
from cdcgraph.inference import star_label
from cdcgraph.query import ConceptConst, DomainConst, Variable
from conftest import apple_store, cross, grammar_text, intra, random_dag_store, random_registry_store
from oracles import reachable_from


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
@relation requires_star intra.
requires(a, b, "d").
requires(b, c, "d").
requires_star(a, own, "d").
"""

_PRECEDENCE_KB = _REQUIRES_KB + """
@relation all_prerequisites intra.
@relation foo intra transitive.
@relation foo_star cross.
foo(a, b, "d").
foo(b, c, "d").
all_prerequisites(a, own, "d").
foo_star(a, own, "d", "e").
"""


def test_registered_names_take_precedence():
    """A goal name resolves to a registered relation first, then to
    ``<rel>_star`` over a transitive relation, then to an alias: a custom
    relation named ``requires_star`` does not capture ``all_prerequisites``."""
    store = FactStore(builtin_registry())
    assert not load_text(_PRECEDENCE_KB, store).diagnostics

    def answers(text, store=store):
        return eval_query(q(text, store), store).render_lines()

    assert answers('all_prerequisites(a, ?P, "d")') == ["?P = own"]
    assert answers('requires_star(a, ?P, "d")') == ["?P = own"]
    assert answers('foo_star(a, ?Y, "d", ?E)') == ["?Y = own, ?E = e"]
    with pytest.raises(QuerySyntaxError, match="4 arguments"):
        parse_query('foo_star(a, ?Y, "d")', store.registry)
    assert parse_fact_text('foo_star(a, c, "d", "e")', store.registry, allow_star=True).relation == "foo_star"
    with pytest.raises(CdcError, match="4 arguments"):
        parse_fact_text('foo_star(a, c, "d")', store.registry, allow_star=True)

    # without a custom all_prerequisites, the alias reads the closure of
    # requires, not the relation registered as requires_star
    without = FactStore(builtin_registry())
    assert not load_text(_REQUIRES_KB, without).diagnostics
    assert answers('all_prerequisites(a, ?P, "d")', without) == ["?P = b", "?P = c"]
    assert answers('requires_star(a, ?P, "d")', without) == ["?P = own"]
