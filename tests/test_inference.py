from __future__ import annotations

import random

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    ConceptId,
    CycleError,
    Fact,
    FactStore,
    NotDerivableError,
    RegistryError,
    StaleClosureError,
    all_prerequisites,
    analogy_search,
    builtin_registry,
    eval_query,
    explain,
    inherited_attributes,
    load_casestudy,
    load_text,
    materialize,
    parse_domain,
    parse_query,
    reachable_star,
    star_pairs,
    trace_depth,
)
from cdcgraph.inference import LEAF, RULE_INHERITANCE, RULE_SYMMETRIC, RULE_TRANSITIVE, ClosureSet, star_label
from conftest import assert_record_contract, carrier_chain_text, cross, intra, random_dag_store, random_registry_store
from oracles import all_topological_orders, brute_force_inherited, floyd_warshall_pairs, reachable_from
import reference_bound


def cid(symbol: str) -> ConceptId:
    return ConceptId(symbol)


# ---------------------------------------------------------------------------
# materialize
# ---------------------------------------------------------------------------

def test_single_transitive_step(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    closure = materialize(store)
    star = closure.derived.get("is_a_star", frozenset())
    assert star == {intra("is_a_star", "a", "c", "d")}


def test_quadratic_function_supertypes(store):
    store.assert_fact(intra("is_a", "quadratic_function", "polynomial_function", "math@algebra"))
    store.assert_fact(intra("is_a", "polynomial_function", "function", "math@algebra"))
    materialize(store)
    reached = reachable_star(store, "is_a", cid("quadratic_function"), parse_domain("math@algebra"))
    assert {c.symbol for c in reached} == {"polynomial_function", "function"}


def test_domains_never_mix(store):
    store.assert_fact(intra("is_a", "a", "b", "d1"))
    store.assert_fact(intra("is_a", "b", "c", "d2"))
    closure = materialize(store)
    assert closure.size() == 0  # the chain spans two domains: no closure fact


def test_facts_for_sorts_one_label(store):
    """A label's derived facts, sorted by ``Fact.sort_key`` (relation, domain
    texts, concept symbols), optionally in one domain; none for a label or
    domain the closure does not hold."""
    for subject, obj, domain in (("z", "y", "d"), ("y", "x", "d"), ("q", "r", "e"), ("p", "q", "e"),
                                 ("a", "b", "d"), ("b", "c", "d")):
        store.assert_fact(intra("is_a", subject, obj, domain))
    store.assert_fact(intra("has_attribute", "b", "red", "d"))
    closure = materialize(store)
    d_facts = [intra("is_a_star", "a", "c", "d"), intra("is_a_star", "z", "x", "d")]
    assert closure.facts_for("is_a_star") == [*d_facts, intra("is_a_star", "p", "r", "e")]
    assert closure.facts_for("is_a_star", parse_domain("d")) == d_facts
    assert closure.facts_for("is_a_star", parse_domain("e")) == [intra("is_a_star", "p", "r", "e")]
    assert closure.facts_for("is_a_star", parse_domain("f")) == []
    assert closure.facts_for("has_attribute") == [intra("has_attribute", "a", "red", "d")]
    assert closure.facts_for("requires_star") == []
    assert closure.facts_for("no_such_label", parse_domain("d")) == []


def test_closure_domain_confinement_random():
    rng = random.Random(5)
    for _ in range(20):
        store, edges = random_dag_store(rng)
        closure = materialize(store)
        for label, facts in closure.derived.items():
            for fact in facts:
                base = label[:-5] if label.endswith("_star") else label
                # every derived intra fact lives in a domain that holds
                # asserted facts of its base relation
                domain_texts = {d.text for d in store.relation_domains(base)}
                assert fact.domains[0].text in domain_texts


def test_materialize_refuses_cycles(store):
    store.assert_fact(intra("requires", "a", "b", "loop"))
    store.assert_fact(intra("requires", "b", "a", "loop"))
    with pytest.raises(CycleError) as err:
        materialize(store)
    assert err.value.relation == "requires"
    assert err.value.domain == "loop"
    assert set(err.value.vertices) == {"a", "b"}


def test_closure_matches_floyd_warshall_on_random_dags():
    rng = random.Random(42)
    for _ in range(30):
        store, edges = random_dag_store(rng)
        closure = materialize(store)
        for (relation, domain_text), edge_set in edges.items():
            expected = floyd_warshall_pairs(sorted({c for e in edge_set for c in e}), edge_set)
            domain = parse_domain(domain_text)
            got = {(f.concepts[0], f.concepts[1]) for f in store.partition(relation, domain)}
            for fact in closure.derived.get(star_label(relation), frozenset()):
                if fact.domains[0] == domain:
                    got.add((fact.concepts[0], fact.concepts[1]))
            assert got == expected, (relation, domain_text)


def test_materialize_idempotent(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    store.assert_fact(cross("analogous_to", "x", "y", "d1", "d2"))
    store.assert_fact(intra("contrasts_with", "p", "q", "d"))
    first = materialize(store)
    second = materialize(store)
    assert first == second


def test_monotonicity(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    before = materialize(store)
    store.assert_fact(intra("is_a", "c", "e", "d"))
    after = materialize(store)
    for label, facts in before.derived.items():
        assert facts <= after.derived.get(label, frozenset())


def test_symmetric_completion_all_shapes(store):
    store.assert_fact(intra("contrasts_with", "b", "a", "d"))  # stored canonically as (a, b)
    store.assert_fact(cross("analogous_to", "m", "n", "d1", "d2"))
    closure = materialize(store)
    assert intra("contrasts_with", "b", "a", "d") in closure.derived["contrasts_with"]
    assert cross("analogous_to", "n", "m", "d2", "d1") in closure.derived["analogous_to"]


def test_soundness_of_traces():
    """Every derived fact's trace is a registered rule instance whose leaves
    are asserted facts."""
    rng = random.Random(99)
    store, _ = random_dag_store(rng, relations=("is_a", "requires"))
    domain = parse_domain("dom0")
    store.assert_fact(intra("has_attribute", "c00", "shiny", "dom0"))
    store.assert_fact(intra("contrasts_with", "c01", "c00", "dom0"))
    closure = materialize(store)

    def verify(fact: Fact) -> None:
        if fact in store.fact_set():
            return
        trace = closure.traces[fact]
        if trace.rule == RULE_SYMMETRIC:
            (premise,) = trace.premises
            assert premise.relation == fact.relation
        elif trace.rule == RULE_TRANSITIVE:
            edge, rest = trace.premises
            base = fact.relation[: -len("_star")]
            assert edge.relation == base
            assert rest.relation in (base, fact.relation)
            assert edge.concepts[0] == fact.concepts[0]
            assert edge.concepts[1] == rest.concepts[0]
            assert rest.concepts[1] == fact.concepts[1]
            assert edge.domains == rest.domains == fact.domains
        elif trace.rule == RULE_INHERITANCE:
            carrier, attr = trace.premises
            assert carrier.concepts[0] == fact.concepts[0]
            assert carrier.concepts[1] == attr.concepts[0]
            assert attr.concepts[1] == fact.concepts[1]
        else:
            raise AssertionError(f"unknown rule {trace.rule}")
        for premise in trace.premises:
            verify(premise)

    for facts in closure.derived.values():
        for fact in facts:
            verify(fact)


def test_symmetric_transitive_custom_relation():
    """Completions must feed the closure: a symmetric+transitive relation's
    star set is the full connected-component relation, both orientations."""
    from cdcgraph import FactStore, RelationSpec, builtin_registry

    registry = builtin_registry()
    registry.register(RelationSpec("near", symmetric=True, transitive=True))
    store = FactStore(registry)
    store.assert_fact(intra("near", "a", "b", "d"))
    store.assert_fact(intra("near", "b", "c", "d"))
    closure = materialize(store)
    edges = {(f.concepts[0].symbol, f.concepts[1].symbol) for f in store.relation_facts("near")}
    edges |= {(f.concepts[0].symbol, f.concepts[1].symbol) for f in closure.derived.get("near", frozenset())}
    star = {(f.concepts[0].symbol, f.concepts[1].symbol) for f in closure.derived.get("near_star", frozenset())}
    # undirected reachability on a connected component: every ordered pair
    assert edges | star == {(x, y) for x in "abc" for y in "abc"}


# ---------------------------------------------------------------------------
# reachable_star / all_prerequisites
# ---------------------------------------------------------------------------

def test_reachable_star_chain(store):
    store.assert_fact(intra("requires", "c", "b", "d"))
    store.assert_fact(intra("requires", "b", "a", "d"))
    reached = reachable_star(store, "requires", cid("c"), parse_domain("d"))
    assert {c.symbol for c in reached} == {"b", "a"}


def test_reachable_star_isolated(store):
    store.assert_fact(intra("requires", "a", "b", "d"))
    assert reachable_star(store, "requires", cid("zzz"), parse_domain("d")) == set()


def test_reachable_star_requires_transitive_relation(store):
    from cdcgraph import RegistryError

    with pytest.raises(RegistryError):
        reachable_star(store, "cause_of", cid("a"), parse_domain("d"))


@pytest.mark.parametrize("read, call", [
    ("reachable_star", lambda s, d: reachable_star(s, "cause_of", cid("a"), d)),
    ("star_pairs", lambda s, d: star_pairs(s, "cause_of", d)),
    ("all_prerequisites", lambda s, d: all_prerequisites(s, cid("a"), d, relation="cause_of")),
])
def test_intransitive_relation_error_names_the_read_called(store, read, call):
    from cdcgraph import RegistryError

    with pytest.raises(RegistryError, match=f"^{read} needs a transitive relation, 'cause_of' is not$"):
        call(store, parse_domain("d"))


def test_reachable_star_matches_oracle_rows():
    rng = random.Random(3)
    for _ in range(25):
        store, edges = random_dag_store(rng, relations=("requires",))
        for (relation, domain_text), edge_set in edges.items():
            nodes = sorted({c for e in edge_set for c in e})
            for node in nodes:
                expected = reachable_from(node, nodes, edge_set)
                got = reachable_star(store, relation, node, parse_domain(domain_text))
                assert got == expected


def test_prerequisites_linear(store):
    store.assert_fact(intra("requires", "calculus", "algebra", "highschool"))
    store.assert_fact(intra("requires", "algebra", "arithmetic", "highschool"))
    order = all_prerequisites(store, cid("calculus"), parse_domain("highschool"))
    assert [c.symbol for c in order] == ["arithmetic", "algebra"]


def test_prerequisites_empty(store):
    store.assert_fact(intra("requires", "a", "b", "d"))
    assert all_prerequisites(store, cid("b"), parse_domain("d")) == []


def test_prerequisites_diamond_tiebreak(store):
    for subject, obj in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        store.assert_fact(intra("requires", subject, obj, "dom"))
    order = all_prerequisites(store, cid("a"), parse_domain("dom"))
    assert [c.symbol for c in order] == ["d", "b", "c"]
    # oracle: enumerate every valid order; ours is one of them, and the
    # lexicographically smallest
    deps = {cid("b"): [cid("d")], cid("c"): [cid("d")], cid("d"): []}
    valid = all_topological_orders([cid("b"), cid("c"), cid("d")], deps)
    assert tuple(order) in valid
    assert tuple(order) == min(valid, key=lambda o: [c.symbol for c in o])


def test_prerequisites_cycle_error(store):
    store.assert_fact(intra("requires", "a", "b", "d"))
    store.assert_fact(intra("requires", "b", "c", "d"))
    store.assert_fact(intra("requires", "c", "b", "d"))
    with pytest.raises(CycleError) as err:
        all_prerequisites(store, cid("a"), parse_domain("d"))
    assert set(err.value.vertices) <= {"a", "b", "c"}
    assert len(err.value.vertices) >= 2


# ---------------------------------------------------------------------------
# inherited_attributes / analogy_search
# ---------------------------------------------------------------------------

def test_inheritance_one_step(store):
    store.assert_fact(intra("has_attribute", "Fruit", "edible", "d"))
    store.assert_fact(intra("is_a", "Apple", "Fruit", "d"))
    got = inherited_attributes(store, cid("Apple"), parse_domain("d"))
    assert got == {(cid("edible"), cid("Fruit"))}


def test_inheritance_no_ancestors(store):
    store.assert_fact(intra("has_attribute", "rock", "hard", "d"))
    got = inherited_attributes(store, cid("rock"), parse_domain("d"))
    assert got == {(cid("hard"), cid("rock"))}


def test_inheritance_three_levels_matches_enumeration(store):
    store.assert_fact(intra("is_a", "apple", "fruit", "d"))
    store.assert_fact(intra("is_a", "fruit", "food", "d"))
    store.assert_fact(intra("has_attribute", "apple", "red", "d"))
    store.assert_fact(intra("has_attribute", "fruit", "sweet", "d"))
    store.assert_fact(intra("has_attribute", "food", "edible", "d"))
    got = inherited_attributes(store, cid("apple"), parse_domain("d"))
    expected = brute_force_inherited(
        cid("apple"),
        {(cid("apple"), cid("fruit")), (cid("fruit"), cid("food"))},
        {(cid("apple"), cid("red")), (cid("fruit"), cid("sweet")), (cid("food"), cid("edible"))},
    )
    assert got == expected
    assert got == {
        (cid("red"), cid("apple")),
        (cid("sweet"), cid("fruit")),
        (cid("edible"), cid("food")),
    }


def test_inheritance_reads_a_symmetric_attribute_either_way():
    """A symmetric ``has_attribute`` fact is stored in one orientation, so an
    owner's attributes are read from both of its indexes, as the goal reads
    them."""
    store = FactStore(builtin_registry())
    assert load_text(
        '@relation has_attribute intra symmetric inherits_via=is_a.\n'
        'is_a(x, y, "d").\nhas_attribute(y, red, "d").\nhas_attribute(blue, y, "d").\n',
        store,
    ).ok
    domain, want = parse_domain("d"), {(cid("red"), cid("y")), (cid("blue"), cid("y"))}
    assert inherited_attributes(store, cid("x"), domain) == want
    assert reference_bound.inherited_attributes(store, cid("x"), domain) == want
    goal = eval_query(parse_query('has_attribute(x, ?A, "d")', store.registry), store)
    assert goal.render_lines() == ["?A = blue", "?A = red"]


def test_inheritance_of_a_symmetric_attribute_reaches_its_heirs():
    """What inherits from an owner's attribute holds it the other way round,
    with that owner as the source: the goal answers ``x`` beside ``b``."""
    store = FactStore(builtin_registry())
    assert load_text(
        '@relation has_attribute intra symmetric inherits_via=is_a.\n'
        'has_attribute(a, b, "d").\nis_a(x, b, "d").\nis_a(b, y, "d").\n',
        store,
    ).ok
    got = inherited_attributes(store, cid("a"), parse_domain("d"))
    assert got == {(cid("b"), cid("a")), (cid("x"), cid("a"))}
    goal = eval_query(parse_query('has_attribute(a, ?W, "d")', store.registry), store)
    assert goal.render_lines() == ["?W = b", "?W = x"]


def test_inheritance_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(25):
        store, edges = random_dag_store(rng, relations=("is_a",), max_domains=1)
        domain = parse_domain("dom0")
        isa_edges = edges[("is_a", "dom0")]
        nodes = sorted({c for e in isa_edges for c in e})
        attr_facts = set()
        for node in nodes:
            if rng.random() < 0.5:
                attr = cid(f"attr_{rng.randrange(6)}")
                if store.assert_fact(Fact.intra("has_attribute", node, attr, domain)):
                    attr_facts.add((node, attr))
        for node in nodes:
            got = inherited_attributes(store, node, domain)
            assert got == brute_force_inherited(node, isa_edges, attr_facts)


def test_analogy_reversed_orientation(store):
    store.assert_fact(cross("analogous_to", "neural_network", "brain", "CS@ML", "Neuroscience@Cognition"))
    got = analogy_search(store, cid("brain"))
    assert got == {(cid("neural_network"), parse_domain("Neuroscience@Cognition"), parse_domain("CS@ML"))}


def test_analogy_reads_the_declaration():
    """Only a symmetric analogy is read from its second concept, and one
    that is not cross-domain is refused."""
    store = FactStore(builtin_registry())
    assert load_text('@relation analogous_to cross.\nanalogous_to(a, b, "x", "y").\n', store).ok
    assert analogy_search(store, cid("b")) == set()
    assert analogy_search(store, cid("a")) == {(cid("b"), parse_domain("x"), parse_domain("y"))}
    store = FactStore(builtin_registry())
    assert load_text('@relation analogous_to intra symmetric.\nanalogous_to(a, b, "x").\n', store).ok
    with pytest.raises(RegistryError, match="^analogy_search needs a cross-domain relation, 'analogous_to' is intra$"):
        analogy_search(store, cid("b"))


def test_analogy_none(store):
    assert analogy_search(store, cid("nothing")) == set()


def test_analogy_atom_solar_system(store):
    store.assert_fact(cross("analogous_to", "Atom", "Solar_System", "Physics@Atomic", "Astronomy@Planetary"))
    store.assert_fact(cross("analogous_to", "Neural_Network", "Brain", "CS@ML", "Neuroscience@Cognition"))
    got = analogy_search(store, cid("Atom"))
    assert got == {(cid("Solar_System"), parse_domain("Physics@Atomic"), parse_domain("Astronomy@Planetary"))}


def test_analogy_source_domain_filter(store):
    store.assert_fact(cross("analogous_to", "f", "g", "d1", "d2"))
    store.assert_fact(cross("analogous_to", "f", "h", "d3", "d4"))
    got = analogy_search(store, cid("f"), parse_domain("d3"))
    assert got == {(cid("h"), parse_domain("d3"), parse_domain("d4"))}


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def test_explain_asserted_is_leaf(store):
    fact = intra("is_a", "a", "b", "d")
    store.assert_fact(fact)
    closure = materialize(store)
    trace = explain(fact, store, closure)
    assert trace.is_leaf
    assert trace.premises == ()


def test_explain_two_chain(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    closure = materialize(store)
    trace = explain(intra("is_a_star", "a", "c", "d"), store, closure)
    assert trace.rule == RULE_TRANSITIVE
    assert trace.premises[0] == intra("is_a", "a", "b", "d")
    # the recursive premise is the direct edge (the star base case)
    assert trace.premises[1] == intra("is_a", "b", "c", "d")


def test_explain_depth_on_chains(store):
    n = 6
    domain = parse_domain("d")
    for i in range(n):
        store.assert_fact(Fact.intra("is_a", cid(f"x{i}"), cid(f"x{i + 1}"), domain))
    closure = materialize(store)
    fact = Fact.intra("is_a_star", cid("x0"), cid(f"x{n}"), domain)
    assert trace_depth(fact, store, closure) == n - 1


def _assert_trace_depths_match_reference(store: FactStore) -> None:
    import reference_explain

    closure = materialize(store)
    facts = list(store) + [fact for facts in closure.derived.values() for fact in facts]
    assert facts
    for fact in facts:
        assert trace_depth(fact, store, closure) == reference_explain.trace_depth(fact, store, closure), fact


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_trace_depth_matches_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    _assert_trace_depths_match_reference(store)


def test_trace_depth_matches_reference_on_random_registries():
    rng = random.Random(59)
    for _ in range(40):
        _assert_trace_depths_match_reference(random_registry_store(rng))


def test_trace_depth_on_a_long_chain():
    """A derivation 1,200 levels deep, past the interpreter's recursion
    limit, which the recursive definition cannot walk."""
    store = FactStore(builtin_registry())
    assert load_text(carrier_chain_text(1200), store).ok
    closure = materialize(store)
    domain = parse_domain("d")
    for i in (0, 600, 1199):
        fact = Fact.intra("trait", cid(f"c{i:04d}"), cid("red"), domain)
        assert trace_depth(fact, store, closure) == 1200 - i


def test_explain_not_derivable(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    closure = materialize(store)
    with pytest.raises(NotDerivableError):
        explain(intra("is_a", "a", "zzz", "d"), store, closure)


def test_explain_refuses_a_stale_closure(store):
    """After a retract, the closure's trace for ``is_a_star(a, c)`` rests on
    the retracted fact; ``explain`` and ``trace_depth`` refuse to read it,
    while an asserted leaf is still a leaf."""
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    closure = materialize(store)
    star = intra("is_a_star", "a", "c", "d")
    assert explain(star, store, closure).premises[1] == intra("is_a", "b", "c", "d")
    store.retract_fact(intra("is_a", "b", "c", "d"))
    for read in (explain, trace_depth):
        with pytest.raises(StaleClosureError, match="generation"):
            read(star, store, closure)
        with pytest.raises(StaleClosureError):
            read(intra("is_a", "x", "y", "d"), store, closure)
    assert explain(intra("is_a", "a", "b", "d"), store, closure) == LEAF
    assert explain(intra("is_a_star", "a", "b", "d"), store, closure) == LEAF
    with pytest.raises(NotDerivableError):
        explain(star, store, materialize(store))


def test_explain_star_of_non_transitive_relation_not_derivable(store):
    """``cause_of`` is not transitive, so ``cause_of_star`` names no fact,
    even where its pair is an asserted edge."""
    store.assert_fact(intra("cause_of", "a", "b", "d"))
    closure = materialize(store)
    with pytest.raises(NotDerivableError):
        explain(intra("cause_of_star", "a", "b", "d"), store, closure)
    with pytest.raises(NotDerivableError):
        explain(intra("cause_of_star", "a", "b", "d"), store)


def test_explain_star_over_symmetric_edge_reads_the_stored_orientation():
    """``sim_star(b, a)``'s edge ``sim(b, a)`` is held as ``sim(a, b)``, so
    reading the successor index without canonicalizing would miss it and
    return the symmetric trace instead of a leaf."""
    store = FactStore(builtin_registry())
    assert load_text('@relation sim intra transitive symmetric.\nsim(a, b, "d").\n', store).ok
    closure = materialize(store)
    assert explain(intra("sim_star", "b", "a", "d"), store, closure) == LEAF
    assert explain(intra("sim_star", "a", "b", "d"), store, closure) == LEAF
    loop = explain(intra("sim_star", "a", "a", "d"), store, closure)
    assert loop.rule == RULE_TRANSITIVE
    assert loop.premises == (intra("sim", "a", "b", "d"), intra("sim", "b", "a", "d"))


_EXPLAIN_CONCEPTS = ("a", "b", "c", "e")
_EXPLAIN_DOMAINS = ("d", "d@x")
# custom relations a drawn registry may add to the built-ins
_EXPLAIN_CUSTOM = {
    "tsym": "@relation tsym intra transitive symmetric.",
    "tinh": "@relation tinh intra transitive inherits_via=is_a.",
    "sinh": "@relation sinh intra symmetric inherits_via=is_a.",
}


def _outcome(explain_fn, fact, store, closure):
    try:
        return explain_fn(fact, store, closure)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _explain_probes(store: FactStore, closure) -> list[Fact]:
    """Every stored fact in both orientations, every derived fact, every
    ``<rel>_star`` pair over the concepts, non-facts and wrong shapes."""
    concepts = [cid(c) for c in _EXPLAIN_CONCEPTS]
    domains = [parse_domain(d) for d in _EXPLAIN_DOMAINS]
    probes = []
    for fact in store:
        a, b, *rest = fact.concepts
        probes += [fact, Fact(fact.relation, (b, a, *rest), fact.domains[::-1])]
    for current in (closure, materialize(store)):
        if current is not None:
            probes += [fact for facts in current.derived.values() for fact in facts]
    transitive = [name for name in ("is_a", "requires", "tsym", "tinh") if name in store.registry]
    probes += [Fact.intra(star_label(name), x, y, d)
               for name in transitive for x in concepts for y in concepts for d in domains]
    a, b, d = concepts[0], concepts[1], domains[0]
    probes += [
        Fact.intra("cause_of_star", a, b, d),
        Fact.intra("conflicts_with_star", a, b, d),
        Fact.intra("sinh_star", a, b, d),
        Fact.intra("no_such_relation", a, b, d),
        Fact("is_a", (a, b, a), (d,)),
        Fact("is_a", (a, b), (d, d)),
        Fact("is_a_star", (a, b, a), (d,)),
        Fact("is_a_star", (a,), (d, d)),
        Fact("tsym_star", (a, b), (d, d)),
        Fact("analogous_to", (a, b), (d,)),
        Fact("fuses_with", (a, b), (d,)),
    ]
    return probes


def test_explain_matches_reference():
    """``explain`` against the version before it read plain transitive edges
    off the successor index (``reference_explain``), on drawn registries
    with symmetric and inheriting transitive relations, over a closure
    that is current, stale after an assert or a retract, or absent."""
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    import reference_explain

    intra_names = ["is_a", "has_attribute", "conflicts_with", "cause_of", "requires"]
    index = st.integers(0, len(_EXPLAIN_CONCEPTS) - 1)
    edge = st.tuples(st.sampled_from(intra_names + sorted(_EXPLAIN_CUSTOM)), index, index,
                     st.sampled_from(_EXPLAIN_DOMAINS))

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.sampled_from(sorted(_EXPLAIN_CUSTOM))), st.lists(edge, min_size=4, max_size=30), edge,
           st.sampled_from(["current", "assert", "retract", None]), st.randoms(use_true_random=False))
    def check(custom, edges, extra, closure_state, rng):
        def clause(name, i, j, domain):
            if name in ("is_a", "requires"):
                i, j = sorted((i, j))  # upward only: acyclic relations stay acyclic
            if (name in ("is_a", "requires") and i == j) or (name in _EXPLAIN_CUSTOM and name not in custom):
                return ""
            return f'{name}({_EXPLAIN_CONCEPTS[i]}, {_EXPLAIN_CONCEPTS[j]}, "{domain}").'

        text = [_EXPLAIN_CUSTOM[name] for name in sorted(custom)] + [clause(*e) for e in edges]
        text += ['analogous_to(a, b, "d", "d@x").', 'fuses_with(b, a, e, "d").']
        store = FactStore(builtin_registry())
        assert load_text("\n".join(text), store).ok
        closure = materialize(store) if closure_state is not None else None
        if closure_state == "assert":
            assert load_text(clause(*extra), store).ok
        elif closure_state == "retract":
            store.retract_fact(rng.choice(sorted(store, key=Fact.sort_key)))
        assume(closure_state in (None, "current") or not closure.is_current(store))
        for fact in _explain_probes(store, closure):
            want = _outcome(reference_explain.explain, fact, store, closure)
            assert _outcome(explain, fact, store, closure) == want, fact

    check()


# ---------------------------------------------------------------------------
# lazy vs materialized agreement
# ---------------------------------------------------------------------------

def test_star_pairs_agrees_with_closure():
    rng = random.Random(23)
    for _ in range(15):
        store, edges = random_dag_store(rng)
        closure = materialize(store)
        for (relation, domain_text) in edges:
            domain = parse_domain(domain_text)
            lazy = star_pairs(store, relation, domain)
            eager = {(f.concepts[0], f.concepts[1]) for f in store.partition(relation, domain)}
            for fact in closure.derived.get(star_label(relation), frozenset()):
                if fact.domains[0] == domain:
                    eager.add((fact.concepts[0], fact.concepts[1]))
            assert lazy == eager


@pytest.mark.parametrize("text, answers", [
    (  # symmetric and transitive: the star set is the whole component
        '@relation near intra symmetric transitive.\nnear(a, b, "d").\nnear(b, c, "d").',
        {'near_star(c, ?X, "d")': ["?X = a", "?X = b", "?X = c"],
         'near_star(?X, a, "d")': ["?X = a", "?X = b", "?X = c"],
         'near(b, ?X, "d")': ["?X = a", "?X = c"]},
    ),
    (  # inheritance along a symmetric carrier reaches both sides
        '@relation sib intra symmetric.\n@relation trait intra inherits_via=sib.\n'
        'sib(a, b, "d").\ntrait(a, red, "d").\ntrait(c, blue, "d").',
        {'trait(b, ?A, "d")': ["?A = red"],
         'trait(?X, ?A, "d")': ["?X = a, ?A = red", "?X = b, ?A = red", "?X = c, ?A = blue"],
         'trait(?X, red, ?D)': ["?X = a, ?D = d", "?X = b, ?D = d"]},
    ),
])
def test_lazy_queries_agree_with_closure_on_custom_flags(text, answers):
    from cdcgraph import eval_query, load_text, parse_query

    store = FactStore(builtin_registry())
    assert load_text(text, store).ok
    closure = materialize(store)
    for goal, want in answers.items():
        query = parse_query(goal, store.registry)
        lazy = eval_query(query, store).render_lines()
        eager = eval_query(query, store, closure, strict=True).render_lines()
        assert lazy == eager == want, goal


def test_closure_set_record_contract(store):
    store.assert_fact(intra("is_a", "a", "b", "d"))
    store.assert_fact(intra("is_a", "b", "c", "d"))
    closure = materialize(store)
    assert_record_contract(ClosureSet, dict(generation=closure.generation, derived=closure.derived,
                                            traces=closure.traces), frozen=False, hashable=False)
    assert closure == materialize(store) and closure != ClosureSet(closure.generation)
    assert closure != (closure.generation, closure.derived, closure.traces)
    empty = ClosureSet(0)
    assert empty.derived == {} and empty.traces == {} and empty.size() == 0
