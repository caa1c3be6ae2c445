"""Differential tests for bound goals.  A goal with a bound subject or object
closes only the facts the bound concept can reach or be reached from; every
such goal must give what the whole-domain path gives, filtered to the bound
value, and, for plain transitive relations, what Floyd-Warshall gives.
"""

from __future__ import annotations

import random

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    ConceptId,
    CycleError,
    Fact,
    FactStore,
    all_prerequisites,
    builtin_registry,
    eval_query,
    inherited_attributes,
    load_casestudy,
    parse_domain,
    reachable_star,
    star_pairs,
)
from cdcgraph.inference import _closure, derived_facts_for, star_label
from cdcgraph.query import EXACT, INHERIT, ConceptConst, DomainConst, Query, Variable
from cdcgraph.relations import RelationShape
from conftest import random_dag_store, random_registry_store
from oracles import floyd_warshall_pairs

ABSENT = ConceptId("absent_concept")


def solve(store: FactStore, goal: str, x: ConceptId | None, y: ConceptId | None, domain, mode: str) -> list:
    """The answers of ``goal(x, y, domain)`` as (x, y) pairs in answer order;
    a None argument is a variable."""
    args = (ConceptConst(x) if x is not None else Variable("X"),
            ConceptConst(y) if y is not None else Variable("Y"), DomainConst(domain))
    binding = eval_query(Query(goal, args, domain_mode=mode), store)
    return [(row.get("X", x), row.get("Y", y)) for row in binding]


def bound_goals(store: FactStore) -> list[str]:
    """Every goal that closes a bound concept's part of the domain."""
    registry = store.registry
    goals = [star_label(spec.name) for spec in registry if spec.transitive]
    goals += [spec.name for spec in registry if spec.inherits_via is not None]
    requires = registry.get("requires")
    if requires is not None and requires.transitive:
        goals.append("all_prerequisites")
    if "has_attribute" in registry:
        goals.append("inherited_attributes")
    return goals


def intra_domains(store: FactStore) -> dict:
    """Each domain of an intra-domain fact, with the concepts of its facts."""
    out: dict = {}
    for fact in store.facts():
        if store.registry.lookup(fact.relation).shape is RelationShape.INTRA:
            out.setdefault(fact.domains[0], set()).update(fact.concepts)
    return {domain: sorted(concepts) + [ABSENT] for domain, concepts in out.items()}


def prerequisite_order(pairs: set, target: ConceptId) -> list | None:
    """The smallest ready prerequisite first, readiness read off the whole
    domain's star pairs; None if the prerequisites hold a cycle."""
    left = {y for x, y in pairs if x == target}
    order = []
    while left:
        ready = [y for y in left if not any((y, z) in pairs for z in left)]
        if not ready:
            return None
        order.append(min(ready))
        left.remove(order[-1])
    return order


def assert_bound_queries_agree(store: FactStore, rng: random.Random, modes=(EXACT,)) -> None:
    """Each bound goal's answers (subject, object, both bound) equal the
    unbound goal's answers filtered to the bound values, in order."""
    for domain, concepts in intra_domains(store).items():
        for goal in bound_goals(store):
            for mode in modes:
                whole = solve(store, goal, None, None, domain, mode)
                for c in concepts:
                    assert solve(store, goal, c, None, domain, mode) == [p for p in whole if p[0] == c], (goal, c)
                    assert solve(store, goal, None, c, domain, mode) == [p for p in whole if p[1] == c], (goal, c)
                    d = rng.choice(concepts)
                    assert solve(store, goal, c, d, domain, mode) == [p for p in whole if p == (c, d)]


def assert_bound_reads_agree(store: FactStore, rng: random.Random) -> None:
    """The inference reads with a bound concept equal the whole-domain reads
    filtered to it."""
    registry = store.registry
    for spec in registry:
        if spec.shape is not RelationShape.INTRA and spec.symmetric:
            whole = derived_facts_for(store, spec.name)
            for c in sorted({c for f in store.relation_facts(spec.name) for c in f.concepts}):
                assert derived_facts_for(store, spec.name, subject=c) == {f for f in whole if f.concepts[0] == c}
                assert derived_facts_for(store, spec.name, obj=c) == {f for f in whole if f.concepts[1] == c}
    for domain, concepts in intra_domains(store).items():
        for spec in registry:
            if spec.transitive:
                whole = star_pairs(store, spec.name, domain)
                for c in concepts:
                    assert star_pairs(store, spec.name, domain, subject=c) == {p for p in whole if p[0] == c}
                    assert star_pairs(store, spec.name, domain, obj=c) == {p for p in whole if p[1] == c}
                    d = rng.choice(concepts)
                    assert star_pairs(store, spec.name, domain, subject=c, obj=d) == {p for p in whole if p == (c, d)}
                    assert reachable_star(store, spec.name, c, domain) == {y for x, y in whole if x == c}
                    want = prerequisite_order(whole, c)
                    if want is None:
                        with pytest.raises(CycleError):
                            all_prerequisites(store, c, domain, spec.name)
                    else:
                        assert all_prerequisites(store, c, domain, spec.name) == want
            if spec.shape is RelationShape.INTRA and (spec.symmetric or spec.inherits_via is not None):
                whole = derived_facts_for(store, spec.name, domain)
                for c in concepts:
                    got = derived_facts_for(store, spec.name, domain, subject=c)
                    assert got == {f for f in whole if f.concepts[0] == c}
                    assert derived_facts_for(store, spec.name, domain, obj=c) == {f for f in whole if f.concepts[1] == c}
        attr = registry.get("has_attribute")
        if attr is not None and attr.inherits_via is not None and registry.lookup(attr.inherits_via).transitive:
            ancestors = star_pairs(store, attr.inherits_via, domain)
            for c in concepts:
                owners = {c} | {y for x, y in ancestors if x == c}
                want = {(f.concepts[1], f.concepts[0]) for f in store.partition("has_attribute", domain)
                        if f.concepts[0] in owners}
                assert inherited_attributes(store, c, domain) == want


def nested(store: FactStore) -> FactStore:
    """The store's intra-domain facts with ``domN`` moved to the nested
    domain ``g``, ``g@s``, ``g@s@t``..., so inherit mode admits several."""
    out = FactStore(store.registry)
    for fact in store.facts():
        if store.registry.lookup(fact.relation).shape is RelationShape.INTRA:
            depth = int(fact.domains[0].text[len("dom"):])
            domain = parse_domain("@".join(["g", "s", "t", "u"][: depth + 1]))
            out.assert_fact(Fact(fact.relation, fact.concepts, (domain,)))
    return out


def test_bound_goals_agree_on_random_dags():
    rng = random.Random(41)
    for _ in range(40):
        store, _ = random_dag_store(rng, max_concepts=10, max_domains=3, density=0.3)
        assert_bound_reads_agree(store, rng)
        assert_bound_queries_agree(nested(store), rng, modes=(EXACT, INHERIT))


def test_bound_goals_agree_on_random_registries():
    """Flag mixes: symmetric, self and symmetric carriers, cycles, self-loops."""
    rng = random.Random(43)
    for _ in range(60):
        store = random_registry_store(rng)
        assert_bound_reads_agree(store, rng)
        assert_bound_queries_agree(nested(store), rng, modes=(EXACT, INHERIT))


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_bound_goals_agree_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    rng = random.Random(5)
    assert_bound_reads_agree(store, rng)
    assert_bound_queries_agree(store, rng, modes=(EXACT, INHERIT))


def test_bound_star_goals_match_floyd_warshall():
    rng = random.Random(47)
    for _ in range(60):
        store, edges = random_dag_store(rng, max_concepts=12, max_domains=2, density=0.3)
        for (relation, domain_text), chosen in edges.items():
            domain = parse_domain(domain_text)
            nodes = sorted({c for edge in chosen for c in edge})
            reach = floyd_warshall_pairs(nodes, chosen)
            goal = "all_prerequisites" if relation == "requires" and rng.random() < 0.5 else star_label(relation)
            for c in nodes + [ABSENT]:
                want = sorted(p for p in reach if p[0] == c)
                assert star_pairs(store, relation, domain, subject=c) == set(want)
                assert solve(store, goal, c, None, domain, EXACT) == want
                want = sorted(p for p in reach if p[1] == c)
                assert star_pairs(store, relation, domain, obj=c) == set(want)
                assert solve(store, goal, None, c, domain, EXACT) == want
                d = rng.choice(nodes + [ABSENT])
                assert solve(store, goal, c, d, domain, EXACT) == [(c, d)] * ((c, d) in reach)
                if relation == "requires":
                    assert set(all_prerequisites(store, c, domain)) == {y for x, y in reach if x == c}


def test_disconnected_subgraph_leaves_bound_goals_alone():
    """A large part of the domain that the bound concept neither reaches nor
    is reached from changes neither its answers nor what its kernel closes."""
    store = FactStore(builtin_registry())
    load_casestudy("education", store)
    domain = parse_domain("highschool")
    calculus = ConceptId("calculus")
    goals = [("is_a_star", calculus, None), ("is_a_star", None, calculus),
             ("all_prerequisites", calculus, None), ("requires_star", None, calculus),
             ("has_attribute", calculus, None), ("inherited_attributes", calculus, None)]

    def snapshot():
        answers = [solve(store, goal, x, y, domain, mode) for goal, x, y in goals for mode in (EXACT, INHERIT)]
        kernels = [_closure(store, relations, domain, **bound).concepts
                   for relations in (("is_a",), ("requires",), ("has_attribute",))
                   for bound in ({"subject": calculus}, {"obj": calculus})]
        return answers, kernels

    before = snapshot()
    assert before[0][4]  # calculus has prerequisites in this domain
    for i in range(2000):
        node, parent = ConceptId(f"island{i:04d}"), ConceptId(f"island{i // 2:04d}")
        if i:
            store.assert_fact(Fact.intra("is_a", node, parent, domain))
            store.assert_fact(Fact.intra("requires", node, parent, domain))
        store.assert_fact(Fact.intra("has_attribute", node, ConceptId(f"trait{i % 7}"), domain))
    assert len(_closure(store, ("is_a",), domain).concepts) >= 2000
    assert snapshot() == before
