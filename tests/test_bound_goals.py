"""Differential tests for bound goals.  A goal with a bound subject or object
computes only the bound concept's row, as frontiers over the per-partition
indexes.  Every such goal must give what the whole-domain path gives,
filtered to the bound value, what the old whole-index walk and kernel in
``reference_bound.py`` give, and, for plain transitive relations and
inheritance, what Floyd-Warshall and enumeration give.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    ConceptId,
    CycleError,
    Fact,
    DomainExpr,
    FactStore,
    RegistryError,
    RelationSpec,
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
)
from cdcgraph.inference import RULE_INHERITANCE, _closure, derived_facts_for, star_label
from cdcgraph.query import EXACT, INHERIT, ConceptConst, DomainConst, Query, Variable
from cdcgraph.relations import RelationShape
from cdcgraph.synthetic import generate_synthetic_store
from conftest import random_dag_store, random_registry_store
from oracles import brute_force_inherited, floyd_warshall_pairs
import reference_bound as reference

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


def prerequisites_or_cycle(read, *args):
    try:
        return read(*args)
    except CycleError as exc:
        return exc.args


def kept(pairs: set, bound: dict) -> set:
    """The (x, y) pairs with x the bound subject and y the bound object, when given."""
    return {p for p in pairs if p[0] == bound.get("subject", p[0]) and p[1] == bound.get("obj", p[1])}


def assert_bound_reads_agree(store: FactStore, rng: random.Random) -> set:
    """The inference reads with a bound concept equal the whole-domain reads
    filtered to it and the reference reads; returns the kinds of join read:
    ``(relation is transitive, relation is symmetric, carrier or None,
    carrier is transitive, carrier is symmetric)``."""
    registry = store.registry
    joins = set()
    for domain, concepts in intra_domains(store).items():
        for spec in registry:
            if spec.shape is not RelationShape.INTRA:
                continue
            if spec.transitive or spec.symmetric or spec.inherits_via is not None:
                carrier = registry.get(spec.inherits_via)  # None without a carrier
                joins.add((spec.transitive, spec.symmetric, spec.inherits_via,
                           carrier is not None and carrier.transitive, carrier is not None and carrier.symmetric))
            if spec.transitive:
                whole = star_pairs(store, spec.name, domain)
                for c in concepts:
                    d = rng.choice(concepts)
                    for bound in ({"subject": c}, {"obj": c}, {"subject": c, "obj": d}):
                        got = star_pairs(store, spec.name, domain, **bound)
                        assert got == kept(whole, bound)
                        assert got == reference.star_pairs(store, spec.name, domain, **bound)
                    reach = reachable_star(store, spec.name, c, domain)
                    assert reach == {y for x, y in whole if x == c}
                    assert reach == reference.reachable_star(store, spec.name, c, domain)
                    got = prerequisites_or_cycle(all_prerequisites, store, c, domain, spec.name)
                    assert got == prerequisites_or_cycle(reference.all_prerequisites, store, c, domain, spec.name)
                    want = prerequisite_order(whole, c)
                    if want is None:
                        assert isinstance(got, tuple)
                    else:
                        assert got == want
            if spec.symmetric or spec.inherits_via is not None:
                whole = {f.concepts for f in derived_facts_for(store, spec.name, domain)}
                asserted = {f.concepts for f in store.partition(spec.name, domain)}
                for c in concepts:
                    for bound in ({"subject": c}, {"obj": c}, {"subject": c, "obj": rng.choice(concepts)}):
                        # the bound goal's rows: asserted facts and derived ones
                        got = set(solve(store, spec.name, bound.get("subject"), bound.get("obj"), domain, EXACT))
                        assert got == kept(asserted, bound) | kept(whole, bound)
                        derived = reference.derived_facts_for(store, spec.name, domain, **bound)
                        assert got == kept(asserted, bound) | {f.concepts for f in derived}
        attr = registry.get("has_attribute")
        if attr is not None and attr.inherits_via is not None and registry.lookup(attr.inherits_via).transitive:
            ancestors = star_pairs(store, attr.inherits_via, domain)
            for c in concepts:
                owners = {c} | {y for x, y in ancestors if x == c}
                want = {(f.concepts[1], f.concepts[0]) for f in store.partition("has_attribute", domain)
                        if f.concepts[0] in owners}
                assert inherited_attributes(store, c, domain) == want
                assert reference.inherited_attributes(store, c, domain) == want
    return joins


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
    """Flag mixes: symmetric carriers, chains of carriers, cycles, self-loops."""
    rng = random.Random(43)
    joins = set()
    for _ in range(60):
        store = random_registry_store(rng)
        joins |= assert_bound_reads_agree(store, rng)
        assert_bound_queries_agree(nested(store), rng, modes=(EXACT, INHERIT))
    # reads of inheritance over transitive and non-transitive carriers, of a
    # transitive relation that inherits, of symmetric relations with and
    # without a carrier, over a symmetric carrier, and of plain transitive
    # relations were all held to the references
    assert {(False, True), (False, False), (True, True)} <= {
        (transitive, carrier_transitive) for transitive, _, carrier, carrier_transitive, _ in joins if carrier}
    assert {True, False} <= {carrier is not None for _, symmetric, carrier, _, _ in joins if symmetric}
    assert any(carrier_symmetric for *_, carrier_symmetric in joins)
    assert any(transitive and not symmetric and carrier is None for transitive, symmetric, carrier, _, _ in joins)


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


def test_bound_inheritance_matches_enumeration():
    """Bound ``has_attribute`` rows and ``inherited_attributes`` equal
    inheritance by enumerating Floyd-Warshall ancestors, over the transitive
    built-in carrier and over a carrier that is not transitive."""
    rng = random.Random(53)
    for carrier in ["is_a"] * 40 + ["cause_of"] * 40:
        store, edges = random_dag_store(rng, relations=(carrier,), max_concepts=10, max_domains=2, density=0.3)
        store.registry.register(RelationSpec("has_attribute", inherits_via=carrier), override=True)
        nodes = sorted({c for chosen in edges.values() for edge in chosen for c in edge}) + [ABSENT]
        traits = [ConceptId(f"trait{i}") for i in range(3)]
        for (_, domain_text), carrier_edges in edges.items():
            domain = parse_domain(domain_text)
            attrs = {(c, t) for c in nodes[:-1] for t in traits if rng.random() < 0.2}
            for c, t in attrs:
                store.assert_fact(Fact.intra("has_attribute", c, t, domain))
            for c in nodes:
                want = brute_force_inherited(c, carrier_edges, attrs)
                assert inherited_attributes(store, c, domain) == want
                rows = solve(store, "has_attribute", c, None, domain, EXACT)
                assert rows == sorted({(c, a) for a, _ in want})
                derived = {f.concepts for f in reference.derived_facts_for(store, "has_attribute", domain, subject=c)}
                assert derived == {(c, a) for a, _ in want} - attrs
                assert set(rows) - attrs == derived
            for t in traits:
                derived = {f.concepts for f in reference.derived_facts_for(store, "has_attribute", domain, obj=t)}
                assert derived == {(c, t) for c in nodes
                                   if (t, c) not in brute_force_inherited(c, carrier_edges, attrs)
                                   and any(a == t for a, _ in brute_force_inherited(c, carrier_edges, attrs))}
                assert set(solve(store, "has_attribute", None, t, domain, EXACT)) - attrs == derived


def test_star_rows_start_from_derived_edges():
    """The one-hop base case of R_star is the edge itself, asserted or
    derived: r1(k0, k3), inherited across contrasts_with(k0, k2), makes
    r1_star(k0, k3), as the exported rule ``r_star(X,Y,D) :- r(X,Y,D).``
    says."""
    store = FactStore(builtin_registry())
    text = ('@relation r1 intra transitive inherits_via=contrasts_with.\n'
            'contrasts_with(k0, k2, "d").\nr1(k1, k0, "d").\nr1(k2, k3, "d").\n')
    assert load_text(text, store).ok
    closure = materialize(store)
    domain, k0, k3 = parse_domain("d"), ConceptId("k0"), ConceptId("k3")
    for goal, want in {'r1(k0, ?Y, "d")': ["?Y = k3"],
                       'r1_star(k0, ?Y, "d")': ["?Y = k3"],
                       'r1_star(?X, k3, "d")': ["?X = k0", "?X = k1", "?X = k2"]}.items():
        query = parse_query(goal, store.registry)
        assert eval_query(query, store).render_lines() == want, goal
        assert eval_query(query, store, closure, strict=True).render_lines() == want, goal
    assert star_pairs(store, "r1", domain, subject=k0) == {(k0, k3)}
    assert (k0, k3) in star_pairs(store, "r1", domain)
    assert all_prerequisites(store, k0, domain, "r1") == [k3]
    edge = Fact.intra("r1", k0, k3, domain)
    assert closure.traces[edge].rule == RULE_INHERITANCE
    assert explain(Fact.intra("r1_star", k0, k3, domain), store, closure) == closure.traces[edge]


def test_disconnected_subgraph_leaves_bound_goals_alone():
    """A large part of the domain that the bound concept neither reaches nor
    is reached from changes none of its answers, over a symmetric join
    too."""
    registry = builtin_registry()
    registry.register(RelationSpec("shade", inherits_via="contrasts_with"))
    store = FactStore(registry)
    load_casestudy("education", store)
    domain = parse_domain("highschool")
    calculus, geometry, dark = ConceptId("calculus"), ConceptId("geometry"), ConceptId("dark")
    store.assert_fact(Fact.intra("contrasts_with", calculus, geometry, domain))
    store.assert_fact(Fact.intra("shade", geometry, dark, domain))
    goals = [("is_a_star", calculus, None), ("is_a_star", None, calculus),
             ("all_prerequisites", calculus, None), ("requires_star", None, calculus),
             ("has_attribute", calculus, None), ("inherited_attributes", calculus, None),
             ("shade", calculus, None), ("shade", None, dark)]

    def snapshot():
        return [solve(store, goal, x, y, domain, mode) for goal, x, y in goals for mode in (EXACT, INHERIT)]

    before = snapshot()
    assert before[4]  # calculus has prerequisites in this domain
    assert before[-2] == [(calculus, dark), (geometry, dark)]  # inherited across the symmetric carrier
    for i in range(2000):
        node, parent = ConceptId(f"island{i:04d}"), ConceptId(f"island{i // 2:04d}")
        if i:
            for relation in ("is_a", "requires", "contrasts_with"):
                store.assert_fact(Fact.intra(relation, node, parent, domain))
        store.assert_fact(Fact.intra("has_attribute", node, ConceptId(f"trait{i % 7}"), domain))
        store.assert_fact(Fact.intra("shade", node, ConceptId(f"tone{i % 5}"), domain))
    assert len(_closure(store, ("is_a",), domain).concepts) >= 2000
    assert snapshot() == before


def test_bound_star_goal_reads_one_row_at_10k():
    """A bound lazy ``is_a_star`` over 10,000 facts in one domain reads the
    bound concept's row.  Measured at about 2 ms on a 2-vCPU host, where the
    kernel over the 9,573 facts of its reachable part took about 31 ms; the
    bound sits ten times above the measurement."""
    store = generate_synthetic_store(10000, 1, seed=0)
    query = parse_query('is_a_star(d00_n000, ?Y, "d00")', store.registry)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        answers = eval_query(query, store)
        times.append(time.perf_counter() - start)
    assert len(answers) == 240
    assert statistics.median(times) < 0.020


# --- the public alias helpers against their goals ----------------------------

def goal_answers(store: FactStore, goal: str, *args) -> set:
    """The solutions of ``goal(args)`` as value tuples; a str argument is a
    variable of that name."""
    query = Query(goal, tuple(Variable(a) if isinstance(a, str) else DomainConst(a) if isinstance(a, DomainExpr)
                              else ConceptConst(a) for a in args))
    return set(eval_query(query, store).solutions)


def assert_helpers_match_goals(store: FactStore) -> None:
    """Each public helper that an alias goal names answers as that goal, or
    its relation, does: ``inherited_attributes`` as ``has_attribute(c, ?A,
    d)``, ``reachable_star`` as ``<rel>_star(c, ?Y, d)``, ``all_prerequisites``
    as its goal, and ``analogy_search``, with and without a source domain,
    as its goal; over a relation that is not cross-domain it raises."""
    registry = store.registry
    attr, requires = registry.get("has_attribute"), registry.get("requires")
    transitive = [spec.name for spec in registry if spec.transitive]
    for domain, concepts in intra_domains(store).items():
        for c in concepts:
            if attr is not None and attr.shape is RelationShape.INTRA:
                want = goal_answers(store, "has_attribute", c, "A", domain)
                assert {(a,) for a, _ in inherited_attributes(store, c, domain)} == want, (c, domain)
                assert goal_answers(store, "inherited_attributes", c, "A", domain) == want
            for name in transitive:
                assert {(y,) for y in reachable_star(store, name, c, domain)} == goal_answers(
                    store, star_label(name), c, "Y", domain), (name, c, domain)
            if requires is not None and requires.transitive:
                assert {(y,) for y in all_prerequisites(store, c, domain)} == goal_answers(
                    store, "all_prerequisites", c, "P", domain), (c, domain)
    analogy = registry.get("analogous_to")
    if analogy is None:
        return
    concepts = sorted({c for fact in store.relation_facts("analogous_to") for c in fact.concepts}) + [ABSENT]
    for c in concepts:
        if analogy.shape is not RelationShape.CROSS:
            with pytest.raises(RegistryError, match="cross-domain"):
                analogy_search(store, c)
            continue
        want = goal_answers(store, "analogy_search", c, "C", "D1", "D2")
        assert analogy_search(store, c) == want, c
        for own in {d1 for _, d1, _ in want} | {parse_domain("elsewhere")}:
            assert analogy_search(store, c, own) == {
                (counterpart, own, d2) for counterpart, d2 in goal_answers(store, "analogy_search", c, "C", own, "D2")}


def case_study_store(name: str) -> FactStore:
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    return store


def kb_store(text: str) -> FactStore:
    store = FactStore(builtin_registry())
    assert load_text(text, store).ok
    return store


def symmetric_attribute_stores(seed: int) -> list[FactStore]:
    """``has_attribute`` redeclared symmetric over a transitive, a plain and
    a symmetric carrier, with random carrier and attribute facts."""
    rng = random.Random(seed)
    stores = []
    for carrier in ("is_a", "cause_of", "contrasts_with") * 8:
        registry = builtin_registry()
        registry.register(RelationSpec("has_attribute", symmetric=True, inherits_via=carrier), override=True)
        store = FactStore(registry)
        concepts = [ConceptId(f"k{i}") for i in range(rng.randint(3, 7))]
        for domain in ("d0", "d1"):
            for i, a in enumerate(concepts):
                for j, b in enumerate(concepts):
                    if rng.random() < 0.25 and not (registry.lookup(carrier).acyclic and i >= j):
                        store.assert_fact(Fact.intra(carrier, a, b, parse_domain(domain)))
                    if rng.random() < 0.15:
                        store.assert_fact(Fact.intra("has_attribute", a, b, parse_domain(domain)))
        stores.append(store)
    return stores


ANALOGY_FACTS = (
    'analogous_to(a, b, "x", "y").\nanalogous_to(b, c, "y", "z").\nanalogous_to(c, a, "x", "x").\n'
    'analogous_to(a, a, "y", "x").\n'
)

HELPER_STORES = {
    **{f"case-study-{name}": lambda name=name: [case_study_store(name)] for name in CASESTUDY_NAMES},
    "random-registries": lambda: [random_registry_store(random.Random(seed)) for seed in range(30)],
    "symmetric-attribute-example": lambda: [kb_store(
        '@relation has_attribute intra symmetric inherits_via=is_a.\n'
        'has_attribute(a, b, "d").\nis_a(x, b, "d").\nis_a(b, y, "d").\nis_a(w, x, "d").\n')],
    "symmetric-attribute-random": lambda: symmetric_attribute_stores(61),
    "analogy-builtin": lambda: [kb_store(ANALOGY_FACTS)],
    "analogy-cross-not-symmetric": lambda: [kb_store("@relation analogous_to cross.\n" + ANALOGY_FACTS)],
    "analogy-intra-symmetric": lambda: [kb_store(
        '@relation analogous_to intra symmetric.\nanalogous_to(a, b, "x").\nanalogous_to(c, a, "x").\n')],
    "analogy-intra": lambda: [kb_store('@relation analogous_to intra.\nanalogous_to(a, b, "x").\n')],
}


def three_fact_attribute_store() -> FactStore:
    return kb_store('@relation has_attribute intra symmetric inherits_via=is_a.\n'
                    'has_attribute(a, b, "d").\nis_a(x, b, "d").\n')


@pytest.mark.parametrize("stores", [
    lambda: [three_fact_attribute_store()],
    HELPER_STORES["symmetric-attribute-example"],
    HELPER_STORES["symmetric-attribute-random"],
], ids=["three-facts", "five-facts", "random"])
def test_inherited_attributes_of_symmetric_attributes_match_reference(stores):
    """With a symmetric ``has_attribute`` and a carrier, the helper, the
    ``inherited_attributes`` goal and the reference all list the heirs of an
    owner's attributes, for every concept and domain."""
    for store in stores():
        for domain, concepts in intra_domains(store).items():
            for c in concepts:
                want = reference.inherited_attributes(store, c, domain)
                assert inherited_attributes(store, c, domain) == want, (c, domain)
                assert goal_answers(store, "inherited_attributes", c, "A", domain) == {(a,) for a, _ in want}


def test_reference_lists_the_heirs_of_an_owners_attributes():
    """has_attribute(a, b) is symmetric and x is_a b, so x holds a too."""
    a, b, x = map(ConceptId, "abx")
    assert reference.inherited_attributes(three_fact_attribute_store(), a, parse_domain("d")) == {(b, a), (x, a)}


@pytest.mark.parametrize("source", HELPER_STORES)
def test_alias_helpers_match_goals(source):
    for store in HELPER_STORES[source]():
        assert_helpers_match_goals(store)
