"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Randomized criteria use fixed seeds so the suite is reproducible.
"""

from __future__ import annotations

import random
import time

from cdcgraph import (
    ConceptId,
    Fact,
    FactStore,
    builtin_registry,
    check,
    eval_query,
    inherited_attributes,
    load_casestudy,
    load_file,
    materialize,
    parse_domain,
    parse_query,
    save_file,
    export_interop,
)
from cdcgraph.inference import star_label
from cdcgraph.relations import RelationShape
from cdcgraph.synthetic import run_bench
from conftest import intra, random_dag_store
from oracles import brute_force_inherited, floyd_warshall_pairs


def _report(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {label}")


def test_criterion_1_closure_matches_reachability_oracle():
    """200 random KBs: materialized is_a*/part_of*/requires* sets equal the
    Floyd-Warshall per-domain oracle exactly, in under 10 seconds."""
    rng = random.Random(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        store, edges = random_dag_store(
            rng, relations=("is_a", "part_of", "requires"), max_concepts=12, max_domains=3, density=0.3,
        )
        closure = materialize(store)
        for (relation, domain_text), edge_set in edges.items():
            nodes = sorted({c for e in edge_set for c in e})
            expected = floyd_warshall_pairs(nodes, edge_set)
            domain = parse_domain(domain_text)
            got = {(f.concepts[0], f.concepts[1]) for f in store.partition(relation, domain)}
            for fact in closure.derived.get(star_label(relation), frozenset()):
                if fact.domains[0] == domain:
                    got.add((fact.concepts[0], fact.concepts[1]))
            if got != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"200 random KBs, 0 mismatches, {elapsed:.2f}s")


def test_criterion_2_domain_separation():
    """1000 random divergent categorizations: never an error, always at
    least one separation witness; plus the apple KB verbatim."""
    rng = random.Random(7)
    intra_relations = [
        spec.name for spec in builtin_registry()
        if spec.shape is RelationShape.INTRA
    ]
    failures = 0
    for _ in range(1000):
        relation = rng.choice(intra_relations)
        c = f"x{rng.randrange(50)}"
        o1 = f"y{rng.randrange(50)}"
        o2 = f"z{rng.randrange(50)}"
        d_index = rng.randrange(40)
        d1 = f"area{d_index}@sub{rng.randrange(5)}"
        d2 = f"area{d_index + 1}@sub{rng.randrange(5)}"
        store = FactStore(builtin_registry())
        store.assert_fact(intra(relation, c, o1, d1))
        store.assert_fact(intra(relation, c, o2, d2))
        report = check(store)
        if report.errors or len(report.separation_witnesses) < 1:
            failures += 1
    assert failures == 0

    apple = FactStore(builtin_registry())
    apple.assert_fact(intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy"))
    apple.assert_fact(intra("is_a", "Apple", "Company", "Business@Tech_Sector"))
    report = check(apple)
    assert not report.errors and len(report.separation_witnesses) == 1
    _report(2, "1000/1000 trials consistent with a witness; apple KB verbatim")


def test_criterion_3_acyclicity_detection():
    """500 random cycle injections (length 2-6) into requires/is_a/evolves_to:
    every one reported, and the reported walk's edges all exist and close."""
    rng = random.Random(13)
    misses = 0
    for _ in range(500):
        relation = rng.choice(("requires", "is_a", "evolves_to"))
        store = FactStore(builtin_registry())
        domain = f"dom{rng.randrange(4)}"
        # acyclic background
        background = [f"b{i}" for i in range(rng.randint(0, 6))]
        for i in range(len(background) - 1):
            if rng.random() < 0.7:
                store.assert_fact(intra(relation, background[i], background[i + 1], domain))
        # inject one directed cycle
        length = rng.randint(2, 6)
        cycle_nodes = [f"c{i}" for i in range(length)]
        for i, node in enumerate(cycle_nodes):
            store.assert_fact(intra(relation, node, cycle_nodes[(i + 1) % length], domain))
        report = check(store)
        cycle_errors = [e for e in report.errors if e.relation == relation and e.kind == "cycle"]
        if not cycle_errors:
            misses += 1
            continue
        error = cycle_errors[0]
        if not all(fact in store for fact in error.facts):
            misses += 1
            continue
        heads = [f.concepts[0] for f in error.facts]
        tails = [f.concepts[1] for f in error.facts]
        if tails != heads[1:] + heads[:1]:
            misses += 1
    assert misses == 0
    _report(3, "500/500 injected cycles reported as closed walks over stored edges")


def test_criterion_4_inheritance_matches_enumeration():
    """200 random hierarchies: inherited_attributes equals the brute-force
    ancestor x attribute enumeration exactly."""
    rng = random.Random(99)
    for _ in range(200):
        store, edges = random_dag_store(rng, relations=("is_a",), max_concepts=10, max_domains=1)
        domain = parse_domain("dom0")
        isa_edges = edges[("is_a", "dom0")]
        nodes = sorted({c for e in isa_edges for c in e}) or [ConceptId("c00")]
        attr_facts = set()
        for node in nodes:
            for _ in range(rng.randint(0, 2)):
                attr = ConceptId(f"attr{rng.randrange(8)}")
                if store.assert_fact(Fact.intra("has_attribute", node, attr, domain)):
                    attr_facts.add((node, attr))
        probe = rng.choice(nodes)
        got = inherited_attributes(store, probe, domain)
        expected = brute_force_inherited(probe, isa_edges, attr_facts)
        assert got == expected
    _report(4, "200 random hierarchies, exact match with enumeration oracle")


def test_criterion_5_partition_scan_reduction():
    """bench 10000 50: domain-filtered scanning beats the full scan by at
    least 40x, and materializing the same KB stays under 5 seconds."""
    report = run_bench(10_000, 50, seed=0)
    assert report["reduction_factor"] >= 40, report
    assert report["materialize_seconds"] < 5.0, report
    _report(
        5,
        f"reduction {report['reduction_factor']:.1f}x, "
        f"materialize {report['materialize_seconds']:.2f}s",
    )


GOLDEN = (
    ("education", 'is_a_star(quadratic_function, ?S, "math@algebra")',
     ["?S = function", "?S = polynomial_function"]),
    ("education", 'requires_star(calculus, ?P, "highschool")',
     ["?P = algebra", "?P = arithmetic"]),
    ("education", 'all_prerequisites(calculus, ?P, "highschool")',
     ["?P = algebra", "?P = arithmetic"]),
    ("education", 'analogous_to(neural_network, ?C, "ai@ml", ?D)',
     ["?C = brain, ?D = neuroscience@cognition"]),
    ("education", 'strategy(explain_function, ?S, "math_background@cs")',
     ["?S = use_formal_definition"]),
    ("enterprise", 'analogous_to(user_story, ?C, "product@requirements", ?D)',
     ["?C = functional_requirement, ?D = engineering@specs"]),
    ("techdocs", 'evolves_to(class_component, ?N, "react@paradigm_shift")',
     ["?N = functional_component"]),
)


def test_criterion_6_golden_queries():
    """The case-study queries return exactly the expected binding sets, in
    deterministic order, with and without a materialized closure."""
    for case, text, expected in GOLDEN:
        store = FactStore(builtin_registry())
        assert load_casestudy(case, store).ok
        query = parse_query(text, store.registry)
        lazy = eval_query(query, store)
        assert lazy.render_lines() == expected, (case, text)
        closure = materialize(store)
        eager = eval_query(query, store, closure)
        assert eager.render_lines() == expected, (case, text)
    _report(6, f"{len(GOLDEN)} golden queries exact on bundled KBs")


def test_criterion_7_round_trip_and_interop(tmp_path):
    """load -> save -> load is the identity on all four bundled KBs, and the
    Prolog export re-parses with every fact recovered."""
    for name in ("cbt", "education", "enterprise", "techdocs"):
        store = FactStore(builtin_registry())
        assert load_casestudy(name, store).ok
        saved = tmp_path / f"{name}.cdc"
        save_file(store, saved)
        reloaded = FactStore(builtin_registry())
        assert load_file(saved, reloaded).ok
        assert reloaded.fact_set() == store.fact_set(), name

        exported = tmp_path / f"{name}.pl"
        export_interop(store, exported)
        recovered = FactStore(builtin_registry())
        result = load_file(exported, recovered)
        assert result.ok, name
        assert recovered.fact_set() == store.fact_set(), name
    _report(7, "4/4 KBs round-trip; interop export re-parses with full recovery")


def test_criterion_8_symmetric_completion():
    """Every cross-domain analogy is queryable in reverse, and materializing
    twice produces equal closures."""
    for name in ("education", "enterprise", "techdocs"):
        store = FactStore(builtin_registry())
        load_casestudy(name, store)
        for fact in sorted(store.relation_facts("analogous_to"), key=Fact.sort_key):
            c1, c2 = fact.concepts
            d1, d2 = fact.domains
            reversed_text = f'analogous_to({c2.symbol}, {c1.symbol}, "{d2.text}", "{d1.text}")'
            bindings = eval_query(parse_query(reversed_text, store.registry), store)
            assert bindings, reversed_text
        assert materialize(store) == materialize(store), name
    _report(8, "reversed analogy queries succeed; materialization idempotent")
