"""Differential tests: the per-domain bitset kernel behind ``materialize``
against the semi-naive fixpoint it replaced (``reference_closure``).  The
closures must be equal: the same derived facts and the same trace for each.
"""

from __future__ import annotations

import random

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    ConceptId,
    Fact,
    FactStore,
    RelationSpec,
    builtin_registry,
    load_casestudy,
    materialize,
    parse_domain,
)
from cdcgraph.inference import RULE_INHERITANCE, RULE_SYMMETRIC, RULE_TRANSITIVE
from conftest import cross, random_dag_store
from reference_closure import reference_materialize


def assert_same_closure(store: FactStore) -> set[str]:
    """Assert kernel == reference; return the rules the closure used."""
    got, want = materialize(store), reference_materialize(store)
    assert got.derived == want.derived
    assert got.traces == want.traces
    return {trace.rule for trace in got.traces.values()}


def test_kernel_matches_reference_on_random_dags():
    rng = random.Random(2024)
    for _ in range(200):
        store, _ = random_dag_store(rng, max_concepts=12, max_domains=3, density=0.3)
        assert_same_closure(store)


def random_registry_store(rng: random.Random) -> FactStore:
    """Built-ins plus two to four custom relations with random flags: carriers
    that are themselves symmetric, transitive or inheriting, a relation that
    inherits along itself, and cycles (self-loops included) in every
    relation that is not acyclic."""
    registry = builtin_registry()
    names = [f"r{i}" for i in range(rng.randint(2, 4))]
    for k, name in enumerate(names):
        symmetric = rng.random() < 0.5
        carriers = names[:k] + ["is_a", "contrasts_with", None, None]
        registry.register(RelationSpec(
            name,
            transitive=rng.random() < 0.5,
            symmetric=symmetric,
            acyclic=not symmetric and rng.random() < 0.25,
            inherits_via=rng.choice(carriers),
        ))
    if rng.random() < 0.2:
        registry.register(RelationSpec(names[0], transitive=rng.random() < 0.5, inherits_via=names[0]), override=True)
    store = FactStore(registry)
    concepts = [ConceptId(f"k{i}") for i in range(rng.randint(3, 7))]
    domains = [parse_domain(f"dom{d}") for d in range(rng.randint(1, 2))]
    relations = names + ["is_a", "contrasts_with", "has_attribute"]
    for domain in domains:
        for name in relations:
            spec = registry.lookup(name)
            ranked = concepts[:]
            rng.shuffle(ranked)
            for i, a in enumerate(ranked):
                for j, b in enumerate(ranked):
                    if spec.acyclic and i >= j:
                        continue
                    if rng.random() < 0.2:
                        store.assert_fact(Fact.intra(name, a, b, domain))
    if rng.random() < 0.3:
        store.assert_fact(cross("analogous_to", "k0", "k1", "dom0", "dom1"))
    return store


def test_kernel_matches_reference_on_random_registries():
    rng = random.Random(7)
    all_three = 0
    for _ in range(400):
        rules = assert_same_closure(random_registry_store(rng))
        all_three += rules >= {RULE_TRANSITIVE, RULE_SYMMETRIC, RULE_INHERITANCE}
    assert all_three >= 100  # the mix exercises the three rules together


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_kernel_matches_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    assert_same_closure(store)
