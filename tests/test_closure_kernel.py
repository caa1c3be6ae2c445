"""Differential tests: the per-domain bitset kernel behind ``materialize``
against the semi-naive fixpoint it replaced (``reference_closure``).  The
closures must be equal: the same derived facts and the same trace for each.
Every closure compared also keeps ``materialize``'s bookkeeping invariants
(``assert_closure_bookkeeping``).
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
from cdcgraph.inference import RULE_INHERITANCE, RULE_SYMMETRIC, RULE_TRANSITIVE, ClosureSet, _closure
from conftest import random_dag_store, random_registry_store
from reference_closure import reference_materialize


def assert_closure_bookkeeping(store: FactStore, closure: ClosureSet) -> None:
    """The invariants of ``materialize``'s per-label ``{fact: trace}`` dicts:
    the keys of ``traces`` are the union of ``derived``'s sets, each derived
    fact sits under exactly one label, and every premise of every trace is
    held by the store or is itself a key of ``traces``."""
    labelled = [fact for facts in closure.derived.values() for fact in facts]
    assert len(labelled) == len(set(labelled))
    assert closure.traces.keys() == set(labelled)
    for label, facts in closure.derived.items():
        assert all(fact.relation == label for fact in facts)
    for trace in closure.traces.values():
        assert trace.premises
        for premise in trace.premises:
            assert premise in closure.traces or premise in store, (trace, premise)


def assert_same_closure(store: FactStore) -> set[str]:
    """Assert kernel == reference and the closure's bookkeeping; return the
    rules the closure used."""
    got, want = materialize(store), reference_materialize(store)
    assert got.derived == want.derived
    assert got.traces == want.traces
    assert_closure_bookkeeping(store, got)
    return {trace.rule for trace in got.traces.values()}


def test_kernel_matches_reference_on_random_dags():
    rng = random.Random(2024)
    for _ in range(200):
        store, _ = random_dag_store(rng, max_concepts=12, max_domains=3, density=0.3)
        assert_same_closure(store)


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


def deep_layered_store(rng: random.Random, depth: int = 9, width: int = 12) -> FactStore:
    """Two domains of layered DAGs, ``depth`` layers of ``width`` concepts:
    each concept below the top has one to three ``is_a`` parents and
    ``within`` parents one or two layers up, so a concept's ancestors fill
    most layers above it and most rows stay idle in a late layer.  Traits
    sit on concepts of every layer (``has_attribute``, inherited along
    ``is_a``), ``tagged`` is symmetric and inherits along the custom carrier
    ``within``, and ``contrasts_with`` pairs concepts across layers."""
    registry = builtin_registry()
    registry.register(RelationSpec("within", transitive=True, acyclic=True))
    registry.register(RelationSpec("tagged", symmetric=True, inherits_via="within"))
    store = FactStore(registry)
    layers = [[ConceptId(f"L{k}_{i:02d}") for i in range(width)] for k in range(depth)]
    everyone = [c for layer in layers for c in layer]
    traits = [ConceptId(f"trait{i}") for i in range(6)]
    for d in range(2):
        domain = parse_domain(f"deep{d}")

        def add(relation: str, a: ConceptId, b: ConceptId) -> None:
            store.assert_fact(Fact.intra(relation, a, b, domain))

        for k in range(1, depth):
            for c in layers[k]:
                for parent in rng.sample(layers[k - 1], rng.randint(1, 3)):
                    add("is_a", c, parent)
                for parent in rng.sample(layers[k - 1 - (k > 1 and rng.random() < 0.3)], rng.randint(1, 2)):
                    add("within", c, parent)
                if rng.random() < 0.3:
                    add("requires", c, rng.choice(layers[rng.randrange(k)]))
        for c in everyone:
            if rng.random() < 0.25:
                add("has_attribute", c, rng.choice(traits))
            if rng.random() < 0.1:
                add("tagged", c, rng.choice(traits))
        for _ in range(width):
            a, b = rng.sample(everyone, 2)
            add("contrasts_with", a, b)
    return store


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_kernel_matches_reference_on_deep_layered_dags(seed):
    """Deep DAGs where most rows are idle in most layers: the kernel visits
    only the rows a layer can change, and must still find every fact."""
    store = deep_layered_store(random.Random(seed))
    assert len({c for f in store.facts() for c in f.concepts}) >= 100
    for domain in store.relation_domains("is_a"):
        relations = ["is_a", "within", "requires", "has_attribute", "tagged", "contrasts_with"]
        assert len(_closure(store, relations, domain).layers) >= 7
    assert assert_same_closure(store) == {RULE_TRANSITIVE, RULE_SYMMETRIC, RULE_INHERITANCE}
