"""Differential tests: the per-domain bitset kernel behind ``materialize``
against the semi-naive fixpoint it replaced (``reference_closure``).  The
closures must be equal: the same derived facts and the same trace for each.
"""

from __future__ import annotations

import random

import pytest

from cdcgraph import CASESTUDY_NAMES, FactStore, builtin_registry, load_casestudy, materialize
from cdcgraph.inference import RULE_INHERITANCE, RULE_SYMMETRIC, RULE_TRANSITIVE
from conftest import random_dag_store, random_registry_store
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
