"""Synthetic knowledge bases and the partition-scan benchmark behind
``cdc bench``."""

from __future__ import annotations

import itertools
import random
import time

from .domains import parse_domain
from .inference import materialize
from .relations import builtin_registry
from .store import ConceptId, Fact, FactPattern, FactStore


def generate_synthetic_store(n_facts: int, n_domains: int, seed: int) -> FactStore:
    """Uniform random is_a facts over ``n_domains`` domains; each domain's
    edges form a DAG (edges only go from lower- to higher-numbered concepts)
    so materialization is always well-defined."""
    rng = random.Random(seed)
    registry = builtin_registry()
    store = FactStore(registry)
    width = max(2, len(str(n_domains - 1)))
    counts = [0] * n_domains
    for _ in range(n_facts):
        counts[rng.randrange(n_domains)] += 1
    for index, k in enumerate(counts):
        if k == 0:
            continue
        name = f"d{index:0{width}d}"
        domain = parse_domain(name)
        m = 3
        while m * (m - 1) // 2 < 3 * k:
            m += 1
        pairs = rng.sample(list(itertools.combinations(range(m), 2)), k)
        for i, j in pairs:
            store.assert_fact(Fact.intra(
                "is_a",
                ConceptId(f"{name}_n{i:03d}"),
                ConceptId(f"{name}_n{j:03d}"),
                domain,
            ))
    return store


def run_bench(n_facts: int, n_domains: int, seed: int) -> dict:
    """Scan accounting for full-relation vs domain-filtered matching, plus
    materialization wall time, on a synthetic KB."""
    store = generate_synthetic_store(n_facts, n_domains, seed)
    width = max(2, len(str(n_domains - 1)))

    full_pattern = FactPattern("is_a", (None, None), (None,))
    list(store.match(full_pattern))
    scanned_full = store.stats().last_query_scanned

    filtered_scans = []
    for index in range(n_domains):
        domain = parse_domain(f"d{index:0{width}d}")
        list(store.match(FactPattern("is_a", (None, None), (domain,))))
        filtered_scans.append(store.stats().last_query_scanned)
    mean_filtered = sum(filtered_scans) / len(filtered_scans)

    start = time.perf_counter()
    closure = materialize(store)
    elapsed = time.perf_counter() - start

    return {
        "type": "bench",
        "n_facts": n_facts,
        "n_domains": n_domains,
        "seed": seed,
        "scanned_full": scanned_full,
        "scanned_filtered_mean": mean_filtered,
        "scanned_filtered_max": max(filtered_scans),
        "reduction_factor": (scanned_full / mean_filtered) if mean_filtered else 1.0,
        "materialize_seconds": elapsed,
        "derived_facts": closure.size(),
    }
