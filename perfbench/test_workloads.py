"""The workload generator is a pure function of its seed.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

import workloads
from bench_oracles import Model


def serialized(wl: workloads.Workload) -> tuple[str, str, str]:
    """The KB file, the query list and the edit list as text."""
    queries = "\n".join(f"{q.cls}\t{q.mode}\t{q.text}" for q in wl.queries)
    edits = "\n".join(f"{e.kind}\t{workloads.render_fact(e.fact)}\t" + "\t".join(q.text for q in e.reads)
                      for e in wl.edits)
    return wl.kb_text, queries, edits


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first, second = workloads.generate(name, 7), workloads.generate(name, 7)
    assert serialized(first) == serialized(second)
    assert first.explain_sample == second.explain_sample
    assert first.cli_query.text == second.cli_query.text


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(name):
    a, b = serialized(workloads.generate(name, 1)), serialized(workloads.generate(name, 2))
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_well_formed(name):
    wl = workloads.generate(name, 3)
    model = Model(wl.facts)
    assert len(set(wl.facts)) == len(wl.facts)
    for relation in ("is_a", "requires"):
        for domain in model.domains(relation):
            assert all(x not in model.reach(relation, domain, x) for x in model.nodes(relation, domain))
    assert {q.cls for q in wl.queries} == set(workloads.QUERY_CLASSES)
    assert wl.cli_query.expected
    for edit in wl.edits:
        assert 1 <= len(edit.reads) <= 3
    cycles = [e for e in wl.edits if e.kind == "cycle"]
    assert bool(cycles) == wl.strict


def test_typical_keeps_the_median_sized_draw():
    draws = iter([["a"] * 5, ["b"], ["c"] * 3])
    assert workloads.typical(lambda: next(draws), len, k=3) == ["c"] * 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_closure_sizes_vary_little_with_the_seed(name):
    sizes = []
    for seed in (1, 2, 3, 4):
        model = Model(workloads.generate(name, seed).facts)
        sizes.append(sum(len(model.reach("is_a", d, x)) for d in model.domains("is_a") for x in model.nodes("is_a", d)))
    assert max(sizes) / min(sizes) < 1.05
