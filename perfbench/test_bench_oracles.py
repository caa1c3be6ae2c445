"""The benchmark's oracles on known graphs, against the reference oracles
in ``tests/oracles.py``, and against the program on a cycle-closing write.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import random
import re
from pathlib import Path

import pytest

import workloads
from bench_oracles import (
    Model, Query, expected_closure, lint_count, levenshtein, prerequisite_order, witness_count,
)

ROOT = Path(__file__).resolve().parent.parent


def reference_oracles():
    spec = importlib.util.spec_from_file_location("reference_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def edges(relation: str, pairs, domain: str = "d") -> list[tuple]:
    return [(relation, pair, (domain,)) for pair in pairs]


def answer(model: Model, text: str, mode: str = "exact") -> list[tuple]:
    return model.answer(Query("q", text, mode))


CHAIN = edges("is_a", [("a", "b"), ("b", "c"), ("c", "d")])
DIAMOND = edges("requires", [("top", "left"), ("top", "right"), ("left", "base"), ("right", "base")])


def test_chain():
    model = Model(CHAIN)
    assert model.reach("is_a", "d", "a") == {"b", "c", "d"}
    assert model.distances("is_a", "d", "a") == {"b": 1, "c": 2, "d": 3}
    assert expected_closure(model)["star"][("is_a", "d")] == {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")}
    assert answer(model, 'is_a_star(?X, c, "d")') == [("a",), ("b",)]
    assert answer(model, 'is_a_star(a, ?Y, "other")') == []


def test_diamond():
    model = Model(DIAMOND)
    assert model.distances("requires", "d", "top") == {"left": 1, "right": 1, "base": 2}
    assert prerequisite_order(model, "d", "top") == ["base", "left", "right"]
    assert answer(model, 'all_prerequisites(top, ?P, "d")') == [("base",), ("left",), ("right",)]


def test_inheritance_symmetry_and_inherit_mode():
    facts = CHAIN + edges("has_attribute", [("c", "red"), ("a", "small")]) + [
        ("has_attribute", ("a", "round"), ("g",)), ("is_a", ("a", "z"), ("g",)),
        ("contrasts_with", ("a", "b"), ("d",)),
    ]
    model = Model(facts)
    assert answer(model, 'has_attribute(a, ?A, "d")') == [("red",), ("small",)]
    assert answer(model, 'has_attribute(a, ?A, "g@d")', "inherit") == [("round",)]
    assert answer(model, 'is_a_star(a, ?Y, "g@d")', "inherit") == [("z",)]
    assert answer(model, 'contrasts_with(?X, ?Y, "d")') == [("a", "b"), ("b", "a")]
    closure = expected_closure(model)
    assert closure["inherited"]["d"] == {("a", "red"), ("a", "small"), ("b", "red"), ("c", "red")}
    assert closure["symmetric"] == {("contrasts_with", ("b", "a"), ("d",))}


def test_witnesses_and_lints():
    facts = [("is_a", ("apple", "fruit"), ("bio",)), ("is_a", ("apple", "company"), ("biz",)),
             ("is_a", ("apple", "fruit"), ("food",)), ("is_a", ("apple", "pome"), ("bio",))]
    # (fruit@bio, company@biz), (company@biz, fruit@food), (company@biz, pome@bio), (fruit@food, pome@bio)
    assert witness_count(facts) == 4
    assert levenshtein("kitten", "sitting") == 3
    assert lint_count(["alpha", "alpah", "Alpha", "beta", "zzzzzzz"]) == 2


def test_cycle_closing_write_in_a_strict_store():
    cdc = pytest.importorskip("cdcgraph")
    model = Model(CHAIN)
    assert "d" in model.reach("is_a", "d", "a")  # so is_a(d, a) closes a cycle
    store = cdc.FactStore(cdc.builtin_registry(), strict=True)
    for fact in CHAIN:
        assert cdc.load_text(workloads.render_fact(fact), store).ok
    before = (store.fact_set(), store.generation)
    with pytest.raises(cdc.CycleError):
        store.assert_fact(cdc.parse_fact_text('is_a(d, a, "d")', store.registry))
    assert (store.fact_set(), store.generation) == before


def test_generated_cycle_writes_close_a_cycle():
    wl = workloads.generate("edit-readback", 5)
    mirror = Model(wl.facts)
    for edit in wl.edits:
        if edit.kind == "cycle":
            (z, x), (domain,) = edit.fact[1], edit.fact[2]
            assert z in mirror.reach("is_a", domain, x)
        elif edit.kind == "add":
            mirror.add(edit.fact)
        else:
            mirror.remove(edit.fact)


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_reference_oracles(seed):
    ref = reference_oracles()
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(8)]
    pairs = {tuple(sorted(rng.sample(nodes, 2))) for _ in range(14)}
    attrs = {(rng.choice(nodes), rng.choice("xyz")) for _ in range(6)}
    model = Model(edges("is_a", pairs) + edges("has_attribute", attrs) + edges("requires", pairs))
    assert expected_closure(model)["star"][("is_a", "d")] == ref.floyd_warshall_pairs(nodes, pairs)
    deps = {n: model.adj.get(("requires", "d"), {}).get(n, set()) for n in nodes}
    for node in nodes:
        assert model.attributes("d", node) == {a for a, _ in ref.brute_force_inherited(node, pairs, attrs)}
        prereqs = sorted(model.reach("requires", "d", node))
        if prereqs:
            # the heap order is the lexicographically least topological order
            orders = ref.all_topological_orders(prereqs, deps)
            assert tuple(prerequisite_order(model, "d", node)) == min(orders)


def casestudy(name: str) -> Model:
    """Facts of a bundled case study, read with a regex: bare atoms are
    concepts, quoted strings are domains."""
    text = (ROOT / "src" / "cdcgraph" / "casestudies" / f"{name}.cdc").read_text(encoding="utf-8")
    facts = []
    for relation, args in re.findall(r"^(\w+)\((.*)\)\.", text, re.M):
        terms = [t.strip() for t in args.split(",")]
        concepts = tuple(t for t in terms if not t.startswith('"'))
        domains = tuple(t.strip('"') for t in terms if t.startswith('"'))
        facts.append(workloads.canonical(relation, concepts, domains))
    return Model(facts)


def test_education_case_study():
    model = casestudy("education")
    assert answer(model, 'is_a_star(quadratic_function, ?S, "math@algebra")') == [
        ("function",), ("polynomial_function",)]
    assert prerequisite_order(model, "highschool", "calculus") == ["arithmetic", "algebra"]
