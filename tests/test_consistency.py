from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdcgraph import (
    CASESTUDY_NAMES,
    ConceptId,
    FactStore,
    builtin_registry,
    check,
    load_casestudy,
    load_text,
    materialize,
    parse_domain,
)
from cdcgraph.consistency import (
    ConsistencyReport,
    Lint,
    SeparationWitness,
    Violation,
    edit_distance_at_most,
    find_cycle,
)
from cdcgraph.errors import CycleError
from cdcgraph.synthetic import generate_synthetic_store
from conftest import apple_store, assert_record_contract, assert_tuple_contract, intra, random_registry_store
import reference_consistency

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def brute_levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_levenshtein(a[:-1], b) + 1,
        brute_levenshtein(a, b[:-1]) + 1,
        brute_levenshtein(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


def levenshtein(a: str, b: str) -> int:
    """The whole (len(a) + 1) x (len(b) + 1) table, no cutoffs."""
    table = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


def test_apple_kb_separation():
    """Same concept, same relation, different domains, different targets:
    zero errors, one separation witness."""
    store = apple_store()
    report = check(store)
    assert report.ok
    assert len(report.errors) == 0
    assert len(report.separation_witnesses) == 1
    witness = report.separation_witnesses[0]
    assert witness.concept.symbol == "Apple"
    assert witness.relation == "is_a"
    targets = {witness.first[0].symbol, witness.second[0].symbol}
    assert targets == {"Fruit", "Company"}


def test_two_cycle_reported():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("requires", "a", "b", "d"))
    store.assert_fact(intra("requires", "b", "a", "d"))
    report = check(store)
    assert len(report.errors) == 1
    error = report.errors[0]
    assert error.kind == "cycle"
    assert error.relation == "requires"
    # the listed edges exist in the store and form a closed walk
    for fact in error.facts:
        assert fact in store
    heads = [f.concepts[0] for f in error.facts]
    tails = [f.concepts[1] for f in error.facts]
    assert tails == heads[1:] + heads[:1]


def test_self_loop_is_irreflexivity_error():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("is_a", "x", "x", "d"))
    report = check(store)
    assert len(report.errors) == 1
    assert report.errors[0].kind == "irreflexive"
    assert report.errors[0].relation == "is_a"


def test_symmetric_self_loop_is_fine():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("contrasts_with", "x", "x", "d"))
    assert check(store).ok


def test_same_domain_divergence_is_not_an_error_nor_witness():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("is_a", "x", "A", "d"))
    store.assert_fact(intra("is_a", "x", "B", "d"))
    report = check(store)
    assert report.ok
    assert report.separation_witnesses == []


def test_case_variant_domains_lint():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("is_a", "a", "b", "math@algebra"))
    store.assert_fact(intra("is_a", "c", "d", "Math@Algebra"))
    report = check(store)
    lints = [w for w in report.warnings if w.kind == "case-variant-domains"]
    assert len(lints) == 1
    # oracle: the two spellings really are case-insensitively equal
    assert "math@algebra".lower() == "Math@Algebra".lower()
    assert "math@algebra" in lints[0].description and "Math@Algebra" in lints[0].description


def test_near_duplicate_domains_lint():
    store = FactStore(builtin_registry())
    store.assert_fact(intra("is_a", "a", "b", "physics"))
    store.assert_fact(intra("is_a", "c", "d", "physic"))
    store.assert_fact(intra("is_a", "e", "f", "completely_different"))
    report = check(store)
    near = [w for w in report.warnings if w.kind == "near-duplicate-domains"]
    assert len(near) == 1
    assert "physic" in near[0].description


def test_check_is_pure():
    store = apple_store()
    generation = store.generation
    first = check(store)
    second = check(store)
    assert store.generation == generation
    assert first.errors == second.errors
    assert first.warnings == second.warnings
    assert first.separation_witnesses == second.separation_witnesses


def test_random_cycle_edges_always_in_store():
    rng = random.Random(11)
    for _ in range(50):
        store = FactStore(builtin_registry())
        relation = rng.choice(("requires", "is_a", "evolves_to"))
        length = rng.randint(2, 6)
        nodes = [f"n{i}" for i in range(length)]
        for i, node in enumerate(nodes):
            store.assert_fact(intra(relation, node, nodes[(i + 1) % length], "d"))
        report = check(store)
        errors = [e for e in report.errors if e.kind == "cycle"]
        assert errors, "cycle missed"
        for fact in errors[0].facts:
            assert fact in store


@given(st.text(max_size=6), st.text(max_size=6))
def test_full_table_matches_recursion(a, b):
    assert levenshtein(a, b) == brute_levenshtein(a, b)


@st.composite
def nearby(draw, text):
    """``text`` after up to four random deletions, insertions or substitutions."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from("dis"))
        if op == "i" or not chars:
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from("abc")))
        elif op == "d":
            del chars[draw(st.integers(0, len(chars) - 1))]
        else:
            chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from("abc"))
    return "".join(chars)


abc_texts = st.text(alphabet="abc", max_size=12)
abc_pairs = st.tuples(abc_texts, abc_texts) | abc_texts.flatmap(lambda a: st.tuples(st.just(a), nearby(a)))


@settings(max_examples=500)
@given(abc_pairs, st.integers(min_value=0, max_value=4))
@example(("abcabcabcabc", "bcabcabcabca"), 2)
@example(("", "abc"), 3)
@example(("aaaaaaaaaaaa", "aaaaaaaaaaab"), 0)
@example(("abaa", "bb"), 2)  # a stale cell left of the band would read 2
def test_edit_distance_matches_brute_force(pair, bound):
    a, b = pair
    expected = levenshtein(a, b) <= bound
    assert edit_distance_at_most(a, b, bound) == expected
    assert reference_consistency.edit_distance_at_most(a, b, bound) == expected


# --- the candidate-pair lint against the all-pairs reference ---------------

def assert_lints_like_reference(store: FactStore) -> list:
    warnings = check(store).warnings
    assert [(w.kind, w.description) for w in warnings] == [
        (w.kind, w.description) for w in reference_consistency._domain_lints(store)
    ]
    return warnings


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_lints_match_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    assert_lints_like_reference(store)


@pytest.mark.parametrize("workload", ["closure-deep", "lazy-wide", "edit-readback"])
def test_lints_match_reference_on_benchmark_kbs(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    store = FactStore(builtin_registry())
    result = load_text(workloads.generate(workload, 1).kb_text, store)
    assert result.ok
    assert_lints_like_reference(store)


def test_lints_match_reference_on_synthetic_store():
    warnings = assert_lints_like_reference(generate_synthetic_store(4000, 200, 0))
    assert len(warnings) == 11961


# Short texts over a few letters in both cases: many pairs sit 0-3 edits
# apart, and some differ only by case.
lint_domains = st.lists(
    st.lists(st.text(alphabet="abAB", min_size=1, max_size=4), min_size=1, max_size=2).map("@".join),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(lint_domains)
@example(["ab", "AB", "aB", "abab", "b", "a@b", "A@b"])
def test_lints_match_reference_on_drawn_domains(texts):
    store = FactStore(builtin_registry())
    for text in texts:
        store.assert_fact(intra("is_a", "x", "y", text))
    assert_lints_like_reference(store)


def assert_cycles_like_reference(store: FactStore) -> None:
    """``check``'s errors are the reference's, and so is the ``CycleError``
    that ``materialize`` raises from ``ensure_acyclic``, or it raises none."""
    expected = reference_consistency._acyclicity_violations(store, store.registry)
    assert check(store).errors == expected
    if not expected:
        materialize(store)
        return
    first = expected[0]
    with pytest.raises(CycleError) as caught:
        materialize(store)
    # the message is made from these three
    assert (caught.value.relation, caught.value.domain, caught.value.vertices) == (
        first.relation, first.domain, tuple(f.concepts[0].symbol for f in first.facts))


# --- the order-free cycle pre-test against the always-sorted reference ------

# Random edges over few nodes, in a few partitions of two acyclic relations,
# plus planted cycles: one node is a self-loop, two a 2-cycle.  Insertion
# order is the drawn order, which is the order the pre-test walks in.  With
# ``upward`` every drawn edge runs from a lower to a higher node, so the
# drawn part is a DAG (self-loops aside) whose diamonds the walk must not
# take for cycles.
drawn_edges = st.lists(
    st.tuples(st.sampled_from(("is_a", "requires")), st.sampled_from(("d0", "d1", "d1@x")),
              st.integers(0, 7), st.integers(0, 7)),
    max_size=30,
)
planted_cycles = st.lists(
    st.tuples(st.sampled_from(("is_a", "requires")), st.sampled_from(("d0", "d1")),
              st.lists(st.integers(0, 11), min_size=1, max_size=9, unique=True)),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(drawn_edges, planted_cycles, st.booleans())
@example([], [("is_a", "d0", [3])], False)
@example([("is_a", "d0", 0, 1), ("is_a", "d0", 1, 2), ("is_a", "d0", 0, 3), ("is_a", "d0", 3, 1)], [], False)
@example([("is_a", "d0", 0, 1), ("is_a", "d0", 1, 2), ("is_a", "d0", 0, 2)], [("requires", "d1", [4, 2])], False)
@example([("requires", "d0", 5, 5), ("requires", "d0", 6, 5)], [("requires", "d0", [9, 8, 7, 6, 1, 0, 2, 3])], False)
def test_cycle_pretest_matches_reference(edges, cycles, upward):
    store = FactStore(builtin_registry())
    for relation, domain, u, v in edges:
        if upward:
            u, v = sorted((u, v))
        store.assert_fact(intra(relation, f"n{u}", f"n{v}", domain))
    for relation, domain, nodes in cycles:
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            store.assert_fact(intra(relation, f"n{u}", f"n{v}", domain))
    assert_cycles_like_reference(store)


# --- the one cycle search against the moved references ---------------------

# Successor lists over nodes 0-9, keyed by some of 0-7: self-loops, repeated
# successors, and successors that are not keys.
adjacencies = st.dictionaries(st.integers(0, 7), st.lists(st.integers(0, 9), max_size=5), max_size=8)


@settings(max_examples=500, deadline=None)
@given(adjacencies)
@example({0: [0]})
@example({0: [8, 1], 1: [8]})
@example({0: [1, 2], 1: [3], 2: [3], 3: []})
@example({0: [1, 3], 1: [2], 2: [], 3: [2, 1, 4], 4: [3]})
@example({0: [1, 2], 1: [], 2: [0]})
def test_find_cycle_matches_reference(adjacency):
    """Sorted, ``find_cycle`` picks the reference's walk; in the adjacency's
    own order it finds a cycle exactly when there is a self-loop or the
    store-order reference finds a longer one, and a closed walk of distinct
    nodes; laid out sorted, its own order is the sorted one."""
    assert find_cycle(adjacency) == reference_consistency.find_cycle(adjacency)
    cycle = find_cycle(adjacency, iter)
    self_loop = any(node in objects for node, objects in adjacency.items())
    assert (cycle is not None) == (self_loop or reference_consistency._has_cycle(adjacency))
    if cycle is not None:
        assert len(set(cycle)) == len(cycle)
        assert all(succ in adjacency[node] for node, succ in zip(cycle, cycle[1:] + cycle[:1]))
    laid_out = {node: sorted(adjacency[node]) for node in sorted(adjacency)}
    assert find_cycle(laid_out, iter) == reference_consistency.find_cycle(adjacency)


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_cycles_match_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    assert_cycles_like_reference(store)


@pytest.mark.parametrize("workload", ["closure-deep", "lazy-wide", "edit-readback"])
def test_cycles_match_reference_on_benchmark_kbs(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    store = FactStore(builtin_registry())
    assert load_text(workloads.generate(workload, 1).kb_text, store).ok
    assert_cycles_like_reference(store)


def test_cycles_match_reference_on_random_registries():
    """Random flags, with cycles in every relation that is not acyclic, and
    then the same stores with cycles and self-loops planted in ``is_a``."""
    rng = random.Random(29)
    for _ in range(40):
        store = random_registry_store(rng)
        assert_cycles_like_reference(store)
        concepts = sorted({c for fact in store.facts() for c in fact.concepts[:2]})
        for _ in range(3):
            a, b = rng.choice(concepts), rng.choice(concepts)
            store.assert_fact(intra("is_a", a.symbol, b.symbol, "dom0"))
        assert_cycles_like_reference(store)


def test_violation_record_contract():
    facts = (intra("requires", "a", "b", "d"), intra("requires", "b", "a", "d"))
    violation = assert_record_contract(Violation, dict(kind="cycle", relation="requires", domain="d",
                                                       description="cycle a -> b -> a", facts=facts))
    assert_tuple_contract(violation, kind="irreflexive")


def test_lint_record_contract():
    lint = assert_record_contract(Lint, dict(kind="duplicate-fact", description="d"))
    assert repr(lint) == "Lint(kind='duplicate-fact', description='d')"
    assert_tuple_contract(lint, description="e")
    assert Lint("k", "d") == ("k", "d")


def test_separation_witness_record_contract():
    fruit, company = ConceptId("Fruit"), ConceptId("Company")
    witness = assert_record_contract(SeparationWitness, dict(
        concept=ConceptId("Apple"), relation="is_a", first=(fruit, parse_domain("Biology")),
        second=(company, parse_domain("Business"))))
    assert witness.describe() == 'is_a(Apple, Fruit, "Biology") coexists with is_a(Apple, Company, "Business")'
    assert_tuple_contract(witness, relation="part_of")


def test_consistency_report_record_contract():
    store = apple_store()
    report = check(store)
    assert_record_contract(ConsistencyReport, dict(errors=report.errors, warnings=report.warnings,
                                                   separation_witnesses=report.separation_witnesses),
                           hashable=False)
    assert report == check(store) and report.ok
    assert_tuple_contract(report, hashable=False, separation_witnesses=[])
    empty = ConsistencyReport()
    assert empty.ok and not empty.errors and not empty.warnings and not empty.separation_witnesses
