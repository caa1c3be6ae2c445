from __future__ import annotations

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import (
    ConceptId,
    CycleError,
    Fact,
    FactPattern,
    FactStore,
    ShapeMismatchError,
    UnknownRelationError,
    builtin_registry,
    load_text,
    parse_domain,
)
from cdcgraph.store import StoreStats, canonicalize_fact, clause_texts, swap_orientation
from conftest import apple_store, assert_record_contract, assert_tuple_contract, cross, fusion, intra
import reference_store


def test_concept_interning():
    assert ConceptId("apple") is ConceptId("apple")
    assert ConceptId("apple") == ConceptId("apple")
    assert ConceptId("apple") != ConceptId("Apple")
    with pytest.raises(ValueError):
        ConceptId("")
    # equality is identity: a symbol built at run time finds the interned
    # object, and copying or unpickling returns that same object
    apple = ConceptId("apple")
    assert ConceptId("".join(["ap", "ple"])) is apple
    assert {apple: 1}[ConceptId("apple")] == 1
    for duplicate in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        assert duplicate(apple) is apple


def test_concept_refuses_both_quote_kinds_and_assignment():
    with pytest.raises(ValueError, match="holds both quote kinds"):
        ConceptId("it's \"x\"")
    with pytest.raises(AttributeError, match="^ConceptId is immutable$"):
        ConceptId("apple").symbol = "pear"


def test_pattern_of_another_arity_matches_nothing():
    d = parse_domain("d")
    fact = Fact.intra("is_a", ConceptId("a"), ConceptId("b"), d)
    assert FactPattern("is_a", (None, None), (None,)).matches(fact)
    assert not FactPattern("is_a", (None, None, None), (None,)).matches(fact)
    assert not FactPattern("is_a", (None, None), (None, None)).matches(fact)


def test_concept_intern_table_drops_unreferenced_symbols():
    symbol = "only_here_" + str(random.random())
    concept = ConceptId(symbol)
    assert ConceptId._interned[symbol] is concept
    assert pickle.loads(pickle.dumps(concept)) is concept is copy.deepcopy(concept)
    del concept
    gc.collect()
    assert symbol not in ConceptId._interned
    # a held symbol stays interned across collections
    held = ConceptId(symbol)
    gc.collect()
    assert ConceptId(symbol) is held


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_facts_and_domains_survive_copy_and_pickle(duplicate):
    facts = [
        intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy"),
        cross("analogous_to", "atom", "solar_system", "Physics@Atomic", "Astronomy@Planetary"),
        fusion("fuses_with", "a", "b", "ab", "product+engineering@mobile"),
    ]
    for fact in facts:
        copied = duplicate(fact)
        assert copied == fact and hash(copied) == hash(fact)
        for have, want in zip(copied.domains, fact.domains):
            assert have == want and hash(have) == hash(want)
            assert have.text == want.text and have.segments == want.segments
        assert all(have is want for have, want in zip(copied.concepts, fact.concepts))
    store = FactStore(builtin_registry())
    for fact in facts:
        store.assert_fact(fact)
    assert all(duplicate(fact) in store for fact in facts)


def test_fact_and_trace_value_contract():
    """``Fact`` and ``DerivationTrace`` are NamedTuples: values built apart
    are equal and hash alike, they refuse assignment, survive ``pickle`` and
    ``deepcopy``, and equal the plain tuple of their fields.  Sorted views
    keep ``sort_key``'s order, not the tuple's."""
    from cdcgraph import DerivationTrace

    def build():
        fact = intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy")
        return fact, DerivationTrace("transitive", (fact, intra("is_a", "Fruit", "Food", "Biology@Plant_Taxonomy")))

    (fact, trace), (fact2, trace2) = build(), build()
    assert fact == fact2 and hash(fact) == hash(fact2) and fact is not fact2
    assert trace == trace2 and hash(trace) == hash(trace2) and trace is not trace2
    assert DerivationTrace("asserted").premises == () and DerivationTrace("asserted").is_leaf
    for value, field in ((fact, "relation"), (fact, "concepts"), (trace, "rule"), (trace, "premises")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
    for duplicate in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert duplicate(fact) == fact and type(duplicate(fact)) is Fact
        assert duplicate(trace) == trace and type(duplicate(trace)) is DerivationTrace
    # tuple semantics, the documented behaviour
    assert fact == tuple(fact) == (fact.relation, fact.concepts, fact.domains)
    assert trace == tuple(trace) == (trace.rule, trace.premises)
    assert hash(fact) == hash(tuple(fact)) and {tuple(fact): 1}[fact] == 1
    assert len(fact) == 3 and len(trace) == 2
    assert fact._replace(relation="part_of") == intra("part_of", "Apple", "Fruit", "Biology@Plant_Taxonomy")
    assert repr(fact) == 'is_a(Apple, Fruit, "Biology@Plant_Taxonomy")'
    other = intra("part_of", "Apple", "Fruit", "Biology@Plant_Taxonomy")
    assert (fact < other) == (tuple(fact) < tuple(other)) is True
    # ``<`` is the tuple's order; ``facts()`` sorts by ``sort_key``: domain
    # text before concepts, where the tuple order compares concepts first
    store = FactStore(builtin_registry())
    for f in (intra("is_a", "a", "z", "y"), intra("is_a", "b", "c", "x"), intra("is_a", "a", "c", "y"),
              cross("analogous_to", "atom", "sun", "Physics", "Astronomy"), other):
        store.assert_fact(f)
    assert store.facts() == sorted(store, key=Fact.sort_key)
    assert [f.sort_key() for f in store.facts()] == sorted(f.sort_key() for f in store)
    assert [repr(f) for f in store.facts()] == [
        'analogous_to(atom, sun, "Physics", "Astronomy")',
        'is_a(b, c, "x")', 'is_a(a, c, "y")', 'is_a(a, z, "y")',
        'part_of(Apple, Fruit, "Biology@Plant_Taxonomy")',
    ]


def test_assert_and_duplicate(store):
    fact = intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy")
    assert store.assert_fact(fact) is True
    assert store.assert_fact(fact) is False
    assert len(store) == 1


def test_assert_unknown_relation(store):
    with pytest.raises(UnknownRelationError):
        store.assert_fact(intra("no_such_relation", "a", "b", "d"))


def test_assert_shape_mismatch(store):
    # analogous_to is cross-domain: it needs two domains, not an intra triple
    with pytest.raises(ShapeMismatchError):
        store.assert_fact(intra("analogous_to", "a", "b", "d"))


def test_retract_roundtrip(store):
    fact = intra("requires", "calculus", "algebra", "highschool")
    store.assert_fact(fact)
    assert store.retract_fact(fact) is True
    assert store.retract_fact(fact) is False
    assert len(store) == 0
    assert list(store.match(FactPattern("requires", (None, None), (None,)))) == []
    store.assert_fact(fact)
    assert store.fact_set() == {fact}


def test_match_by_subject():
    store = apple_store()
    store.assert_fact(intra("is_a", "Banana", "Fruit", "Biology@Plant_Taxonomy"))
    hits = list(store.match(FactPattern("is_a", (ConceptId("Apple"), None), (None,))))
    assert len(hits) == 2
    assert {f.concepts[1].symbol for f in hits} == {"Fruit", "Company"}


def test_match_empty_store(store):
    assert list(store.match(FactPattern("is_a", (None, None), (None,)))) == []


def test_match_domain_fixed_scans_partition_only():
    store = FactStore(builtin_registry())
    for d in range(5):
        domain = parse_domain(f"dom{d}")
        for i in range(10):
            store.assert_fact(Fact.intra("is_a", ConceptId(f"c{d}_{i}"), ConceptId(f"c{d}_{i}x"), domain))
    list(store.match(FactPattern("is_a", (None, None), (parse_domain("dom3"),))))
    assert store.stats().last_query_scanned == 10
    list(store.match(FactPattern("is_a", (None, None), (None,))))
    assert store.stats().last_query_scanned == 50


def test_symmetric_canonicalization(store):
    store.assert_fact(intra("contrasts_with", "supervised", "unsupervised", "ml"))
    assert store.assert_fact(intra("contrasts_with", "unsupervised", "supervised", "ml")) is False
    assert len(store) == 1
    assert intra("contrasts_with", "unsupervised", "supervised", "ml") in store


def test_cross_fact_symmetric_canonicalization(store):
    a = cross("analogous_to", "neural_network", "brain", "ai@ml", "neuroscience")
    b = cross("analogous_to", "brain", "neural_network", "neuroscience", "ai@ml")
    store.assert_fact(a)
    assert store.assert_fact(b) is False
    assert len(store) == 1


def test_fusion_symmetric_in_sources(store):
    a = fusion("fuses_with", "ux", "feasibility", "spec", "product+engineering")
    b = fusion("fuses_with", "feasibility", "ux", "spec", "product+engineering")
    store.assert_fact(a)
    assert store.assert_fact(b) is False


_SYMBOLS = st.text(alphabet="ab_", min_size=1, max_size=3)
_DOMAINS = st.sampled_from(["a", "a@b", "b", "ab"]).map(parse_domain)


@st.composite
def _shaped_facts(draw):
    """A fact of any shape over a few short symbols and domains, so equal
    concepts, equal domains and shared prefixes come up often."""
    relation = draw(st.sampled_from(["contrasts_with", "is_a", "analogous_to", "fuses_with"]))
    shape = builtin_registry().lookup(relation).shape
    concepts = tuple(ConceptId(draw(_SYMBOLS)) for _ in range(shape.concept_count))
    domains = tuple(draw(_DOMAINS) for _ in shape.domain_positions)
    return Fact(relation, concepts, domains)


@settings(max_examples=500, deadline=None)
@given(_shaped_facts())
def test_canonical_orientation_matches_per_shape_rule(fact):
    """One comparison of a fact with its swapped orientation orients every
    shape as the per-shape rule does, and both orientations agree."""
    spec = builtin_registry().lookup(fact.relation)
    canonical = canonicalize_fact(fact, spec)
    assert canonical == reference_store.canonicalize_fact(fact, spec)
    assert canonicalize_fact(swap_orientation(fact, spec), spec) == canonical
    assert swap_orientation(swap_orientation(fact, spec), spec) == fact


def test_cross_fact_indexed_under_both_domains(store):
    store.assert_fact(cross("analogous_to", "atom", "solar_system", "Physics@Atomic", "Astronomy@Planetary"))
    for text in ("Physics@Atomic", "Astronomy@Planetary"):
        hits = list(store.match(FactPattern("analogous_to", (None, None), (parse_domain(text), None))))
        hits += list(store.match(FactPattern("analogous_to", (None, None), (None, parse_domain(text)))))
        assert len(hits) >= 1


def test_stats(store):
    assert store.stats().total_facts == 0
    store.assert_fact(intra("is_a", "a", "b", "d1"))
    store.assert_fact(intra("is_a", "c", "d", "d1"))
    store.assert_fact(intra("is_a", "e", "f", "d2"))
    stats = store.stats()
    assert stats.total_facts == 3
    assert stats.facts_per_domain == {"d1": 2, "d2": 1}


def test_stats_counts_cross_facts_once_per_domain(store):
    store.assert_fact(cross("analogous_to", "a", "b", "d1", "d2"))
    stats = store.stats()
    assert stats.total_facts == 1
    assert stats.facts_per_domain == {"d1": 1, "d2": 1}
    assert sum(stats.facts_per_domain.values()) >= stats.total_facts


def test_partition_scan_bound_randomized():
    rng = random.Random(7)
    store = FactStore(builtin_registry())
    domains = [parse_domain(f"dom{k:02d}") for k in range(50)]
    for i in range(10_000):
        d = rng.randrange(50)
        store.assert_fact(Fact.intra(
            "is_a", ConceptId(f"s{d}_{rng.randrange(40)}"), ConceptId(f"o{d}_{rng.randrange(40)}"), domains[d],
        ))
    stats = store.stats()
    for domain in domains:
        list(store.match(FactPattern("is_a", (None, None), (domain,))))
        scanned = store.stats().last_query_scanned
        assert scanned == stats.facts_per_domain.get(domain.text, 0)
        assert scanned <= 2 * (10_000 // 50)  # modest skew only


def test_domain_fixed_scan_bound_10k_over_50():
    """10k facts over 50 domains: a domain-fixed pattern touches <= 200-ish
    entries, two orders below the full scan."""
    store = FactStore(builtin_registry())
    domains = [parse_domain(f"dom{k:02d}") for k in range(50)]
    for i in range(10_000):
        d = domains[i % 50]
        store.assert_fact(Fact.intra("is_a", ConceptId(f"x{i}"), ConceptId(f"y{i}"), d))
    list(store.match(FactPattern("is_a", (ConceptId("x150"), None), (domains[0],))))
    assert store.stats().last_query_scanned <= 200


def test_index_coherence_after_retract(store):
    fact = intra("part_of", "wheel", "car", "mechanics")
    store.assert_fact(fact)
    store.retract_fact(fact)
    assert list(store.match(FactPattern("part_of", (ConceptId("wheel"), None), (None,)))) == []
    assert list(store.match(FactPattern("part_of", (None, ConceptId("car")), (None,)))) == []
    assert list(store.match(FactPattern("part_of", (None, None), (parse_domain("mechanics"),)))) == []
    assert store.stats().facts_per_domain == {}


def test_generation_bumps_on_mutation(store):
    g0 = store.generation
    fact = intra("is_a", "a", "b", "d")
    store.assert_fact(fact)
    assert store.generation == g0 + 1
    store.assert_fact(fact)  # duplicate: no change
    assert store.generation == g0 + 1
    store.retract_fact(fact)
    assert store.generation == g0 + 2


def test_strict_mode_rejects_cycle_at_assert():
    store = FactStore(builtin_registry(), strict=True)
    store.assert_fact(intra("requires", "a", "b", "d"))
    with pytest.raises(CycleError) as err:
        store.assert_fact(intra("requires", "b", "a", "d"))
    assert err.value.relation == "requires"
    assert len(store) == 1


def test_strict_cycle_check_stays_in_relation_and_domain():
    """Only the new edge's own relation and domain can close its cycle; the
    error names a closed walk of stored edges plus the new one."""
    store = FactStore(builtin_registry(), strict=True)
    for fact in (intra("is_a", "a", "b", "d"), intra("is_a", "b", "c", "d"), intra("is_a", "c", "x", "d"),
                 intra("is_a", "c", "a", "other"), intra("part_of", "c", "a", "d")):
        assert store.assert_fact(fact)
    with pytest.raises(CycleError) as err:
        store.assert_fact(intra("is_a", "c", "a", "d"))
    assert str(err.value) == "cycle in acyclic relation 'is_a' within domain 'd': c -> a -> b -> c"
    assert len(store) == 5


def _index_view(store: FactStore, domains: list[str]) -> tuple:
    """Everything the indexes show of ``is_a`` in ``domains``, copied."""
    def rows(adjacency):
        return {near: dict(row) for near, row in adjacency.items()}

    parsed = [parse_domain(d) for d in domains]
    return (
        store.relation_domains("is_a"),
        [store.has_partition("is_a", d) for d in parsed],
        store.stats().facts_per_domain,
        [(rows(store.successors("is_a", d)), rows(store.predecessors("is_a", d))) for d in parsed],
        len(store),
        store.generation,
    )


@pytest.mark.parametrize("held, refused", [
    ([], ("a", "a", "fresh")),  # a self-loop in a domain the store does not hold yet
    ([("p", "q", "new")], ("q", "p", "new")),  # a two-node cycle in a domain the first edge made
], ids=["self-loop", "two-node"])
@pytest.mark.parametrize("path", ["assert_fact", "load_text"])
def test_a_refused_strict_insert_leaves_no_trace(held, refused, path):
    """A strict store refuses the edge before it makes any index container:
    no partition, row or column of the new domain or concept is left behind."""
    store = FactStore(builtin_registry(), strict=True)
    store.assert_fact(intra("is_a", "a", "b", "d"))
    for edge in held:
        store.assert_fact(intra("is_a", *edge))
    before = _index_view(store, ["d", "fresh", "new"])
    if path == "assert_fact":
        with pytest.raises(CycleError):
            store.assert_fact(intra("is_a", *refused))
    else:
        result = load_text('is_a({}, {}, "{}").'.format(*refused), store)
        assert [d.severity for d in result.diagnostics] == ["error"] and not result.facts
        assert "cycle in acyclic relation 'is_a'" in result.diagnostics[0].message
    assert _index_view(store, ["d", "fresh", "new"]) == before


_EDGE_CONCEPTS = [ConceptId(symbol) for symbol in "abcde"]
_EDGE_DOMAINS = [parse_domain(text) for text in ("d", "e", "f")]
# two acyclic relations and one whose cycles a strict store accepts
_EDGE_RELATIONS = ("is_a", "requires", "cause_of")
_edges = st.builds(Fact.intra, st.sampled_from(_EDGE_RELATIONS), st.sampled_from(_EDGE_CONCEPTS),
                   st.sampled_from(_EDGE_CONCEPTS), st.sampled_from(_EDGE_DOMAINS))
# a walk through one to five distinct concepts, then back to the first: a
# self-loop, a two-node cycle or a longer one
_cycles = st.builds(
    lambda relation, path, domain: [Fact.intra(relation, x, y, domain) for x, y in zip(path, path[1:] + path[:1])],
    st.sampled_from(_EDGE_RELATIONS), st.lists(st.sampled_from(_EDGE_CONCEPTS), min_size=1, max_size=5, unique=True),
    st.sampled_from(_EDGE_DOMAINS))
_edits = st.lists(st.tuples(st.sampled_from(["assert", "retract", "load"]),
                            st.one_of(st.lists(_edges, min_size=1, max_size=4), _cycles)), max_size=20)


class _CountingReference(reference_store.AlwaysWalkStore):
    """The reference store, counting the inserts whose new edge can close a
    cycle: a strict store's new edge of an acyclic relation that is a
    self-loop, or whose subject has an incoming and whose object has an
    outgoing edge in its partition."""

    can_close = 0

    def _insert(self, fact: Fact, spec) -> bool:
        x, y, domain = fact.subject, fact.object, fact.domain
        if self.strict and spec.acyclic and fact not in self and (
                x is y or (x in self.predecessors(fact.relation, domain) and y in self.successors(fact.relation, domain))):
            self.can_close += 1
        return super()._insert(fact, spec)


def _index_order(store: FactStore) -> list:
    """The intra indexes with every key in its order, the count and the
    generation: a cycle walk follows the order of the successor rows."""
    return [[(relation, [(domain, [(near, list(row.items())) for near, row in adjacency.items()])
                         for domain, adjacency in partitions.items()])
             for relation, partitions in index.items()]
            for index in (store._successors, store._predecessors)] + [len(store), store.generation]


def _edit(store: FactStore, kind: str, facts: list[Fact]):
    """What the edit returns: the load result, or each call's result or
    ``CycleError`` text."""
    if kind == "load":
        return load_text("\n".join(clause_texts(facts)), store)
    call = store.assert_fact if kind == "assert" else store.retract_fact
    outcomes = []
    for fact in facts:
        try:
            outcomes.append(call(fact))
        except CycleError as exc:
            outcomes.append(str(exc))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(strict=st.booleans(), edits=_edits)
def test_insert_walks_only_where_an_edge_can_close_a_cycle(strict, edits):
    """Asserts, retracts and ``load_text`` edits give the same outcomes, the
    same ``CycleError`` text and the same indexes, key order included, as
    the reference store that walks for a cycle on every strict insert; and
    the store walks exactly where the new edge can close a cycle."""
    store = FactStore(builtin_registry(), strict=strict)
    reference = _CountingReference(builtin_registry(), strict=strict)
    walks = []
    walk = store._reject_if_creates_cycle
    store._reject_if_creates_cycle = lambda fact: walks.append(fact) or walk(fact)
    for kind, facts in edits:
        assert _edit(store, kind, facts) == _edit(reference, kind, facts)
        assert _index_order(store) == _index_order(reference)
        assert len(walks) == reference.can_close


def _walk_count(text: str, strict: bool, monkeypatch) -> tuple[int, int]:
    """How many cycle walks loading ``text`` into a fresh store makes, and
    how many errors the load reports."""
    walks = []
    walk = FactStore._reject_if_creates_cycle
    monkeypatch.setattr(FactStore, "_reject_if_creates_cycle", lambda self, fact: walks.append(fact) or walk(self, fact))
    result = load_text(text, FactStore(builtin_registry(), strict=strict))
    return len(walks), len(result.errors)


def _clauses(edges: str) -> str:
    """``"ab bc"`` as the clauses ``is_a(a, b, "d"). is_a(b, c, "d").``"""
    return "\n".join(f'is_a({x}, {y}, "d").' for x, y in edges.split())


@pytest.mark.parametrize("edges, walks, errors", [
    # a chain a -> b -> ... -> h, from its top edge down, then from its
    # bottom edge up: each new edge's subject, then its object, has no edge
    ("gh fg ef de cd bc ab", 0, 0),
    ("ab bc cd de ef fg gh", 0, 0),
    # the same chain with its middle edge last: only that edge has both ends
    ("ab bc cd ef fg gh de", 1, 0),
    # a diamond, then the edge that closes it into a cycle
    ("ab ac bd cd", 0, 0),
    ("ab ac bd cd da", 1, 1),
    # a self-loop, alone and on a chain
    ("aa", 1, 1),
    ("ab bb", 1, 1),
], ids=["chain-top-down", "chain-bottom-up", "chain-middle-last", "diamond", "diamond-closed", "self-loop",
        "self-loop-on-chain"])
def test_strict_load_walks_for_a_cycle_only_where_one_can_close(edges, walks, errors, monkeypatch):
    """A strict insert walks for a cycle only when the new edge is a
    self-loop or both its ends already have edges: the subject an incoming
    and the object an outgoing one.  A lenient store never walks."""
    assert _walk_count(_clauses(edges), True, monkeypatch) == (walks, errors)
    assert _walk_count(_clauses(edges), False, monkeypatch) == (0, 0)


def _cross_and_fusion_store() -> FactStore:
    store = FactStore(builtin_registry())
    for fact in (cross("analogous_to", "a", "b", "p", "q"), cross("analogous_to", "c", "a", "r", "p"),
                 cross("analogous_to", "b", "c", "q", "q"), cross("analogous_to", "d", "a", "p", "p"),
                 cross("analogous_to", "a", "e", "p", "r"),
                 fusion("fuses_with", "a", "b", "ab", "x"), fusion("fuses_with", "c", "a", "ac", "x"),
                 fusion("fuses_with", "b", "c", "bc", "y"), fusion("fuses_with", "c", "d", "cd", "x@y")):
        store.assert_fact(fact)
    return store


@pytest.mark.parametrize("relation, concepts, domains, scanned, hits", [
    # domain-fixed: the domain's partition, whichever side holds the domain,
    # a fact with both sides in it counted once; where a concept is bound too,
    # its entry is read instead (here no larger than the partition)
    ("analogous_to", (None, None), ("p", None), 4, 4),
    ("analogous_to", (None, None), ("q", None), 2, 1),
    ("analogous_to", (None, None), (None, "q"), 2, 2),
    ("analogous_to", ("a", None), ("p", None), 4, 4),
    ("analogous_to", (None, "c"), (None, "q"), 2, 1),
    ("fuses_with", (None, None, None), ("x",), 2, 2),
    ("fuses_with", ("a", None, None), ("x",), 2, 2),
    # bound first, else bound second: that concept's entry
    ("analogous_to", ("a", None), (None, None), 4, 4),
    ("analogous_to", ("a", "e"), (None, None), 4, 1),
    ("analogous_to", (None, "a"), (None, None), 0, 0),
    ("fuses_with", ("c", None, None), (None,), 1, 1),
    ("fuses_with", (None, "c", None), (None,), 2, 2),
    # unbound, or only the fused concept bound: the whole relation
    ("fuses_with", (None, None, "ab"), (None,), 4, 1),
    ("analogous_to", (None, None), (None, None), 5, 5),
    ("fuses_with", (None, None, None), (None,), 4, 4),
    # a bound concept wins over the domain, even where the domain's
    # partition is larger than the concept's entry
    ("analogous_to", (None, "b"), ("p", None), 1, 1),
    ("fuses_with", ("b", None, None), ("x",), 1, 0),
])
def test_cross_and_fusion_scan_counts(relation, concepts, domains, scanned, hits):
    store = _cross_and_fusion_store()
    pattern = FactPattern(relation, tuple(c and ConceptId(c) for c in concepts),
                          tuple(d and parse_domain(d) for d in domains))
    assert len(list(store.match(pattern))) == hits
    assert store.stats().last_query_scanned == scanned


def test_fact_pattern_record_contract():
    pattern = assert_record_contract(FactPattern, dict(relation="is_a", concepts=(ConceptId("Apple"), None),
                                                       domains=(None,)))
    assert pattern.matches(intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy"))
    assert not pattern.matches(intra("is_a", "Pear", "Fruit", "Biology@Plant_Taxonomy"))
    assert_tuple_contract(pattern, domains=(parse_domain("Biology@Plant_Taxonomy"),))


def test_store_stats_record_contract():
    stats = apple_store().stats()
    assert_record_contract(StoreStats, dict(total_facts=2, facts_per_domain={"Biology@Plant_Taxonomy": 1,
                                                                             "Business@Tech_Sector": 1},
                                            last_query_scanned=0), hashable=False)
    assert stats == StoreStats(2, {"Biology@Plant_Taxonomy": 1, "Business@Tech_Sector": 1}, 0)
    assert_tuple_contract(stats, hashable=False, last_query_scanned=1)
