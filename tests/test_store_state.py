"""Stateful model test of the store.

Hypothesis drives a sequence of ``assert_fact``/``retract_fact`` calls, in
all three shapes and with symmetric relations written in either order, on a
strict or a non-strict store.  A plain set of tuples models the store; it
shares no code with the package.  After every step:

- every index the store keeps equals one rebuilt from ``fact_set()``, holds
  no empty entry, and is the only container the store keeps (a white-box
  check: it reads the store's private index attributes);
- ``in``, ``len``, ``facts``, ``partition``, ``relation_facts``,
  ``relation_domains``, ``has_partition`` and the per-domain counts of
  ``stats`` equal what the model gives, and the sets readers return are
  copies;
- a strict store that refuses a cycle leaves every index as it was;
- bound ``is_a_star`` and ``has_attribute`` goals, subject or object bound,
  equal the answers reachability over the model's tuples gives.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from cdcgraph import ConceptId, CycleError, Fact, FactStore, builtin_registry, eval_query, parse_domain
from cdcgraph.query import ConceptConst, DomainConst, Query, Variable
from cdcgraph.relations import RelationShape

CONCEPTS = [ConceptId(symbol) for symbol in ("a", "b", "c", "d")]
DOMAINS = [parse_domain(text) for text in ("x", "x@y", "z")]
INTRA = ("is_a", "requires", "has_attribute", "contrasts_with", "cause_of")
ACYCLIC = {"is_a", "requires"}

concepts = st.sampled_from(CONCEPTS)
domains = st.sampled_from(DOMAINS)
facts = st.one_of(
    st.builds(Fact.intra, st.sampled_from(INTRA), concepts, concepts, domains),
    st.builds(Fact.cross, st.just("analogous_to"), concepts, concepts, domains, domains),
    st.builds(Fact.fusion, st.just("fuses_with"), concepts, concepts, concepts, domains),
)


def model_key(fact: Fact) -> tuple:
    """The fact as a tuple of texts, symmetric arguments in one order."""
    symbols = [c.symbol for c in fact.concepts]
    texts = [d.text for d in fact.domains]
    if fact.relation == "contrasts_with" or fact.relation == "fuses_with":
        symbols[:2] = sorted(symbols[:2])
    elif fact.relation == "analogous_to":
        (symbols[0], texts[0]), (symbols[1], texts[1]) = sorted(zip(symbols, texts))
    return (fact.relation, tuple(symbols), tuple(texts))


def rebuilt_indexes(store: FactStore) -> dict:
    """Every index of the store, rebuilt from its facts alone: an intra fact
    in its successor and predecessor entries, a cross or fusion fact in its
    first- and second-concept entries and its domains' partitions."""
    successors: dict = {}
    predecessors: dict = {}
    by_first: dict = {}
    by_second: dict = {}
    by_partition: dict = {}
    for fact in store.fact_set():
        relation, (first, second, *_) = fact.relation, fact.concepts
        if store.registry.lookup(relation).shape is RelationShape.INTRA:
            domain = fact.domains[0]
            successors.setdefault(relation, {}).setdefault(domain, {}).setdefault(first, {})[second] = fact
            predecessors.setdefault(relation, {}).setdefault(domain, {}).setdefault(second, {})[first] = fact
        else:
            by_first.setdefault(relation, {}).setdefault(first, set()).add(fact)
            by_second.setdefault(relation, {}).setdefault(second, set()).add(fact)
            for domain in fact.domains:
                by_partition.setdefault(relation, {}).setdefault(domain, set()).add(fact)
    return {"_successors": successors, "_predecessors": predecessors, "_by_first": by_first,
            "_by_second": by_second, "_by_partition": by_partition}


def empty_entries(index, path: tuple = ()) -> list[tuple]:
    """The key paths of the empty dicts and sets nested in ``index``."""
    if not isinstance(index, (dict, set)):
        return []
    if not index:
        return [path] if path else []
    if isinstance(index, set):
        return []
    return [empty for key, inner in index.items() for empty in empty_entries(inner, path + (key,))]


def solve(store: FactStore, goal: str, x: ConceptId | None, y: ConceptId | None, domain) -> set:
    args = (ConceptConst(x) if x is not None else Variable("X"),
            ConceptConst(y) if y is not None else Variable("Y"), DomainConst(domain))
    return {(row.get("X", x).symbol, row.get("Y", y).symbol) for row in eval_query(Query(goal, args), store)}


class StoreMachine(RuleBasedStateMachine):
    @initialize(strict=st.booleans())
    def start(self, strict: bool) -> None:
        self.store = FactStore(builtin_registry(), strict=strict)
        self.model: set[tuple] = set()

    def edges(self, relation: str, domain: str) -> set[tuple[str, str]]:
        return {symbols for rel, symbols, texts in self.model if rel == relation and texts == (domain,)}

    def reach(self, relation: str, domain: str, start: str) -> set[str]:
        """Everything one or more edges reach from ``start``."""
        edges = self.edges(relation, domain)
        seen: set[str] = set()
        frontier = {start}
        while frontier:
            frontier = {b for a, b in edges if a in frontier} - seen
            seen |= frontier
        return seen

    @rule(fact=facts)
    def assert_fact(self, fact: Fact) -> None:
        key = model_key(fact)
        relation, symbols, texts = key
        closes_cycle = (key not in self.model and relation in ACYCLIC
                        and (symbols[0] == symbols[1] or symbols[0] in self.reach(relation, texts[0], symbols[1])))
        if self.store.strict and closes_cycle:
            generation = self.store.generation
            try:
                self.store.assert_fact(fact)
            except CycleError as exc:
                # the walk closes over the new edge and edges already held
                edges = self.edges(relation, texts[0]) | {symbols}
                walk = exc.vertices + exc.vertices[:1]
                assert all(step in edges for step in zip(walk, walk[1:])), exc
            else:
                raise AssertionError(f"{fact!r} closes a cycle in a strict store")
            assert self.store.generation == generation
            return
        assert self.store.assert_fact(fact) == (key not in self.model)
        self.model.add(key)

    @rule(fact=facts)
    def retract_fact(self, fact: Fact) -> None:
        key = model_key(fact)
        assert self.store.retract_fact(fact) == (key in self.model)
        self.model.discard(key)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def retract_a_present_fact(self, data) -> None:
        self.retract_fact(data.draw(st.sampled_from(sorted(self.store.fact_set(), key=Fact.sort_key))))

    def paths(self) -> list[tuple[str, str, str, str]]:
        """(relation, domain, start, end) for each path of an acyclic relation."""
        return sorted((relation, domain.text, c.symbol, end) for relation in ACYCLIC for domain in DOMAINS
                      for c in CONCEPTS for end in self.reach(relation, domain.text, c.symbol))

    @precondition(lambda self: self.paths())
    @rule(data=st.data())
    def close_a_path(self, data) -> None:
        """Assert the edge back from the end of a path to its start."""
        relation, text, start, end = data.draw(st.sampled_from(self.paths()))
        self.assert_fact(Fact.intra(relation, ConceptId(end), ConceptId(start), parse_domain(text)))

    @precondition(lambda self: self.store.strict and self.paths())
    @rule(data=st.data())
    def reject_a_cycle(self, data) -> None:
        """A strict store refuses the edge that closes a path and leaves no
        index entry behind, not even an empty row."""
        relation, text, start, end = data.draw(st.sampled_from(self.paths()))
        before = rebuilt_indexes(self.store)
        try:
            self.store.assert_fact(Fact.intra(relation, ConceptId(end), ConceptId(start), parse_domain(text)))
        except CycleError:
            pass
        else:
            raise AssertionError("a strict store took an edge that closes a cycle")
        assert empty_entries(self.store._successors) == empty_entries(self.store._predecessors) == []
        assert {name: getattr(self.store, name) for name in before} == before

    @invariant()
    def indexes_equal_rebuilt_ones(self) -> None:
        assert {model_key(f) for f in self.store.fact_set()} == self.model
        rebuilt = rebuilt_indexes(self.store)
        # the indexes are the store's only containers of facts
        assert {name for name, value in vars(self.store).items() if isinstance(value, dict)} == set(rebuilt)
        for name, index in rebuilt.items():
            assert getattr(self.store, name) == index, name
            assert empty_entries(getattr(self.store, name)) == [], name

    @invariant()
    def readers_equal_the_model(self) -> None:
        store, model = self.store, self.model
        assert len(store) == len(model)
        assert all(Fact(rel, tuple(map(ConceptId, symbols)), tuple(map(parse_domain, texts))) in store
                   for rel, symbols, texts in model)
        assert [model_key(f) for f in store.facts()] == sorted(
            model, key=lambda key: (key[0], key[2], key[1]))
        per_domain: dict[str, int] = {}
        for rel, _, texts in model:
            for text in set(texts):
                per_domain[text] = per_domain.get(text, 0) + 1
        assert store.stats().facts_per_domain == dict(sorted(per_domain.items()))
        for spec in store.registry:
            held = {key for key in model if key[0] == spec.name}
            assert {model_key(f) for f in store.relation_facts(spec.name)} == held
            texts = sorted({t for _, _, key_texts in held for t in key_texts})
            assert [d.text for d in store.relation_domains(spec.name)] == texts
            for domain in DOMAINS:
                assert {model_key(f) for f in store.partition(spec.name, domain)} == {
                    key for key in held if domain.text in key[2]}
                assert store.has_partition(spec.name, domain) == (domain.text in texts)
        # copies: changing what a reader returned leaves the store as it was
        for spec in store.registry:
            store.relation_facts(spec.name).clear()
            for domain in DOMAINS:
                store.partition(spec.name, domain).clear()
        assert len(store.fact_set()) == len(model)

    @invariant()
    def bound_goals_equal_the_model(self) -> None:
        for domain in DOMAINS:
            text = domain.text
            attributes = self.edges("has_attribute", text)
            for c in CONCEPTS:
                s = c.symbol
                assert solve(self.store, "is_a_star", c, None, domain) == {(s, y) for y in self.reach("is_a", text, s)}
                assert solve(self.store, "is_a_star", None, c, domain) == {
                    (x.symbol, s) for x in CONCEPTS if s in self.reach("is_a", text, x.symbol)}
                owners = {s} | self.reach("is_a", text, s)
                assert solve(self.store, "has_attribute", c, None, domain) == {
                    (s, a) for owner, a in attributes if owner in owners}
                assert solve(self.store, "has_attribute", None, c, domain) == {
                    (x.symbol, s) for x in CONCEPTS for owner, a in attributes
                    if a == s and owner in {x.symbol} | self.reach("is_a", text, x.symbol)}


StoreMachine.TestCase.settings = settings(max_examples=50, stateful_step_count=25, deadline=None,
                                          suppress_health_check=[HealthCheck.too_slow])
test_store_matches_its_model = StoreMachine.TestCase
