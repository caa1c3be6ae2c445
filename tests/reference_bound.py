"""Reference bound-goal reads: the whole-part kernel over what a walk of
global subject and object indexes collects.

Before single-row evaluation, a goal with a bound concept ran the closure
kernel over the facts ``_bound_facts`` collected by walking the store's
global subject and object indexes, across every relation and domain.  The
store now keeps only per-partition indexes, so ``GlobalIndexes`` rebuilds
the global ones from the store's facts, and ``_bound_facts`` below is the
old walk, unchanged.  The reads under it are the old kernel reads, except
that a star row starts from every edge of the bound concept, asserted or
derived, where the old reads started from its asserted edges only and so
missed a one-hop edge that inheritance derives.  The differential tests in
``test_bound_goals.py`` hold the engine to these reads.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from operator import or_

from cdcgraph.domains import DomainExpr
from cdcgraph.errors import CycleError
from cdcgraph.inference import _DomainClosure, _ids, _joined_specs
from cdcgraph.relations import RelationSpec
from cdcgraph.store import ConceptId, Fact, FactStore
from reference_consistency import find_cycle


class GlobalIndexes:
    """Every fact by its first concept and by its second, in any relation
    and domain, with the registry of the store they were read from."""

    def __init__(self, store: FactStore) -> None:
        self.registry = store.registry
        self._by_subject: dict[ConceptId, set[Fact]] = {}
        self._by_object: dict[ConceptId, set[Fact]] = {}
        for fact in store.fact_set():
            self._by_subject.setdefault(fact.concepts[0], set()).add(fact)
            self._by_object.setdefault(fact.concepts[1], set()).add(fact)

    def facts_with_subject(self, concept: ConceptId) -> set[Fact]:
        return self._by_subject.get(concept, set())

    def facts_with_object(self, concept: ConceptId) -> set[Fact]:
        return self._by_object.get(concept, set())


def _bound_facts(store: GlobalIndexes, specs: dict[str, RelationSpec], domain: DomainExpr, start: ConceptId,
                 forward: bool) -> dict[str, list[Fact]]:
    """The facts of the joined relations in ``domain`` that the closure
    facts out of ``start`` (``forward``) or into it depend on.

    Every rule's premises lie on a path of the joined relations' edges
    towards the conclusion's object (transitive, inheritance), so a walk
    forward from a subject or backward from an object over those edges
    collects them.  The symmetric rule turns an edge round, so if any joined
    relation is symmetric the walk takes the whole weakly connected part.
    Each fact is collected once, from its subject (its object, walking
    backward)."""
    out: dict[str, list[Fact]] = {name: [] for name in specs}
    both = any(spec.symmetric for spec in specs.values())
    # (index, position of the far end, whether a fact is collected from here)
    steps = []
    if forward or both:
        steps.append((store.facts_with_subject, 1, True))
    if not forward or both:
        steps.append((store.facts_with_object, 0, not both))
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        for index, far, collect in steps:
            for fact in index(node):
                group = out.get(fact.relation)
                if group is not None and fact.domains[0] == domain:
                    if collect:
                        group.append(fact)
                    nxt = fact.concepts[far]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return out


def closure(store: FactStore, relation: str, domain: DomainExpr, subject: ConceptId | None = None,
            obj: ConceptId | None = None) -> _DomainClosure:
    specs = _joined_specs(store.registry, (relation,))
    if subject is not None:
        facts: dict[str, Collection[Fact]] = _bound_facts(GlobalIndexes(store), specs, domain, subject, True)
    elif obj is not None:
        facts = _bound_facts(GlobalIndexes(store), specs, domain, obj, False)
    else:
        facts = {name: store.partition(name, domain) for name in specs}
    # the kernel reads each relation's facts as subject -> object -> fact
    successors: dict[str, dict] = {}
    for name, group in facts.items():
        rows = successors[name] = {}
        for fact in group:
            rows.setdefault(fact.concepts[0], {})[fact.concepts[1]] = fact
    return _DomainClosure(specs, domain, (relation,), successors)


def pairs(kernel: _DomainClosure, table: list[int], subject: ConceptId | None,
          obj: ConceptId | None) -> Iterator[tuple[ConceptId, ConceptId]]:
    """(x, y) for each id y in ``table[x]``, keeping to the bound concepts."""
    ids, concepts = kernel.ids, kernel.concepts
    mask = -1
    if obj is not None:
        if obj not in ids:
            return
        mask = 1 << ids[obj]
    if subject is None:
        sources: Iterable[int] = range(len(concepts))
    else:
        sources = [ids[subject]] if subject in ids else []
    for x in sources:
        for y in _ids(table[x] & mask):
            yield concepts[x], concepts[y]


def star_pairs(store: FactStore, relation: str, domain: DomainExpr, subject: ConceptId | None = None,
               obj: ConceptId | None = None) -> set[tuple[ConceptId, ConceptId]]:
    kernel = closure(store, relation, domain, subject, obj)
    reach = list(map(or_, kernel.edges[relation], kernel.stars[relation]))
    return set(pairs(kernel, reach, subject, obj))


def reachable_star(store: FactStore, relation: str, frm: ConceptId, domain: DomainExpr) -> set[ConceptId]:
    return {y for _, y in star_pairs(store, relation, domain, subject=frm)}


def all_prerequisites(store: FactStore, target: ConceptId, domain: DomainExpr,
                      relation: str = "requires") -> list[ConceptId]:
    kernel = closure(store, relation, domain, subject=target)
    x = kernel.ids.get(target)
    if x is None:
        return []
    edges, concepts = kernel.edges[relation], kernel.concepts
    order: list[ConceptId] = []
    left = kernel.edges[relation][x] | kernel.stars[relation][x]
    while left:
        ready = next((y for y in _ids(left) if not edges[y] & left), None)
        if ready is None:
            cycle = find_cycle({concepts[y]: [concepts[z] for z in _ids(edges[y] & left)] for y in _ids(left)})
            raise CycleError(relation, domain.text, tuple(c.symbol for c in cycle))
        order.append(concepts[ready])
        left &= ~(1 << ready)
    return order


def derived_facts_for(store: FactStore, relation: str, domain: DomainExpr, subject: ConceptId | None = None,
                      obj: ConceptId | None = None) -> set[Fact]:
    """Intra-domain relations only."""
    kernel = closure(store, relation, domain, subject, obj)
    derived = [have & ~asserted for have, asserted in zip(kernel.edges[relation], kernel.asserted[relation])]
    return {Fact.intra(relation, x, y, domain) for x, y in pairs(kernel, derived, subject, obj)}


def carrier_reach(store: FactStore, carrier: str, domain: DomainExpr, start: ConceptId,
                  forward: bool) -> set[ConceptId]:
    """What one or more carrier edges, asserted or derived, lead to from
    ``start`` (``forward``) or lead from to it: a walk over the edges of the
    whole-domain kernel, so the carrier need not be transitive."""
    kernel = closure(store, carrier, domain)
    step: dict[ConceptId, set[ConceptId]] = {}
    for x, y in pairs(kernel, kernel.edges[carrier], None, None):
        step.setdefault(x if forward else y, set()).add(y if forward else x)
    seen: set[ConceptId] = set()
    frontier = {start}
    while frontier:
        frontier = {far for near in frontier for far in step.get(near, ())} - seen
        seen |= frontier
    return seen


def inherited_attributes(store: FactStore, concept: ConceptId, domain: DomainExpr) -> set[tuple[ConceptId, ConceptId]]:
    attr_spec = store.registry.get("has_attribute")
    if attr_spec is None:
        return set()
    carrier = attr_spec.inherits_via
    owners = {concept}
    if carrier is not None:
        owners |= carrier_reach(store, carrier, domain, concept, True)
    index = GlobalIndexes(store)
    found = {(f.concepts[1], owner) for owner in owners for f in index.facts_with_subject(owner)
             if f.relation == "has_attribute" and domain in f.domains}
    if attr_spec.symmetric:
        found |= {(f.concepts[0], owner) for owner in owners for f in index.facts_with_object(owner)
                  if f.relation == "has_attribute" and domain in f.domains}
        if carrier is not None:
            # what inherits from an attribute holds it the other way round
            found |= {(heir, owner) for attribute, owner in found
                      for heir in carrier_reach(store, carrier, domain, attribute, False)}
    return found
