"""Slow references for the store, which ``test_store.py`` holds it to:

- the per-shape orientation rule of symmetric facts, used before
  ``canonicalize_fact`` became one comparison of a fact with its swapped
  orientation;
- ``AlwaysWalkStore``, whose ``_insert`` is the store's insert from before a
  strict insert looked at the ends of the new edge: a strict store walks
  for a cycle on every new edge of an acyclic relation.
"""

from __future__ import annotations

from cdcgraph.relations import RelationShape, RelationSpec
from cdcgraph.store import _NO_ROWS, Fact, FactStore
from cdcgraph.store import canonicalize_fact as store_canonicalize_fact


def canonicalize_fact(fact: Fact, spec: RelationSpec) -> Fact:
    """Canonical argument order for symmetric relations.

    INTRA: (subject, object) sorted.  CROSS: the (concept, domain) sides
    sorted as pairs.  FUSION: (c1, c2) sorted, fused kept in place.
    """
    if not spec.symmetric:
        return fact
    if spec.shape is RelationShape.INTRA:
        a, b = fact.concepts
        if b.symbol < a.symbol:
            return Fact(fact.relation, (b, a), fact.domains)
        return fact
    if spec.shape is RelationShape.CROSS:
        left = (fact.concepts[0].symbol, fact.domains[0].text)
        right = (fact.concepts[1].symbol, fact.domains[1].text)
        if right < left:
            return Fact(fact.relation, (fact.concepts[1], fact.concepts[0]), (fact.domains[1], fact.domains[0]))
        return fact
    # FUSION: symmetric in the two source concepts only
    a, b, fused = fact.concepts
    if b.symbol < a.symbol:
        return Fact(fact.relation, (b, a, fused), fact.domains)
    return fact


class AlwaysWalkStore(FactStore):
    """A ``FactStore`` whose strict inserts walk for a cycle on every new
    edge of an acyclic relation, whatever the ends of the edge hold."""

    def _insert(self, fact: Fact, spec: RelationSpec) -> bool:
        if spec.symmetric:
            fact = store_canonicalize_fact(fact, spec)
        relation, concepts, domains = fact
        first, second = concepts[0], concepts[1]
        if spec.shape is RelationShape.INTRA:
            domain = domains[0]
            row = self._successors.get(relation, _NO_ROWS).get(domain, _NO_ROWS).get(first)
            if row is not None and second in row:
                return False
            if self.strict and spec.acyclic:
                self._reject_if_creates_cycle(fact)
            if row is None:
                row = self._successors.setdefault(relation, {}).setdefault(domain, {})[first] = {}
            row[second] = fact
            self._predecessors.setdefault(relation, {}).setdefault(domain, {}).setdefault(second, {})[first] = fact
        else:
            if fact in self._by_first.get(relation, _NO_ROWS).get(first, ()):
                return False
            self._by_first.setdefault(relation, {}).setdefault(first, set()).add(fact)
            self._by_second.setdefault(relation, {}).setdefault(second, set()).add(fact)
            partitions = self._by_partition.setdefault(relation, {})
            for domain in domains:
                partitions.setdefault(domain, set()).add(fact)
        self._count += 1
        self.generation += 1
        return True
