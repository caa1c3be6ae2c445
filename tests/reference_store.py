"""Reference orientation of symmetric facts: the per-shape rule the store
used before ``canonicalize_fact`` became one comparison of a fact with its
swapped orientation.  ``test_store.py`` holds the store to it.
"""

from __future__ import annotations

from cdcgraph.relations import RelationShape, RelationSpec
from cdcgraph.store import Fact


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
