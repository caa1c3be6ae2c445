"""Reference inherit-mode admission: the scan ``query._admitted_domains``
made before it looked up the literal's prefixes.  It tests every domain of
the relation with ``is_prefix_of``.  ``test_query.py`` holds the lookup to
it."""

from __future__ import annotations

from cdcgraph.domains import DomainExpr, is_prefix_of
from cdcgraph.query import EXACT
from cdcgraph.store import FactStore


def admitted_domains(store: FactStore, relation: str, literal: DomainExpr, mode: str) -> list[DomainExpr]:
    if mode == EXACT:
        return [literal]
    return [d for d in store.relation_domains(relation) if is_prefix_of(d, literal)] or [literal]
