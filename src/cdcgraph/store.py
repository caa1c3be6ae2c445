"""In-memory quad store with domain-partitioned indexes.

Facts are kept as a set (no multiplicity).  The primary index is keyed by
(relation, exact canonical domain), so a domain-fixed lookup scans only that
partition; subject/object secondary indexes serve domain-free lookups,
the walks of bound closure reads and the strict-mode cycle check.
Every match records how many index entries it touched, which is what the
scan-reduction benchmark measures.

Mutation follows a single-writer contract: asserting or retracting bumps
``generation``, which readers (materialized closures) use to detect
staleness.  Reads never mutate, apart from the scan counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .domains import DomainExpr
from .errors import CycleError, ShapeMismatchError, UnknownRelationError
from .relations import RelationRegistry, RelationShape, RelationSpec


class ConceptId:
    """Interned concept symbol: equal strings yield the identical object, so
    equality and hashing are by identity.  Copying or unpickling re-interns
    the symbol, so it returns that same object.

    A symbol is non-empty, holds no line break and not both quote kinds, so
    that a saved fact file can always quote it and read it back.
    """

    __slots__ = ("symbol",)
    _interned: dict[str, "ConceptId"] = {}

    def __new__(cls, symbol: str) -> "ConceptId":
        existing = cls._interned.get(symbol)
        if existing is not None:
            return existing
        if not symbol:
            raise ValueError("concept symbol must be non-empty")
        if "\n" in symbol or "\r" in symbol:
            raise ValueError(f"concept symbol {symbol!r} holds a line break")
        if "'" in symbol and '"' in symbol:
            raise ValueError(f"concept symbol {symbol!r} holds both quote kinds")
        obj = super().__new__(cls)
        object.__setattr__(obj, "symbol", symbol)
        cls._interned[symbol] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("ConceptId is immutable")

    def __reduce__(self):
        return (ConceptId, (self.symbol,))

    def __lt__(self, other: "ConceptId") -> bool:
        return self.symbol < other.symbol

    def __str__(self) -> str:
        return self.symbol

    def __repr__(self) -> str:
        return f"ConceptId({self.symbol!r})"


@dataclass(frozen=True)
class Fact:
    """One statement.  Payload layout by shape:

    INTRA   concepts=(subject, object),      domains=(domain,)
    CROSS   concepts=(c1, c2),               domains=(d1, d2)
    FUSION  concepts=(c1, c2, fused),        domains=(domain,)
    """

    relation: str
    concepts: tuple[ConceptId, ...]
    domains: tuple[DomainExpr, ...]

    @staticmethod
    def intra(relation: str, subject: ConceptId, obj: ConceptId, domain: DomainExpr) -> "Fact":
        return Fact(relation, (subject, obj), (domain,))

    @staticmethod
    def cross(relation: str, c1: ConceptId, c2: ConceptId, d1: DomainExpr, d2: DomainExpr) -> "Fact":
        return Fact(relation, (c1, c2), (d1, d2))

    @staticmethod
    def fusion(relation: str, c1: ConceptId, c2: ConceptId, fused: ConceptId, domain: DomainExpr) -> "Fact":
        return Fact(relation, (c1, c2, fused), (domain,))

    @property
    def subject(self) -> ConceptId:
        return self.concepts[0]

    @property
    def object(self) -> ConceptId:
        return self.concepts[1]

    @property
    def domain(self) -> DomainExpr:
        return self.domains[0]

    def sort_key(self) -> tuple:
        return (
            self.relation,
            tuple(d.text for d in self.domains),
            tuple(c.symbol for c in self.concepts),
        )

    def __repr__(self) -> str:
        args = [c.symbol for c in self.concepts] + [f'"{d.text}"' for d in self.domains]
        return f"{self.relation}({', '.join(args)})"


@dataclass(frozen=True)
class FactPattern:
    """Match template: None in any slot is a wildcard.  Relation is fixed."""

    relation: str
    concepts: tuple[ConceptId | None, ...]
    domains: tuple[DomainExpr | None, ...]

    def matches(self, fact: Fact) -> bool:
        if fact.relation != self.relation:
            return False
        if len(fact.concepts) != len(self.concepts) or len(fact.domains) != len(self.domains):
            return False
        for want, have in zip(self.concepts, fact.concepts):
            if want is not None and want != have:
                return False
        for want, have in zip(self.domains, fact.domains):
            if want is not None and want != have:
                return False
        return True


@dataclass
class StoreStats:
    total_facts: int
    facts_per_domain: dict[str, int]
    last_query_scanned: int


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


def swap_orientation(fact: Fact, spec: RelationSpec) -> Fact:
    """The reversed orientation of a symmetric fact (identity otherwise)."""
    if not spec.symmetric:
        return fact
    if spec.shape is RelationShape.CROSS:
        return Fact(fact.relation, (fact.concepts[1], fact.concepts[0]), (fact.domains[1], fact.domains[0]))
    if spec.shape is RelationShape.FUSION:
        a, b, fused = fact.concepts
        return Fact(fact.relation, (b, a, fused), fact.domains)
    a, b = fact.concepts
    return Fact(fact.relation, (b, a), fact.domains)


class FactStore:
    """Set-semantics quad store bound to a relation registry.

    ``strict`` enables assert-time acyclicity checking (otherwise cycles are
    caught at check/materialize time, so batch loads stay order-insensitive).
    """

    def __init__(self, registry: RelationRegistry, strict: bool = False):
        self.registry = registry
        self.strict = strict
        self.generation = 0
        self._facts: set[Fact] = set()
        self._by_partition: dict[tuple[str, DomainExpr], set[Fact]] = {}
        self._by_relation: dict[str, set[Fact]] = {}
        self._by_subject: dict[ConceptId, set[Fact]] = {}
        self._by_object: dict[ConceptId, set[Fact]] = {}
        self._last_scanned = 0

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return self._canonical(fact) in self._facts

    def _spec_for(self, relation: str) -> RelationSpec:
        spec = self.registry.get(relation)
        if spec is None:
            raise UnknownRelationError(f"unknown relation {relation!r}")
        return spec

    def _check_shape(self, item: Fact | FactPattern, what: str) -> RelationSpec:
        spec = self._spec_for(item.relation)
        shape = spec.shape
        if len(item.concepts) != shape.concept_count or len(item.domains) != len(shape.domain_positions):
            raise ShapeMismatchError(f"{item.relation}: {what} does not match {shape.value} shape")
        return spec

    def _canonical(self, fact: Fact) -> Fact:
        return canonicalize_fact(fact, self._check_shape(fact, "payload"))

    def assert_fact(self, fact: Fact) -> bool:
        """Insert; False if already present.  Bumps generation when inserted."""
        fact = self._canonical(fact)
        if fact in self._facts:
            return False
        spec = self.registry.lookup(fact.relation)
        if self.strict and spec.acyclic:
            self._reject_if_creates_cycle(fact)
        self._facts.add(fact)
        for dom in set(fact.domains):
            self._by_partition.setdefault((fact.relation, dom), set()).add(fact)
        self._by_relation.setdefault(fact.relation, set()).add(fact)
        self._by_subject.setdefault(fact.concepts[0], set()).add(fact)
        self._by_object.setdefault(fact.concepts[1], set()).add(fact)
        self.generation += 1
        return True

    def retract_fact(self, fact: Fact) -> bool:
        """Remove; False if absent.  Purges all indexes."""
        fact = self._canonical(fact)
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        for dom in set(fact.domains):
            bucket = self._by_partition.get((fact.relation, dom))
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del self._by_partition[(fact.relation, dom)]
        for index, key in (
            (self._by_relation, fact.relation),
            (self._by_subject, fact.concepts[0]),
            (self._by_object, fact.concepts[1]),
        ):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del index[key]
        self.generation += 1
        return True

    def match(self, pattern: FactPattern) -> Iterator[Fact]:
        """Facts unifying with the pattern, in sorted order.

        Plan: domain-fixed patterns scan only the (relation, domain)
        partition; otherwise a bound subject/object uses the secondary
        index; otherwise the whole relation is scanned.
        """
        self._check_shape(pattern, "pattern")
        bound_domains = [d for d in pattern.domains if d is not None]
        if bound_domains:
            candidates = self._by_partition.get((pattern.relation, bound_domains[0]), set())
        elif pattern.concepts[0] is not None:
            candidates = self._by_subject.get(pattern.concepts[0], set())
        elif pattern.concepts[1] is not None:
            candidates = self._by_object.get(pattern.concepts[1], set())
        else:
            candidates = self._by_relation.get(pattern.relation, set())

        self._last_scanned = len(candidates)
        hits = [f for f in candidates if pattern.matches(f)]
        hits.sort(key=Fact.sort_key)
        return iter(hits)

    def facts(self) -> list[Fact]:
        """All facts in deterministic (sorted) order."""
        return sorted(self._facts, key=Fact.sort_key)

    def fact_set(self) -> frozenset[Fact]:
        return frozenset(self._facts)

    def relation_domains(self, relation: str) -> list[DomainExpr]:
        """Domains that hold at least one fact of the relation, sorted."""
        doms = {dom for (rel, dom) in self._by_partition if rel == relation}
        return sorted(doms, key=lambda d: d.text)

    def partition(self, relation: str, domain: DomainExpr) -> set[Fact]:
        return self._by_partition.get((relation, domain), set())

    def relation_facts(self, relation: str) -> set[Fact]:
        return self._by_relation.get(relation, set())

    def facts_with_subject(self, concept: ConceptId) -> set[Fact]:
        """Every fact whose first concept is ``concept``, in any relation and domain."""
        return self._by_subject.get(concept, set())

    def facts_with_object(self, concept: ConceptId) -> set[Fact]:
        """Every fact whose second concept is ``concept``, in any relation and domain."""
        return self._by_object.get(concept, set())

    def stats(self) -> StoreStats:
        per_domain: dict[str, int] = {}
        for (rel, dom), bucket in self._by_partition.items():
            if bucket:
                per_domain[dom.text] = per_domain.get(dom.text, 0) + len(bucket)
        return StoreStats(
            total_facts=len(self._facts),
            facts_per_domain=dict(sorted(per_domain.items())),
            last_query_scanned=self._last_scanned,
        )

    def _reject_if_creates_cycle(self, fact: Fact) -> None:
        """Strict mode: would inserting this edge close a cycle?  Walks the
        relation's edges in the domain out of the object, by the subject index."""
        relation, domain = fact.relation, fact.domains[0]
        subject, obj = fact.concepts[0], fact.concepts[1]
        # the new subject->object edge closes a cycle iff object reaches subject
        parent: dict[ConceptId, ConceptId] = {}
        stack = [obj]
        seen = {obj}
        while stack:
            node = stack.pop()
            if node == subject:
                path = [subject]
                while path[-1] != obj:
                    path.append(parent[path[-1]])
                path.reverse()  # object -> ... -> subject
                cycle = (subject,) + tuple(path[:-1])
                raise CycleError(fact.relation, domain.text, tuple(c.symbol for c in cycle))
            for edge in self._by_subject.get(node, ()):
                if edge.relation != relation or edge.domains[0] != domain:
                    continue
                succ = edge.concepts[1]
                if succ not in seen:
                    seen.add(succ)
                    parent[succ] = node
                    stack.append(succ)
