"""In-memory quad store: each relation shape's indexes are the whole store.

Facts are kept with set semantics (no multiplicity) and nowhere else than
in their shape's indexes.  An intra-domain fact lives in its (relation,
domain) partition's successor index, which maps a subject to its facts by
object, and its predecessor index, which maps an object to its facts by
subject.  Those serve bound-concept lookups, domain-fixed scans, the walks
of bound closure reads, the acyclicity check and the strict-mode cycle
check, none of which leaves its partition.  A cross-domain or fusion fact
lives in its relation's entries for its first and second concept and in
the relation's partition of each of its domains.  Every other view (the
fact set, a partition, a relation's facts or domains, the stats) is read
off these indexes; ``partition`` and ``relation_facts`` return copies.
Every match records how many index entries it touched, which is what the
scan-reduction benchmark measures.

Mutation follows a single-writer contract: asserting or retracting bumps
``generation``, which readers (materialized closures) use to detect
staleness.  Reads never mutate, apart from the scan counter.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from operator import attrgetter
from threading import RLock
from types import MappingProxyType
from typing import NamedTuple
from weakref import WeakValueDictionary

from .domains import _ATOM_TOKEN_RE, DomainExpr
from .errors import CycleError, ShapeMismatchError, UnknownRelationError
from .relations import RelationRegistry, RelationShape, RelationSpec


class ConceptId:
    """Interned concept symbol: equal strings yield the identical object, in
    any thread, so equality and hashing are by identity.  A known symbol is
    looked up without a lock; a new one is made under it.  Copying or
    unpickling re-interns the symbol, so it returns that same object.  The
    intern table holds its symbols weakly: one nothing refers to any more is
    dropped.

    A symbol is non-empty, holds no line break and not both quote kinds, so
    that a saved fact file can always quote it and read it back.
    """

    __slots__ = ("symbol", "__weakref__")
    _interned: WeakValueDictionary[str, "ConceptId"] = WeakValueDictionary()
    _interning = RLock()

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
        with cls._interning:  # re-check: another thread may have made it
            obj = cls._interned.get(symbol)
            if obj is None:
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


class Fact(NamedTuple):
    """One statement.  Payload layout by shape:

    INTRA   concepts=(subject, object),      domains=(domain,)
    CROSS   concepts=(c1, c2),               domains=(d1, d2)
    FUSION  concepts=(c1, c2, fused),        domains=(domain,)

    A fact is the tuple of its three fields, and its concepts and domains
    are interned, so comparing and hashing one run wholly in C.  It equals a
    plain tuple with the same fields, and has ``len``, iteration,
    ``_replace`` and the tuple's ``<``, which is not ``sort_key``'s order
    (and raises ``TypeError`` on reaching the domains, which do not order):
    sort facts with ``key=Fact.sort_key``.
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
        """(relation, domain texts, concept symbols): the documented fact
        order, which ``match`` sorts by and ``facts()`` walks the indexes in."""
        return self.relation, tuple(map(_text, self.domains)), tuple(map(_symbol, self.concepts))

    def __repr__(self) -> str:
        return clause_texts((self,))[0][:-1]


class _Literals(dict):
    """The literal of each concept and domain one ``clause_texts`` call
    meets, made by ``render`` on first use: a term is rendered once per call,
    not once per occurrence.  Concepts and domains are interned, so they hash
    by identity."""

    def __init__(self, render: Callable[[ConceptId | DomainExpr], str]):
        super().__init__()
        self.render = render

    def __missing__(self, term: ConceptId | DomainExpr) -> str:
        literal = self[term] = self.render(term)
        return literal


def _literal(term: ConceptId | DomainExpr) -> str:
    """A domain in double quotes; a concept bare when its whole symbol is one
    fact-file atom, else in the quote kind it does not hold."""
    if isinstance(term, DomainExpr):
        return f'"{term.text}"'
    symbol = term.symbol
    if _ATOM_TOKEN_RE.fullmatch(symbol):
        return symbol
    return f"'{symbol}'" if "'" not in symbol else f'"{symbol}"'


def clause_texts(facts: Iterable[Fact], literal: Callable[[ConceptId | DomainExpr], str] = _literal) -> list[str]:
    """Each fact as the clause ``relation(concepts..., domains...).``, every
    concept and domain written by ``literal``, which sees each distinct one
    once.  This is the one text form of a fact: ``repr`` (without the '.'),
    the fact-file writers and every message that names a fact use it, and
    with the default literals ``parse_fact_text`` reads it back."""
    literal = _Literals(literal).__getitem__
    return [f"{relation}({', '.join(map(literal, concepts + domains))})." for relation, concepts, domains in facts]


class FactPattern(NamedTuple):
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


class StoreStats(NamedTuple):
    total_facts: int
    facts_per_domain: dict[str, int]
    last_query_scanned: int


def canonicalize_fact(fact: Fact, spec: RelationSpec) -> Fact:
    """Canonical argument order for symmetric relations: of the fact and its
    swapped orientation, the one whose (concept, domain) pairs sort first.
    ``zip`` stops at the shorter tuple, so an intra or fusion fact compares
    its first concepts and a cross fact both (concept, domain) sides."""
    if not spec.symmetric:
        return fact
    return min(fact, swap_orientation(fact, spec), key=_orientation_key)


def _orientation_key(fact: Fact) -> list[tuple[str, str]]:
    return [(c.symbol, d.text) for c, d in zip(fact.concepts, fact.domains)]


def swap_orientation(fact: Fact | FactPattern, spec: RelationSpec) -> Fact | FactPattern:
    """The reversed orientation of a symmetric fact or pattern (identity
    otherwise): the first two concepts swap, and a cross fact's domains with
    them; a fusion fact keeps its fused concept last."""
    if not spec.symmetric:
        return fact
    a, b, *rest = fact.concepts
    domains = fact.domains[::-1] if spec.shape is RelationShape.CROSS else fact.domains
    return type(fact)(fact.relation, (b, a, *rest), domains)


_NO_ROWS: Mapping = MappingProxyType({})
_text, _symbol = attrgetter("text"), attrgetter("symbol")


# one partition's facts by the near concept, then by the far concept
_Adjacency = dict[ConceptId, dict[ConceptId, Fact]]


def _prune(index: dict, keys: tuple, item) -> None:
    """Take ``item`` out of the dict or set that ``keys`` lead to through
    nested dicts, then drop every container the removal left empty."""
    if keys:
        inner = index[keys[0]]
        _prune(inner, keys[1:], item)
        if not inner:
            del index[keys[0]]
    elif isinstance(index, set):
        index.remove(item)
    else:
        del index[item]


class FactStore:
    """Set-semantics quad store bound to a relation registry.

    ``strict`` enables assert-time acyclicity checking (otherwise cycles are
    caught at check/materialize time, so batch loads stay order-insensitive).
    """

    def __init__(self, registry: RelationRegistry, strict: bool = False):
        self.registry = registry
        self.strict = strict
        self.generation = 0
        self._count = 0
        # intra-domain facts: relation -> domain -> subject -> object -> fact,
        # and relation -> domain -> object -> subject -> fact
        self._successors: dict[str, dict[DomainExpr, _Adjacency]] = {}
        self._predecessors: dict[str, dict[DomainExpr, _Adjacency]] = {}
        # cross-domain and fusion facts: relation -> first concept, second
        # concept or domain -> facts
        self._by_first: dict[str, dict[ConceptId, set[Fact]]] = {}
        self._by_second: dict[str, dict[ConceptId, set[Fact]]] = {}
        self._by_partition: dict[str, dict[DomainExpr, set[Fact]]] = {}
        self._last_scanned = 0
        registry.bind(self)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.registry.bind(self)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Fact]:
        """Every fact, in no particular order."""
        return (fact for relation in [*self._successors, *self._by_partition] for fact in self._facts_of(relation))

    def __contains__(self, fact: Fact) -> bool:
        # ``_check_shape`` and ``canonicalize_fact``'s early return, inlined:
        # membership is ``explain``'s hot path, and the two saved calls are
        # worth 2.9% of ``explain_per_s`` (BENCH_15.json).  The condition
        # must match ``_check_shape``'s, which still raises the error.
        spec = self.registry.get(fact.relation)
        if spec is None or len(fact.concepts) != spec.shape.concept_count \
                or len(fact.domains) != len(spec.shape.domain_positions):
            self._check_shape(fact, "payload")
        return self._holds(canonicalize_fact(fact, spec) if spec.symmetric else fact, spec)

    def _check_shape(self, item: Fact | FactPattern, what: str) -> RelationSpec:
        spec = self.registry.get(item.relation)
        if spec is None:
            raise UnknownRelationError(f"unknown relation {item.relation!r}")
        shape = spec.shape
        if len(item.concepts) != shape.concept_count or len(item.domains) != len(shape.domain_positions):
            raise ShapeMismatchError(f"{item.relation}: {what} does not match {shape.value} shape")
        return spec

    def _holds(self, fact: Fact, spec: RelationSpec) -> bool:
        """Whether the store holds the canonical ``fact``."""
        relation, first, second = fact.relation, fact.concepts[0], fact.concepts[1]
        if spec.shape is RelationShape.INTRA:
            return second in self._successors.get(relation, _NO_ROWS).get(fact.domains[0], _NO_ROWS).get(first, ())
        return fact in self._by_first.get(relation, _NO_ROWS).get(first, ())

    def assert_fact(self, fact: Fact) -> bool:
        """Insert; False if already present.  Bumps generation when inserted."""
        return self._insert(fact, self._check_shape(fact, "payload"))

    def _insert(self, fact: Fact, spec: RelationSpec) -> bool:
        """``assert_fact`` for a fact whose payload the caller has already
        matched to ``spec``'s shape (the loader, by the clause's arity).  One
        walk down an index finds both the duplicate and the slot; the strict
        cycle check runs before any container is made."""
        if spec.symmetric:
            fact = canonicalize_fact(fact, spec)
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

    def retract_fact(self, fact: Fact) -> bool:
        """Remove; False if absent.  Prunes every index entry it empties."""
        spec = self._check_shape(fact, "payload")
        fact = canonicalize_fact(fact, spec)
        if not self._holds(fact, spec):
            return False
        relation, first, second = fact.relation, fact.concepts[0], fact.concepts[1]
        if spec.shape is RelationShape.INTRA:
            _prune(self._successors, (relation, fact.domains[0], first), second)
            _prune(self._predecessors, (relation, fact.domains[0], second), first)
        else:
            _prune(self._by_first, (relation, first), fact)
            _prune(self._by_second, (relation, second), fact)
            for domain in set(fact.domains):
                _prune(self._by_partition, (relation, domain), fact)
        self._count -= 1
        self.generation += 1
        return True

    def match(self, pattern: FactPattern) -> Iterator[Fact]:
        """Facts unifying with the pattern, in sorted order.

        Plan: an intra-domain pattern with a bound subject (else object)
        reads that concept's entry in the successor (predecessor) index of
        its domain's partition, or of each of the relation's partitions.
        Otherwise a bound first (else second) concept reads the relation's
        entry for it, a domain-fixed pattern scans only the (relation,
        domain) partition, and any other pattern scans the whole relation.
        """
        spec = self._check_shape(pattern, "pattern")
        relation = pattern.relation
        bound_domains = [d for d in pattern.domains if d is not None]
        first, second = pattern.concepts[0], pattern.concepts[1]
        concept = first if first is not None else second
        candidates: Collection[Fact]
        if concept is not None and spec.shape is RelationShape.INTRA:
            partitions = (self._successors if first is not None else self._predecessors).get(relation, _NO_ROWS)
            adjacencies = [partitions.get(bound_domains[0], _NO_ROWS)] if bound_domains else partitions.values()
            candidates = [fact for adjacency in adjacencies for fact in adjacency.get(concept, _NO_ROWS).values()]
        elif concept is not None:
            by_concept = self._by_first if first is not None else self._by_second
            candidates = by_concept.get(relation, _NO_ROWS).get(concept, ())
        else:
            candidates = self._facts_of(relation, *bound_domains[:1])

        self._last_scanned = len(candidates)
        hits = [f for f in candidates if pattern.matches(f)]
        hits.sort(key=Fact.sort_key)
        return iter(hits)

    def _partitions(self, relation: str) -> Mapping[DomainExpr, Collection]:
        """The relation's partitions by domain: a successor adjacency for an
        intra-domain relation, a set of facts otherwise."""
        return self._successors.get(relation) or self._by_partition.get(relation, _NO_ROWS)

    def _facts_of(self, relation: str, domain: DomainExpr | None = None) -> list[Fact]:
        """The relation's facts, or its facts in ``domain``, as a new list."""
        partitions = self._partitions(relation)
        held = partitions.values() if domain is None else [partitions.get(domain, _NO_ROWS)]
        if relation in self._successors:
            return [fact for adjacency in held for row in adjacency.values() for fact in row.values()]
        # a cross fact with two domains sits in two partitions
        return list({fact for facts in held for fact in facts})

    def facts(self) -> list[Fact]:
        """All facts in ``Fact.sort_key``'s order, walked off the indexes
        rather than by sorting every fact: relations by name; an intra-domain
        relation's partitions by domain text, each partition's subjects, then
        each subject's objects, by symbol; a cross or fusion relation's few
        facts sorted by ``sort_key``."""
        facts: list[Fact] = []
        for relation in sorted([*self._successors, *self._by_partition]):
            partitions = self._successors.get(relation)
            if partitions is None:
                facts += sorted(self._facts_of(relation), key=Fact.sort_key)
                continue
            for domain in sorted(partitions, key=_text):
                adjacency = partitions[domain]
                for subject in sorted(adjacency, key=_symbol):
                    row = adjacency[subject]
                    # most rows hold one object, which needs no sort
                    facts += row.values() if len(row) == 1 else map(row.__getitem__, sorted(row, key=_symbol))
        return facts

    def fact_set(self) -> frozenset[Fact]:
        return frozenset(self)

    def relation_domains(self, relation: str) -> list[DomainExpr]:
        """Domains that hold at least one fact of the relation, sorted."""
        return sorted(self._partitions(relation), key=_text)

    def has_partition(self, relation: str, domain: DomainExpr) -> bool:
        """Whether the domain holds a fact of the relation."""
        return domain in self._partitions(relation)

    def partition(self, relation: str, domain: DomainExpr) -> set[Fact]:
        """The relation's facts in the domain, as a new set."""
        return set(self._facts_of(relation, domain))

    def relation_facts(self, relation: str) -> set[Fact]:
        """The relation's facts, as a new set."""
        return set(self._facts_of(relation))

    def successors(self, relation: str, domain: DomainExpr) -> Mapping[ConceptId, Mapping[ConceptId, Fact]]:
        """An intra-domain relation's facts in the domain, by subject, then by
        object.  Read only."""
        return self._successors.get(relation, _NO_ROWS).get(domain, _NO_ROWS)

    def predecessors(self, relation: str, domain: DomainExpr) -> Mapping[ConceptId, Mapping[ConceptId, Fact]]:
        """An intra-domain relation's facts in the domain, by object, then by
        subject.  Read only."""
        return self._predecessors.get(relation, _NO_ROWS).get(domain, _NO_ROWS)

    def stats(self) -> StoreStats:
        per_domain: dict[str, int] = {}
        for relation in [*self._successors, *self._by_partition]:
            for domain, held in self._partitions(relation).items():
                size = sum(map(len, held.values())) if relation in self._successors else len(held)
                per_domain[domain.text] = per_domain.get(domain.text, 0) + size
        return StoreStats(total_facts=self._count, facts_per_domain=dict(sorted(per_domain.items())),
                          last_query_scanned=self._last_scanned)

    def _reject_if_creates_cycle(self, fact: Fact) -> None:
        """Strict mode: would inserting this edge close a cycle?  Walks the
        successor index of the fact's partition out of the object."""
        successors = self.successors(fact.relation, fact.domains[0])
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
                raise CycleError(fact.relation, fact.domains[0].text, tuple(c.symbol for c in cycle))
            for succ in successors.get(node, _NO_ROWS):
                if succ not in seen:
                    seen.add(succ)
                    parent[succ] = node
                    stack.append(succ)
