"""Deductive closure over the fact store.

Three rule families, all scoped to a single domain (facts in one domain never
produce conclusions in another):

  transitive    R_star(x, z, d) <- R(x, y, d), R_star(y, z, d)
  symmetric     R(b, a, ...) <- R(a, b, ...)          (all shapes)
  inheritance   A(x, attr, d) <- V(x, y, d), A(y, attr, d)   where V is A's carrier

One kernel, ``_DomainClosure``, computes a domain's closure over bitsets of
dense concept ids, applying the three rules together in semi-naive layers;
a fact's layer is the length of its shortest derivation.  A layer visits
only the rows it can change, those with a carrier edge the last layer added
or one into a row that grew, and merges only the tables that grew; in a deep
domain most rows are idle in most layers.  Multi-hop closure facts carry the
relation name ``<rel>_star``; the one-hop base case of R_star is the edge
itself, asserted or derived, so every derivation bottoms out in asserted
leaves.  ``materialize`` turns every domain's layers into facts whose traces
record the smallest ``(rule, premise sort keys)`` among their layer's rule
instances, which keeps traces minimal-depth and deterministic.  It builds
each fact and its trace once, in one pass over the claims, and hashes each
fact once, into its label's ``{fact: trace}`` dict: ``traces`` and each
label's frozenset are made from those dicts at the end and reuse the hashes
they store.  Facts and traces are NamedTuples, so hashing and comparing
them runs in C, and ``record`` builds them in C too.

The lazy reads give the closure's answers without traces, in the one domain
asked for.  A read with a bound concept computes only that concept's row:
``_Rows`` evaluates the rules left-linearly from the bound concept
(``R_star(x, z) <- R_star(x, y), R(y, z)``), as frontiers over the store's
per-partition successor index, or its predecessor index for a bound object;
a symmetric relation's rows read both.  The registry refuses a carrier
cycle, so every join's carrier chain ends and these walks answer every
bound goal.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Mapping, Sequence
from heapq import heapify, heappop, heappush
from operator import attrgetter, or_
from typing import NamedTuple

from .consistency import ensure_acyclic, find_cycle
from .domains import DomainExpr
from .errors import CycleError, NotDerivableError, RegistryError, StaleClosureError
from .relations import RelationRegistry, RelationShape, RelationSpec, star_label, star_relation
from .store import _NO_ROWS, ConceptId, Fact, FactPattern, FactStore, swap_orientation

RULE_ASSERTED = "asserted"
RULE_SYMMETRIC = "symmetric"
RULE_TRANSITIVE = "transitive"
RULE_INHERITANCE = "inheritance"


class DerivationTrace(NamedTuple):
    """How a fact was obtained.  Asserted facts get the leaf trace.

    A tuple of its two fields, like ``Fact``: it equals a plain
    ``(rule, premises)`` tuple."""

    rule: str
    premises: tuple[Fact, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.premises


LEAF = DerivationTrace(RULE_ASSERTED)


class ClosureSet:
    """Derived facts only (asserted facts live in the store), plus traces.

    ``generation`` snapshots the store generation this closure was computed
    from; a mismatch means the closure is stale.  A plain class, not a
    tuple: its large dicts are the closure's state rather than a value.
    """

    __slots__ = ("generation", "derived", "traces")

    def __init__(self, generation: int, derived: dict[str, frozenset[Fact]] | None = None,
                 traces: dict[Fact, DerivationTrace] | None = None) -> None:
        self.generation = generation
        self.derived = {} if derived is None else derived
        self.traces = {} if traces is None else traces

    def __eq__(self, other: object) -> bool:
        if type(other) is not ClosureSet:
            return NotImplemented
        return (self.generation, self.derived, self.traces) == (other.generation, other.derived, other.traces)

    def facts_for(self, label: str, domain: DomainExpr | None = None) -> list[Fact]:
        facts = self.derived.get(label, frozenset())
        if domain is not None:
            facts = {f for f in facts if domain in f.domains}
        return sorted(facts, key=Fact.sort_key)

    def size(self) -> int:
        return sum(len(v) for v in self.derived.values())

    def is_current(self, store: FactStore) -> bool:
        return self.generation == store.generation


def _ids(bits: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class _DomainClosure:
    """The closure of some intra-domain relations within one domain.

    The relations asked for are joined by their inheritance carriers, each
    read from its successor adjacency in the domain.  The tables hold one
    bitset of ids per id:

    - ``concepts[i]`` is the concept with id ``i``; ids follow symbol order;
    - ``asserted[r][x]`` / ``edges[r][x]``: the ids y with r(x, y) asserted /
      asserted or derived;
    - ``stars[r][x]``: the ids z with r_star(x, z), for each transitive
      relation asked for;
    - ``layers[k]`` lists what layer k+1 derived as claims
      ``(rule, r, x, y, bits)``, one fact per id z in ``bits``:
      r_star(x, z) <- r(x, y), r|r_star(y, z) (transitive);
      r(x, z) <- carrier(x, y), r(y, z) (inheritance);
      r(x, z) <- r(z, x) (symmetric, y is None).
      y is the lowest id of an instance whose premises are all present by
      layer k, and inheritance claims a fact before symmetry does: the
      smallest ``(rule, premise sort keys)`` of the fact's instances.

    A layer skips the idle rows: a join visits row x only when x has a
    carrier edge the last layer added or one into a row that grew, the flip
    reads only the rows that grew, and a table that gained nothing is not
    rebuilt.  ``record`` builds each claimed fact and its trace once.
    """

    def __init__(self, specs: dict[str, RelationSpec], domain: DomainExpr, relations: Sequence[str],
                 successors: dict[str, Mapping[ConceptId, Mapping[ConceptId, Fact]]]) -> None:
        self.domain, self.specs, self.successors = domain, specs, successors
        self.concepts = sorted({c for rows in successors.values() for x, row in rows.items() for c in (x, *row)},
                               key=attrgetter("symbol"))
        ids = self.ids = {c: i for i, c in enumerate(self.concepts)}
        n = len(self.concepts)
        self.asserted: dict[str, list[int]] = {}
        for name, rows in successors.items():
            table = self.asserted[name] = [0] * n
            for x, row in rows.items():
                table[ids[x]] = sum([1 << ids[y] for y in row])
        # layers replace rows rather than change them, so ``asserted`` stays as loaded
        edges = self.edges = dict(self.asserted)
        stars = self.stars = {name: [0] * n for name in relations if specs[name].transitive}
        self.layers: list[list[tuple]] = []
        new_edges, new_stars = edges, stars
        while True:
            layer: list[tuple] = []
            grown = {}
            for name, spec in specs.items():
                if spec.inherits_via is None:
                    grown[name] = [0] * n
                else:
                    grown[name] = self._join(RULE_INHERITANCE, name, spec.inherits_via, new_edges,
                                             edges[name], new_edges[name], edges[name], layer)
            for name, spec in specs.items():
                if spec.symmetric:
                    self._flip(name, new_edges[name], grown[name], layer)
            starred = {}
            for name, star in stars.items():
                if any(new_edges[name]):
                    fresh = list(map(or_, new_edges[name], new_stars[name]))
                    paths = list(map(or_, edges[name], star))
                else:
                    # no new edge, so the join reads no path and only the new stars
                    fresh = paths = new_stars[name]
                starred[name] = self._join(RULE_TRANSITIVE, name, name, new_edges, paths, fresh, star, layer)
            if not layer:
                return
            self.layers.append(layer)
            for name, added in grown.items():
                if any(added):
                    edges[name] = list(map(or_, edges[name], added))
            for name, added in starred.items():
                if any(added):
                    stars[name] = list(map(or_, stars[name], added))
            new_edges, new_stars = grown, starred

    def _join(self, rule: str, name: str, carrier: str, new_edges: dict[str, list[int]], full: list[int],
              fresh: list[int], present: list[int], layer: list[tuple]) -> list[int]:
        """One layer of ``name(x, z) <- carrier(x, y), full(y, z)``, semi-naive:
        a carrier edge the last layer added meets all of ``full[y]``, an older
        one only the bits ``fresh[y]`` the last layer added.  Returns the new
        bits per node, leaving out what ``present`` already holds; a row with
        neither kind of edge is skipped."""
        changed = sum([1 << y for y, bits in enumerate(fresh) if bits])
        out = [0] * len(present)
        for x, (row, via) in enumerate(zip(self.edges[carrier], new_edges[carrier])):
            active = via | (row & changed)
            if not active:
                continue
            before = seen = present[x]
            while active:
                # the lowest id first
                low = active & -active
                active ^= low
                y = low.bit_length() - 1
                hit = (full[y] if via & low else fresh[y]) & ~seen
                if hit:
                    layer.append((rule, name, x, y, hit))
                    seen |= hit
            out[x] = seen & ~before
        return out

    def _flip(self, name: str, new: list[int], grown: list[int], layer: list[tuple]) -> None:
        """One layer of the symmetric rule: r(y, x) for each r(x, y) the last
        layer added, unless present or inherited in this layer.  Reads only
        the rows that grew."""
        present = self.edges[name]
        flipped = [0] * len(new)
        for x, bits in enumerate(new):
            if bits:
                for y in _ids(bits):
                    flipped[y] |= 1 << x
        for y, bits in enumerate(flipped):
            hit = bits and bits & ~(present[y] | grown[y])
            if hit:
                layer.append((RULE_SYMMETRIC, name, y, None, hit))
                grown[y] |= hit

    def record(self, derived: dict[str, dict[Fact, DerivationTrace]]) -> None:
        """Turn the claims into facts and traces, layer by layer, building
        and hashing each once: it goes into its label's ``{fact: trace}``
        dict, whose stored hashes ``materialize`` reuses.  Premises are the
        closed facts and the ones built here.

        ``new`` is what ``Fact._make`` calls: it builds a NamedTuple in C,
        where the class's own constructor is a Python function."""
        concepts, ids, domains, new = self.concepts, self.ids, (self.domain,), tuple.__new__
        n = len(concepts)
        facts = {name: {ids[x] * n + ids[y]: f for x, row in rows.items() for y, f in row.items()}
                 for name, rows in self.successors.items()}
        stars: dict[str, dict[int, Fact]] = {name: {} for name in self.stars}
        for layer in self.layers:
            # an edge built here is a premise only from the next layer on, so
            # a star premise reads the edges as the last layer left them
            made = []
            for rule, name, x, y, bits in layer:
                subject, edges, base = concepts[x], facts[name], x * n
                if rule == RULE_TRANSITIVE:
                    label, star, rest = star_label(name), stars[name], y * n
                    # the edge premise sorts before the star premise
                    edge, out = edges[base + y], derived.setdefault(label, {})
                    for z in _ids(bits):
                        fact = new(Fact, (label, (subject, concepts[z]), domains))
                        out[fact] = new(DerivationTrace, (rule, (edge, edges.get(rest + z) or star[rest + z])))
                        star[base + z] = fact
                    continue
                out = derived.setdefault(name, {})
                if rule == RULE_INHERITANCE:
                    carried, rest = facts[self.specs[name].inherits_via][base + y], y * n
                for z in _ids(bits):
                    fact = new(Fact, (name, (subject, concepts[z]), domains))
                    premises = (carried, edges[rest + z]) if rule == RULE_INHERITANCE else (edges[z * n + x],)
                    out[fact] = new(DerivationTrace, (rule, premises))
                    made.append((edges, base + z, fact))
            for edges, key, fact in made:
                edges[key] = fact

    def pairs(self, table: list[int]) -> Iterator[tuple[ConceptId, ConceptId]]:
        """(x, y) for each id y in ``table[x]``."""
        concepts = self.concepts
        for x, bits in enumerate(table):
            for y in _ids(bits):
                yield concepts[x], concepts[y]


def _joined_specs(registry: RelationRegistry, relations: Sequence[str]) -> dict[str, RelationSpec]:
    """The relations asked for and, transitively, their inheritance carriers:
    what the kernel joins."""
    specs: dict[str, RelationSpec] = {}
    pending = list(relations)
    while pending:
        spec = registry.lookup(pending.pop())
        if spec.name not in specs:
            specs[spec.name] = spec
            if spec.inherits_via is not None:
                pending.append(spec.inherits_via)
    return specs


def _closure(store: FactStore, relations: Sequence[str], domain: DomainExpr) -> _DomainClosure:
    """The kernel for ``relations`` over the whole of ``domain``."""
    specs = _joined_specs(store.registry, relations)
    return _DomainClosure(specs, domain, relations, {name: store.successors(name, domain) for name in specs})


class _Rows:
    """Single rows of one domain's closure of a relation: the far ends of one
    concept's facts, out of it (``forward``) or into it.  Reads only the
    joined relations' partitions in the domain: the successor (predecessor)
    index, and both for a symmetric relation.

    With carrier c, write x c* y when zero or more c edges lead from x to
    y.  r(x, w) holds when x c* an owner with an asserted r(owner, w).  A
    symmetric r(x, w) holds when x c* an owner, the owner and some e share
    an asserted r fact in either direction, and w c* e; that relation is its
    own reverse.  r_star(x, z) holds when z lies one or more r edges from x.
    All of these are frontiers of rows, as in the left-linear evaluation of
    Naughton, Ramakrishnan, Sagiv & Ullman 1989, "Efficient evaluation of
    right-, left-, and multi-linear rules".
    """

    def __init__(self, store: FactStore, specs: dict[str, RelationSpec], domain: DomainExpr, forward: bool,
                 flipped: _Rows | None = None) -> None:
        index = store.successors if forward else store.predecessors
        self.index = {name: index(name, domain) for name in specs}
        self.carrier = {name: spec.inherits_via for name, spec in specs.items()}
        self.symmetric = {name for name, spec in specs.items() if spec.symmetric}
        self.plain = {name for name, spec in specs.items() if spec.inherits_via is None and not spec.symmetric}
        self.forward = forward
        # the rows the other way round, which symmetric rows read as well
        self.flipped = flipped or (_Rows(store, specs, domain, not forward, self) if self.symmetric else None)
        self._derived: dict[tuple[str, ConceptId], set[ConceptId]] = {}

    def asserted(self, name: str, concept: ConceptId) -> Collection[ConceptId]:
        return self.index[name].get(concept, _NO_ROWS).keys()

    def edges(self, name: str, concept: ConceptId) -> Collection[ConceptId]:
        """The far ends of the concept's asserted and derived facts."""
        if name in self.plain:
            return self.asserted(name, concept)
        row = self._derived.get((name, concept))
        if row is None:
            row = self._derived[(name, concept)] = self._derive(name, concept)
        return row

    def _derive(self, name: str, concept: ConceptId) -> set[ConceptId]:
        carrier, symmetric = self.carrier[name], name in self.symmetric
        ahead, behind = (self, self.flipped) if self.forward else (self.flipped, self)
        near = {concept}
        if carrier is not None and (symmetric or self.forward):
            # the owners of what the concept inherits
            near |= ahead.at_least_once(carrier, near)
        sides = (self, self.flipped) if symmetric else (self,)
        far = set().union(*[rows.index[name].get(owner, _NO_ROWS) for rows in sides for owner in near])
        if carrier is not None and (symmetric or not self.forward):
            # and everything that inherits from those ends
            far |= behind.at_least_once(carrier, far)
        return far

    def at_least_once(self, name: str, start: Collection[ConceptId]) -> set[ConceptId]:
        """Everything one or more edges reach from ``start``."""
        seen: set[ConceptId] = set()
        frontier = start
        while frontier:
            step: set[ConceptId] = set()
            for concept in frontier:
                step.update(self.edges(name, concept))
            frontier = step - seen
            seen |= frontier
        return seen

    def reach(self, name: str, concept: ConceptId) -> set[ConceptId]:
        """The far ends of the concept's edges and, for a transitive
        relation, its ``R_star`` facts."""
        return self.at_least_once(name, (concept,))


def _bound_rows(store: FactStore, relation: str, domain: DomainExpr, forward: bool) -> _Rows:
    """Rows for a goal about ``relation`` with a bound subject (``forward``)
    or object."""
    return _Rows(store, _joined_specs(store.registry, (relation,)), domain, forward)


def materialize(store: FactStore) -> ClosureSet:
    """Compute the full closure.  Raises CycleError if an acyclic relation
    contains a cycle (checked up front, per relation and domain).

    Each derived fact is hashed once, into its label's ``{fact: trace}``
    dict; ``traces`` (by ``dict.update``) and each label's frozenset are
    built from those dicts and reuse the hashes they store."""
    registry = store.registry
    ensure_acyclic(store, registry)

    derived: dict[str, dict[Fact, DerivationTrace]] = {}
    by_domain: dict[DomainExpr, list[str]] = {}
    for spec in registry:
        if spec.shape is not RelationShape.INTRA:
            if spec.symmetric:
                for fact in store.relation_facts(spec.name):
                    # stored facts are canonical, so the other orientation is
                    # held only when it is the fact itself
                    flipped = swap_orientation(fact, spec)
                    if flipped != fact:
                        derived.setdefault(spec.name, {})[flipped] = DerivationTrace(RULE_SYMMETRIC, (fact,))
        elif spec.symmetric or spec.transitive or spec.inherits_via is not None:
            for domain in store.relation_domains(spec.name):
                by_domain.setdefault(domain, []).append(spec.name)
    for domain, names in by_domain.items():
        _closure(store, names, domain).record(derived)
    traces: dict[Fact, DerivationTrace] = {}
    for facts in derived.values():
        traces.update(facts)
    return ClosureSet(
        generation=store.generation,
        derived={label: frozenset(facts) for label, facts in sorted(derived.items())},
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Lazy reads of one domain's closure (no traces)
# ---------------------------------------------------------------------------


def _require_transitive(store: FactStore, relation: str, caller: str) -> None:
    if not store.registry.lookup(relation).transitive:
        raise RegistryError(f"{caller} needs a transitive relation, {relation!r} is not")


def reachable_star(store: FactStore, relation: str, frm: ConceptId, domain: DomainExpr) -> set[ConceptId]:
    """All concepts reachable from ``frm`` in one or more hops of the relation
    within the domain, over asserted and derived (symmetric or inherited)
    edges: the objects of ``frm``'s edges and ``R_star`` facts."""
    _require_transitive(store, relation, "reachable_star")
    return _bound_rows(store, relation, domain, True).reach(relation, frm)


def star_pairs(store: FactStore, relation: str, domain: DomainExpr, *, subject: ConceptId | None = None,
               obj: ConceptId | None = None) -> set[tuple[ConceptId, ConceptId]]:
    """Every (x, y) with an edge, asserted or derived, or an ``R_star`` fact
    in the domain, i.e. a path x -> ... -> y of length >= 1; only those with
    x = ``subject`` and y = ``obj`` when either is given."""
    _require_transitive(store, relation, "star_pairs")
    if subject is None and obj is None:
        closure = _closure(store, (relation,), domain)
        return set(closure.pairs(list(map(or_, closure.edges[relation], closure.stars[relation]))))
    rows = _bound_rows(store, relation, domain, subject is not None)
    if subject is not None:
        return {(subject, y) for y in rows.reach(relation, subject) if obj is None or y == obj}
    return {(x, obj) for x in rows.reach(relation, obj)}


def all_prerequisites(
    store: FactStore,
    target: ConceptId,
    domain: DomainExpr,
    relation: str = "requires",
) -> list[ConceptId]:
    """Transitive prerequisites of ``target``, topologically ordered: every
    prerequisite precedes anything that requires it.  Lexicographic
    tie-break makes the order deterministic.  Raises CycleError if the
    prerequisite subgraph is cyclic."""
    _require_transitive(store, relation, "all_prerequisites")
    rows = _bound_rows(store, relation, domain, True)
    left = rows.reach(relation, target)
    # Kahn's order: the smallest prerequisite whose own prerequisites are
    # all placed goes next
    waiting: dict[ConceptId, int] = {}
    needed_by: dict[ConceptId, list[ConceptId]] = {}
    for y in left:
        needs = [z for z in rows.edges(relation, y) if z in left]
        waiting[y] = len(needs)
        for z in needs:
            needed_by.setdefault(z, []).append(y)
    ready = [(y.symbol, y) for y, count in waiting.items() if not count]
    heapify(ready)
    order: list[ConceptId] = []
    while ready:
        y = heappop(ready)[1]
        order.append(y)
        for w in needed_by.get(y, ()):
            waiting[w] -= 1
            if not waiting[w]:
                heappush(ready, (w.symbol, w))
    if len(order) < len(left):
        rest = left.difference(order)
        cycle = find_cycle({y: rows.edges(relation, y) for y in rest})
        raise CycleError(relation, domain.text, tuple(c.symbol for c in cycle))
    return order


def inherited_attributes(
    store: FactStore,
    concept: ConceptId,
    domain: DomainExpr,
) -> set[tuple[ConceptId, ConceptId]]:
    """(attribute, source) pairs: the concept's own attributes plus those of
    every owner that one or more carrier edges reach from it, asserted or
    derived, read on the rows the ``has_attribute`` goal reads.  An owner's
    attributes are the objects of its asserted ``has_attribute`` facts; when
    the relation is symmetric, the subjects of the facts it is the object of
    as well, and everything whose carrier edges reach one of those, again
    with that owner as the source.  No overriding - all pairs returned."""
    attr_spec = store.registry.get("has_attribute")
    if attr_spec is None:
        return set()
    rows = _bound_rows(store, "has_attribute", domain, True)
    owners = {concept}
    carrier = attr_spec.inherits_via
    if carrier is not None:
        owners |= rows.reach(carrier, concept)
    # a symmetric fact is stored in one orientation only, so read both
    sides = (rows, rows.flipped) if attr_spec.symmetric else (rows,)
    pairs = {(attribute, owner) for side in sides for owner in owners
             for attribute in side.asserted("has_attribute", owner)}
    if carrier is not None and attr_spec.symmetric:
        # the relation is its own reverse: what inherits from an attribute
        # holds it the other way round
        pairs |= {(heir, owner) for attribute, owner in pairs for heir in rows.flipped.reach(carrier, attribute)}
    return pairs


def derived_facts_for(store: FactStore, relation: str, domain: DomainExpr) -> set[Fact]:
    """Lazy equivalent of ClosureSet.derived[relation] in ``domain`` for an
    intra-domain relation: its symmetric completions and inherited facts, by
    the kernel over the whole domain.  A goal with a bound concept reads the
    concept's row of ``_bound_rows`` instead."""
    closure = _closure(store, (relation,), domain)
    derived = [have & ~asserted for have, asserted in zip(closure.edges[relation], closure.asserted[relation])]
    return {Fact.intra(relation, x, y, domain) for x, y in closure.pairs(derived)}


def oriented_match(store: FactStore, spec: RelationSpec, concepts: tuple[ConceptId | None, ...],
                   domains: tuple[DomainExpr | None, ...]) -> list[Fact]:
    """The facts of the pattern (None a wildcard), in its orientation: a
    symmetric relation's facts are stored in one orientation, so the
    reversed pattern is matched too and its facts turned round."""
    pattern = FactPattern(spec.name, concepts, domains)
    facts = list(store.match(pattern))
    if spec.symmetric:
        facts += [swap_orientation(fact, spec) for fact in store.match(swap_orientation(pattern, spec))]
    return facts


def analogy_search(
    store: FactStore,
    concept: ConceptId,
    source_domain: DomainExpr | None = None,
) -> set[tuple[ConceptId, DomainExpr, DomainExpr]]:
    """(counterpart, own-side domain, counterpart-side domain) for every
    cross-domain analogy with the concept first, and on the
    ``source_domain`` side when one is given, as the ``analogy_search``
    goal reads them: by ``oriented_match``."""
    spec = store.registry.lookup("analogous_to")
    if spec.shape is not RelationShape.CROSS:
        raise RegistryError(f"analogy_search needs a cross-domain relation, 'analogous_to' is {spec.shape.value}")
    return {(f.concepts[1], *f.domains) for f in oriented_match(store, spec, (concept, None), (source_domain, None))}


def explain(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> DerivationTrace:
    """Leaf trace for asserted facts; recorded minimal-depth derivation for
    derived ones.  The tests, in order:

    1. a fact of a registered relation that the store holds, in either
       orientation if the relation is symmetric, is a leaf;
    2. a ``<rel>_star`` fact over a transitive ``rel`` whose pair is an
       edge is that edge, the one-hop base case: a leaf if asserted, the
       edge's trace if derived;
    3. any other fact has the closure's trace for it, if there is one.

    Only the steps that read ``closure.traces`` test the closure: a stale
    one, computed at another store generation, raises
    ``StaleClosureError`` there, and an asserted leaf never reads it.

    ``materialize`` derives a relation's own facts only by symmetry or
    inheritance, so the edge of step 2 is read straight off the successor
    index unless ``rel`` is symmetric, whose edge must be canonicalized, or
    inheriting, whose edge may be derived.
    """
    registry = store.registry
    if fact.relation in registry:
        if fact in store:
            return LEAF
    else:
        spec = star_relation(registry, fact.relation)
        if spec is not None and len(fact.concepts) == 2 and len(fact.domains) == 1:
            if not spec.symmetric and spec.inherits_via is None:
                if fact.concepts[1] in store.successors(spec.name, fact.domains[0]).get(fact.concepts[0], _NO_ROWS):
                    return LEAF
            else:
                edge = Fact(spec.name, fact.concepts, fact.domains)
                if edge in store:
                    return LEAF
                if closure is not None:
                    trace = _current_traces(closure, store, fact).get(edge)
                    if trace is not None:
                        return trace
    if closure is not None:
        trace = _current_traces(closure, store, fact).get(fact)
        if trace is not None:
            return trace
    raise NotDerivableError(f"{fact!r} is neither asserted nor derivable")


def _current_traces(closure: ClosureSet, store: FactStore, fact: Fact) -> dict[Fact, DerivationTrace]:
    """The closure's traces, which ``explain`` may read for ``fact`` only
    while the closure is current."""
    if not closure.is_current(store):
        raise StaleClosureError(f"explain {fact!r}: the closure is of store generation {closure.generation}, "
                                f"the store is at {store.generation}")
    return closure.traces


def trace_depth(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> int:
    """Number of rule applications along the deepest branch of the derivation.

    Walks the derivation with an explicit stack, explaining each fact once,
    so a long chain cannot exhaust the interpreter's recursion limit."""
    traces: dict[Fact, DerivationTrace] = {}
    depths: dict[Fact, int] = {}
    stack = [fact]
    while stack:
        top = stack.pop()
        if top not in traces:
            # back on the stack under its premises, to be counted after them
            traces[top] = explain(top, store, closure)
            stack += [top, *traces[top].premises]
        elif top not in depths:
            premises = traces[top].premises
            depths[top] = 1 + max(depths[p] for p in premises) if premises else 0
    return depths[fact]
