"""Deductive closure over the fact store.

Three rule families, all scoped to a single domain (facts in one domain never
produce conclusions in another):

  transitive    R_star(x, z, d) <- R(x, y, d), R_star(y, z, d)
  symmetric     R(b, a, ...) <- R(a, b, ...)          (all shapes)
  inheritance   A(x, attr, d) <- V(x, y, d), A(y, attr, d)   where V is A's carrier

One kernel, ``_DomainClosure``, computes a domain's closure over bitsets of
dense concept ids, applying the three rules together in semi-naive layers;
a fact's layer is the length of its shortest derivation.  Multi-hop closure
facts carry the relation name ``<rel>_star``; the one-hop base case of
R_star is identified with the asserted edge itself, so every derivation
bottoms out in asserted leaves.  ``materialize`` turns every domain's layers
into facts whose traces record the smallest ``(rule, premise sort keys)``
among their layer's rule instances, which keeps traces minimal-depth and
deterministic.  The lazy reads run the kernel in the one domain asked for
and read its bitsets without building traces, so they give the closure's
answers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter, or_

from .consistency import ensure_acyclic, find_cycle
from .domains import DomainExpr
from .errors import CycleError, NotDerivableError, RegistryError
from .relations import RelationRegistry, RelationShape, RelationSpec
from .store import ConceptId, Fact, FactStore, swap_orientation

RULE_ASSERTED = "asserted"
RULE_SYMMETRIC = "symmetric"
RULE_TRANSITIVE = "transitive"
RULE_INHERITANCE = "inheritance"

STAR_SUFFIX = "_star"


def star_label(relation: str) -> str:
    return relation + STAR_SUFFIX


def base_of_star(label: str) -> str | None:
    if label.endswith(STAR_SUFFIX):
        return label[: -len(STAR_SUFFIX)]
    return None


@dataclass(frozen=True)
class DerivationTrace:
    """How a fact was obtained.  Asserted facts get the leaf trace."""

    rule: str
    premises: tuple[Fact, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.premises


LEAF = DerivationTrace(RULE_ASSERTED)


@dataclass
class ClosureSet:
    """Derived facts only (asserted facts live in the store), plus traces.

    ``generation`` snapshots the store generation this closure was computed
    from; a mismatch means the closure is stale.
    """

    generation: int
    derived: dict[str, frozenset[Fact]] = field(default_factory=dict)
    traces: dict[Fact, DerivationTrace] = field(default_factory=dict)

    def facts_for(self, label: str, domain: DomainExpr | None = None) -> list[Fact]:
        facts = self.derived.get(label, frozenset())
        if domain is not None:
            facts = {f for f in facts if domain in f.domains}
        return sorted(facts, key=Fact.sort_key)

    def size(self) -> int:
        return sum(len(v) for v in self.derived.values())

    def is_current(self, store: FactStore) -> bool:
        return self.generation == store.generation


def _intra_shaped(fact: Fact) -> bool:
    return len(fact.concepts) == 2 and len(fact.domains) == 1


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

    The relations asked for are joined by their inheritance carriers.  The
    tables hold one bitset of ids per id:

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
    """

    def __init__(self, registry: RelationRegistry, store: FactStore, domain: DomainExpr,
                 relations: Sequence[str]) -> None:
        specs: dict[str, RelationSpec] = {}
        pending = list(relations)
        while pending:
            spec = registry.lookup(pending.pop())
            if spec.name not in specs:
                specs[spec.name] = spec
                if spec.inherits_via is not None:
                    pending.append(spec.inherits_via)
        self.domain, self.specs = domain, specs
        partitions = {name: store.partition(name, domain) for name in specs}
        self.concepts = sorted(
            {c for facts in partitions.values() for f in facts for c in f.concepts}, key=attrgetter("symbol"))
        ids = self.ids = {c: i for i, c in enumerate(self.concepts)}
        n = len(self.concepts)
        self.asserted: dict[str, list[int]] = {}
        for name, facts in partitions.items():
            row = self.asserted[name] = [0] * n
            for fact in facts:
                x, y = fact.concepts
                row[ids[x]] |= 1 << ids[y]
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
                fresh = list(map(or_, new_edges[name], new_stars[name]))
                paths = list(map(or_, edges[name], star))
                starred[name] = self._join(RULE_TRANSITIVE, name, name, new_edges, paths, fresh, star, layer)
            if not layer:
                return
            self.layers.append(layer)
            for name, added in grown.items():
                edges[name] = list(map(or_, edges[name], added))
            for name, added in starred.items():
                stars[name] = list(map(or_, stars[name], added))
            new_edges, new_stars = grown, starred

    def _join(self, rule: str, name: str, carrier: str, new_edges: dict[str, list[int]], full: list[int],
              fresh: list[int], present: list[int], layer: list[tuple]) -> list[int]:
        """One layer of ``name(x, z) <- carrier(x, y), full(y, z)``, semi-naive:
        a carrier edge the last layer added meets all of ``full[y]``, an older
        one only the bits ``fresh[y]`` the last layer added.  Returns the new
        bits per node, leaving out what ``present`` already holds."""
        changed = sum(1 << y for y, bits in enumerate(fresh) if bits)
        out = []
        for x, (row, via) in enumerate(zip(self.edges[carrier], new_edges[carrier])):
            before = seen = present[x]
            for y in _ids(via | (row & changed)):
                hit = (full[y] if via >> y & 1 else fresh[y]) & ~seen
                if hit:
                    layer.append((rule, name, x, y, hit))
                    seen |= hit
            out.append(seen & ~before)
        return out

    def _flip(self, name: str, new: list[int], grown: list[int], layer: list[tuple]) -> None:
        """One layer of the symmetric rule: r(y, x) for each r(x, y) the last
        layer added, unless present or inherited in this layer."""
        present = self.edges[name]
        flipped = [0] * len(new)
        for x, bits in enumerate(new):
            for y in _ids(bits):
                flipped[y] |= 1 << x
        for y, bits in enumerate(flipped):
            hit = bits & ~(present[y] | grown[y])
            if hit:
                layer.append((RULE_SYMMETRIC, name, y, None, hit))
                grown[y] |= hit

    def record(self, store: FactStore, derived: dict[str, set[Fact]], traces: dict[Fact, DerivationTrace]) -> None:
        """Turn the claims into facts and traces, layer by layer; premises are
        the store's facts and the ones built here."""
        concepts, ids, domain = self.concepts, self.ids, self.domain
        n = len(concepts)
        facts = {name: {ids[f.concepts[0]] * n + ids[f.concepts[1]]: f for f in store.partition(name, domain)}
                 for name in self.edges}
        stars: dict[str, dict[int, Fact]] = {name: {} for name in self.stars}
        for layer in self.layers:
            made = []
            for rule, name, x, y, bits in layer:
                for z in _ids(bits):
                    if rule == RULE_TRANSITIVE:
                        # the edge premise sorts before the star premise
                        rest = facts[name].get(y * n + z) or stars[name][y * n + z]
                        premises = (facts[name][x * n + y], rest)
                        fact, table = Fact(star_label(name), (concepts[x], concepts[z]), (domain,)), stars[name]
                    else:
                        if rule == RULE_INHERITANCE:
                            premises = (facts[self.specs[name].inherits_via][x * n + y], facts[name][y * n + z])
                        else:
                            premises = (facts[name][z * n + x],)
                        fact, table = Fact(name, (concepts[x], concepts[z]), (domain,)), facts[name]
                    traces[fact] = DerivationTrace(rule, premises)
                    derived.setdefault(fact.relation, set()).add(fact)
                    made.append((table, x * n + z, fact))
            for table, key, fact in made:
                table[key] = fact

    def reach(self, relation: str, x: int) -> int:
        """Asserted edges plus ``R_star`` facts out of ``x``."""
        return self.asserted[relation][x] | self.stars[relation][x]


def materialize(store: FactStore, registry: RelationRegistry | None = None) -> ClosureSet:
    """Compute the full closure.  Raises CycleError if an acyclic relation
    contains a cycle (checked up front, per relation and domain)."""
    registry = registry or store.registry
    ensure_acyclic(store, registry)

    asserted = store.fact_set()
    derived: dict[str, set[Fact]] = {}
    traces: dict[Fact, DerivationTrace] = {}
    by_domain: dict[DomainExpr, list[str]] = {}
    for spec in registry:
        if spec.shape is not RelationShape.INTRA:
            if spec.symmetric:
                for fact in store.relation_facts(spec.name):
                    flipped = swap_orientation(fact, spec)
                    if flipped not in asserted:
                        derived.setdefault(spec.name, set()).add(flipped)
                        traces[flipped] = DerivationTrace(RULE_SYMMETRIC, (fact,))
        elif spec.symmetric or spec.transitive or spec.inherits_via is not None:
            for domain in store.relation_domains(spec.name):
                by_domain.setdefault(domain, []).append(spec.name)
    for domain, names in by_domain.items():
        _DomainClosure(registry, store, domain, names).record(store, derived, traces)
    return ClosureSet(
        generation=store.generation,
        derived={label: frozenset(facts) for label, facts in sorted(derived.items())},
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Lazy reads of one domain's closure (no traces)
# ---------------------------------------------------------------------------


def _star_closure(store: FactStore, relation: str, domain: DomainExpr) -> _DomainClosure:
    if not store.registry.lookup(relation).transitive:
        raise RegistryError(f"reachable_star needs a transitive relation, {relation!r} is not")
    return _DomainClosure(store.registry, store, domain, (relation,))


def reachable_star(store: FactStore, relation: str, frm: ConceptId, domain: DomainExpr) -> set[ConceptId]:
    """All concepts reachable from ``frm`` in one or more hops of the relation
    within the domain, over asserted and derived (symmetric or inherited)
    edges: the objects of ``frm``'s asserted edges and ``R_star`` facts."""
    closure = _star_closure(store, relation, domain)
    x = closure.ids.get(frm)
    if x is None:
        return set()
    return {closure.concepts[y] for y in _ids(closure.reach(relation, x))}


def star_pairs(store: FactStore, relation: str, domain: DomainExpr) -> set[tuple[ConceptId, ConceptId]]:
    """Every (x, y) with an asserted edge or an ``R_star`` fact in the domain,
    i.e. a path x -> ... -> y of length >= 1."""
    closure = _star_closure(store, relation, domain)
    concepts = closure.concepts
    return {(concepts[x], concepts[y]) for x in range(len(concepts)) for y in _ids(closure.reach(relation, x))}


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
    closure = _star_closure(store, relation, domain)
    x = closure.ids.get(target)
    if x is None:
        return []
    edges, concepts = closure.edges[relation], closure.concepts
    order: list[ConceptId] = []
    left = closure.reach(relation, x)
    while left:
        # ids follow symbol order: the smallest prerequisite whose own
        # prerequisites are all placed goes next
        ready = next((y for y in _ids(left) if not edges[y] & left), None)
        if ready is None:
            cycle = find_cycle({concepts[y]: [concepts[z] for z in _ids(edges[y] & left)] for y in _ids(left)})
            raise CycleError(relation, domain.text, tuple(c.symbol for c in cycle))
        order.append(concepts[ready])
        left &= ~(1 << ready)
    return order


def inherited_attributes(
    store: FactStore,
    concept: ConceptId,
    domain: DomainExpr,
) -> set[tuple[ConceptId, ConceptId]]:
    """(attribute, source) pairs: the concept's own attributes plus every
    attribute of each is_a ancestor.  No overriding - all pairs returned."""
    attr_spec = store.registry.get("has_attribute")
    if attr_spec is None:
        return set()
    owners = {concept}
    if attr_spec.inherits_via is not None:
        owners |= reachable_star(store, attr_spec.inherits_via, concept, domain)
    return {(f.concepts[1], f.concepts[0]) for f in store.partition("has_attribute", domain) if f.concepts[0] in owners}


def derived_facts_for(store: FactStore, relation: str, domain: DomainExpr | None = None) -> set[Fact]:
    """Lazy equivalent of ClosureSet.derived[relation] (symmetric
    completions and inherited facts), in ``domain`` or, without one, in
    every domain of the relation."""
    spec = store.registry.lookup(relation)
    if spec.shape is not RelationShape.INTRA:
        source = store.relation_facts(relation) if domain is None else store.partition(relation, domain)
        asserted = store.fact_set()
        flipped = {swap_orientation(fact, spec) for fact in source} if spec.symmetric else set()
        return flipped - asserted
    out: set[Fact] = set()
    for d in [domain] if domain is not None else store.relation_domains(relation):
        closure = _DomainClosure(store.registry, store, d, (relation,))
        concepts = closure.concepts
        for x, (have, asserted_bits) in enumerate(zip(closure.edges[relation], closure.asserted[relation])):
            out.update(Fact.intra(relation, concepts[x], concepts[y], d) for y in _ids(have & ~asserted_bits))
    return out


def analogy_search(
    store: FactStore,
    concept: ConceptId,
    source_domain: DomainExpr | None = None,
) -> set[tuple[ConceptId, DomainExpr, DomainExpr]]:
    """(counterpart, own-side domain, counterpart-side domain) for every
    cross-domain analogy touching the concept, in either orientation."""
    results: set[tuple[ConceptId, DomainExpr, DomainExpr]] = set()
    for fact in store.relation_facts("analogous_to"):
        c1, c2 = fact.concepts
        d1, d2 = fact.domains
        for mine, other, d_mine, d_other in ((c1, c2, d1, d2), (c2, c1, d2, d1)):
            if mine == concept and (source_domain is None or d_mine == source_domain):
                results.add((other, d_mine, d_other))
    return results


def explain(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> DerivationTrace:
    """Leaf trace for asserted facts; recorded minimal-depth derivation for
    derived ones.  Star-named facts whose pair is a direct edge resolve to
    the asserted edge (leaf)."""
    if fact.relation in store.registry:
        if fact in store:
            return LEAF
    base = base_of_star(fact.relation)
    if base is not None and base in store.registry and _intra_shaped(fact):
        if Fact(base, fact.concepts, fact.domains) in store:
            return LEAF
    if closure is not None:
        trace = closure.traces.get(fact)
        if trace is not None:
            return trace
    raise NotDerivableError(f"{fact!r} is neither asserted nor derivable")


def trace_depth(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> int:
    """Number of rule applications along the deepest branch of the derivation."""
    trace = explain(fact, store, closure)
    if trace.is_leaf:
        return 0
    return 1 + max(trace_depth(p, store, closure) for p in trace.premises)
