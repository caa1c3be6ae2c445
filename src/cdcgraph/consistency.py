"""Knowledge-base validation.

Errors block materialization: cycles in acyclic relations, and self-loops in
asymmetric (acyclic-flagged) relations.  Divergent categorizations of one
concept under one relation are *not* errors - same-domain divergence is
multiple inheritance, and cross-domain divergence is the whole point of
domain scoping; the latter is recorded as a separation witness.  Lints flag
domain proliferation: case-only variants and near-duplicate spellings.

One depth-first search, ``find_cycle``, answers every cycle question.  Its
first pass over a partition walks the store's adjacency in its own order and
counts a self-loop as a cycle, so a partition with no cycle is read once.
Only a cyclic one is scanned for self-loops and searched again in sorted
order without them, which picks the cycle that the violation and
``CycleError`` report.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from typing import NamedTuple

from .domains import DomainExpr
from .errors import CycleError
from .relations import RelationShape
from .store import ConceptId, Fact, FactStore


class Violation(NamedTuple):
    kind: str  # "cycle" or "irreflexive"
    relation: str
    domain: str
    description: str
    facts: tuple[Fact, ...]


class Lint(NamedTuple):
    kind: str  # "case-variant-domains", "near-duplicate-domains", "duplicate-fact", ...
    description: str


class SeparationWitness(NamedTuple):
    """One concept categorized differently in two domains - coexisting, not conflicting."""

    concept: ConceptId
    relation: str
    first: tuple[ConceptId, DomainExpr]
    second: tuple[ConceptId, DomainExpr]

    def describe(self) -> str:
        first, second = (Fact.intra(self.relation, self.concept, obj, domain)
                         for obj, domain in (self.first, self.second))
        return f"{first!r} coexists with {second!r}"


class ConsistencyReport(NamedTuple):
    """What ``check`` found, each field a list; a field left out is ``()``."""

    errors: Sequence[Violation] = ()
    warnings: Sequence[Lint] = ()
    separation_witnesses: Sequence[SeparationWitness] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def find_cycle(successors: Mapping[ConceptId, Collection[ConceptId]],
               order: Callable[[Iterable[ConceptId]], Iterable[ConceptId]] = sorted) -> list[ConceptId] | None:
    """One closed walk [v0..vk] (edge vk->v0 exists) or None; a self-loop is
    the walk [v].  A successor that is not a key has no successors.  Roots
    and each node's successors are visited in ``order``: sorted, which makes
    the walk deterministic, or ``iter``, the mapping's own order."""
    done: set[ConceptId] = set()
    for root in order(successors):
        if root in done:
            continue
        # the open walk, each node with what is left of its successors
        walk = {root: iter(order(successors[root]))}
        node, rest = root, walk[root]
        while True:
            for succ in rest:
                if succ in walk:
                    nodes = list(walk)
                    return nodes[nodes.index(succ):]
                if succ not in done:
                    if succ in successors:
                        node, rest = succ, iter(order(successors[succ]))
                        walk[succ] = rest
                        break
                    done.add(succ)
            else:
                walk.popitem()
                done.add(node)
                if not walk:
                    break
                node, rest = next(reversed(walk.items()))
    return None


def _acyclicity_violations(store: FactStore) -> list[Violation]:
    violations: list[Violation] = []
    for spec in store.registry:
        if not spec.acyclic:
            continue
        for domain in store.relation_domains(spec.name):
            successors = store.successors(spec.name, domain)
            if find_cycle(successors, iter) is None:
                continue
            # self-loops violate asymmetry; report them separately and keep
            # them out of the cycle search
            for node, objects in successors.items():
                if node in objects:
                    violations.append(Violation(
                        kind="irreflexive",
                        relation=spec.name,
                        domain=domain.text,
                        description=f"{objects[node]!r} relates a concept to itself",
                        facts=(objects[node],),
                    ))
            # the sorted search picks the cycle to report; none is left when
            # the only cycles were self-loops
            cycle = find_cycle({node: [succ for succ in objects if succ != node]
                                for node, objects in successors.items()})
            if cycle is None:
                continue
            edges = [Fact.intra(spec.name, v, cycle[(i + 1) % len(cycle)], domain) for i, v in enumerate(cycle)]
            walk = " -> ".join(v.symbol for v in cycle) + f" -> {cycle[0].symbol}"
            violations.append(Violation(
                kind="cycle",
                relation=spec.name,
                domain=domain.text,
                description=f"cycle {walk}",
                facts=tuple(edges),
            ))
    violations.sort(key=lambda v: (v.relation, v.domain, v.kind, v.description))
    return violations


def ensure_acyclic(store: FactStore) -> None:
    """Raise CycleError on the first acyclicity violation (materialize pre-check)."""
    violations = _acyclicity_violations(store)
    if violations:
        first = violations[0]
        vertices = tuple(f.concepts[0].symbol for f in first.facts)
        raise CycleError(first.relation, first.domain, vertices)


def _separation_witnesses(store: FactStore) -> list[SeparationWitness]:
    witnesses: list[SeparationWitness] = []
    for spec in store.registry:
        if spec.shape is not RelationShape.INTRA:
            continue
        # each subject's rows of objects, one per domain, in domain text order
        rows: dict[ConceptId, list[tuple[DomainExpr, Collection[ConceptId]]]] = {}
        for domain in store.relation_domains(spec.name):
            for subject, row in store.successors(spec.name, domain).items():
                rows.setdefault(subject, []).append((domain, row))
        for subject, held in rows.items():
            for i, (first, objects) in enumerate(held):
                for second, others in held[i + 1:]:
                    witnesses.extend(SeparationWitness(subject, spec.name, (a, first), (b, second))
                                     for a in objects for b in others if a is not b)
    witnesses.sort(key=lambda w: (w.relation, w.concept.symbol, w.first[1].text,
                                  w.first[0].symbol, w.second[1].text, w.second[0].symbol))
    return witnesses


def edit_distance_at_most(a: str, b: str, bound: int) -> bool:
    """Levenshtein(a, b) <= bound.  Fills only the band of cells with
    |i - j| <= bound: a cell off the band costs more than the bound, so none
    is read as less, and the rows are abandoned once all of a row is over."""
    if abs(len(a) - len(b)) > bound:
        return False
    if a == b:
        return True
    # a shared prefix or suffix costs no edit; what is left of the longer
    # text bounds the distance
    n = min(len(a), len(b))
    start = 0
    while start < n and a[start] == b[start]:
        start += 1
    end = 0
    while end < n - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a, b = a[start:len(a) - end], b[start:len(b) - end]
    if max(len(a), len(b)) <= bound:
        return True
    over = bound + 1
    m = len(b)
    previous = [j if j <= bound else over for j in range(m + 1)]
    current = [over] * (m + 1)
    for i, ca in enumerate(a, start=1):
        lo = max(1, i - bound)
        hi = min(m, i + bound)
        # the cell left of the band: the first column, or off the band
        best = current[lo - 1] = i if lo == 1 else over
        for j in range(lo, hi + 1):
            cost = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != b[j - 1]),
            )
            current[j] = cost
            if cost < best:
                best = cost
        if best > bound:
            return False
        previous, current = current, previous
    return previous[m] <= bound


def _two_deletion_variants(text: str) -> set[str]:
    """``text`` and every string that one or two deletions reach."""
    variants = {text}
    for i in range(len(text)):
        once = text[:i] + text[i + 1:]
        variants.add(once)
        variants.update([once[:j] + once[j + 1:] for j in range(i, len(once))])
    return variants


def _domain_lints(store: FactStore) -> list[Lint]:
    texts = sorted({d.text for spec in store.registry for d in store.relation_domains(spec.name)})
    lints: list[Lint] = []
    by_folded: dict[str, list[str]] = {}
    for text in texts:
        by_folded.setdefault(text.lower(), []).append(text)
    for folded in sorted(by_folded):
        variants = by_folded[folded]
        if len(variants) > 1:
            lints.append(Lint(
                kind="case-variant-domains",
                description="domains differ only by case: " + ", ".join(variants),
            ))
    # Two texts within 2 edits share a string that at most 2 deletions reach
    # from each (delete the substituted characters from both sides and each
    # side's extra characters from that side), so only texts that share a
    # deletion variant are compared: SymSpell's symmetric deletion.
    by_variant: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        for variant in _two_deletion_variants(text):
            by_variant.setdefault(variant, []).append(i)
    shared: list[list[list[int]]] = [[] for _ in texts]  # each text's buckets of two or more
    for members in by_variant.values():
        if len(members) > 1:
            for i in members:
                shared[i].append(members)
    for i, buckets in enumerate(shared):
        partners: set[int] = set()
        for members in buckets:
            partners.update(members)
        for j in sorted(j for j in partners if j > i):
            a, b = texts[i], texts[j]
            if a.lower() == b.lower():
                continue  # already flagged as a case variant
            if edit_distance_at_most(a, b, 2):
                lints.append(Lint(
                    kind="near-duplicate-domains",
                    description=f"domains are near-duplicates (edit distance <= 2): {a}, {b}",
                ))
    return lints


def check(store: FactStore) -> ConsistencyReport:
    """Validate a store.  Pure: never mutates; repeated calls agree."""
    return ConsistencyReport(errors=_acyclicity_violations(store),
                             separation_witnesses=_separation_witnesses(store),
                             warnings=_domain_lints(store))
