"""The all-pairs near-duplicate lint, the full-row edit distance and the
cycle searches that ``cdcgraph.consistency`` replaced, kept unchanged as the
reference for ``tests/test_consistency.py``.

``_domain_lints`` compares every pair of domain texts with
``edit_distance_at_most``, which fills whole rows of the Levenshtein table.
``_acyclicity_violations`` runs the sorted ``find_cycle`` on every partition
of an acyclic relation, cyclic or not.  ``_has_cycle`` is the store-order
pass that, ahead of the sorted search, answered whether a partition held a
cycle through two or more nodes.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

from cdcgraph.consistency import Lint, Violation
from cdcgraph.relations import RelationRegistry
from cdcgraph.store import ConceptId, Fact, FactStore


def edit_distance_at_most(a: str, b: str, bound: int) -> bool:
    """Levenshtein(a, b) <= bound, with cheap cutoffs."""
    if abs(len(a) - len(b)) > bound:
        return False
    if a == b:
        return True
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
            current.append(cost)
            best = min(best, cost)
        if best > bound:
            return False
        previous = current
    return previous[-1] <= bound


def _domain_lints(store: FactStore) -> list[Lint]:
    texts = sorted(store.stats().facts_per_domain)
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
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = texts[i], texts[j]
            if a.lower() == b.lower():
                continue  # already flagged as a case variant
            if edit_distance_at_most(a, b, 2):
                lints.append(Lint(
                    kind="near-duplicate-domains",
                    description=f"domains are near-duplicates (edit distance <= 2): {a}, {b}",
                ))
    return lints


def find_cycle(adjacency: dict[ConceptId, list[ConceptId]]) -> list[ConceptId] | None:
    """One closed walk [v0..vk] (edge vk->v0 exists) or None.  Deterministic:
    nodes and successors are visited in sorted order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[ConceptId, int] = {}
    for root in sorted(adjacency):
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [(root, iter(sorted(adjacency.get(root, ()))))]
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                state = color.get(succ, WHITE)
                if state == GRAY:
                    return path[path.index(succ):]
                if state == WHITE:
                    color[succ] = GRAY
                    path.append(succ)
                    stack.append((succ, iter(sorted(adjacency.get(succ, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _has_cycle(successors: Mapping[ConceptId, Collection[ConceptId]]) -> bool:
    """Whether the adjacency holds a cycle through two or more nodes
    (self-loops are skipped).  Visits nodes in the adjacency's own order."""
    done: set[ConceptId] = set()
    for root in successors:
        if root in done:
            continue
        path = {root}
        stack = [(root, iter(successors[root]))]
        while stack:
            node, rest = stack[-1]
            for succ in rest:
                if succ in path:
                    if succ != node:
                        return True
                elif succ not in done:
                    if succ in successors:
                        path.add(succ)
                        stack.append((succ, iter(successors[succ])))
                        break
                    done.add(succ)
            else:
                stack.pop()
                path.remove(node)
                done.add(node)
    return False


def _acyclicity_violations(store: FactStore, registry: RelationRegistry) -> list[Violation]:
    violations: list[Violation] = []
    for spec in registry:
        if not spec.acyclic:
            continue
        for domain in store.relation_domains(spec.name):
            # self-loops violate asymmetry; report them separately and keep
            # them out of the cycle search
            clean: dict[ConceptId, list[ConceptId]] = {}
            for node, objects in store.successors(spec.name, domain).items():
                if node in objects:
                    violations.append(Violation(
                        kind="irreflexive",
                        relation=spec.name,
                        domain=domain.text,
                        description=f"{spec.name}({node}, {node}, \"{domain.text}\") relates a concept to itself",
                        facts=(objects[node],),
                    ))
                clean[node] = [succ for succ in objects if succ != node]
            cycle = find_cycle(clean)
            if cycle is not None:
                edges = []
                for i, v in enumerate(cycle):
                    w = cycle[(i + 1) % len(cycle)]
                    edges.append(Fact.intra(spec.name, v, w, domain))
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
