"""Answers computed apart from the program, over plain-tuple facts.

A fact is ``(relation, concepts, domains)`` holding strings only, with
symmetric facts in the canonical orientation the store keeps.  Nothing here
imports ``cdcgraph``: reachability is breadth-first search, inheritance is
"own attributes plus those of every ``is_a`` ancestor", prerequisite order is
Kahn's algorithm with a min-heap, and the lint count is a full Levenshtein
table.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

TRANSITIVE = ("is_a", "part_of", "requires", "evolves_to")
SYMMETRIC_INTRA = ("contrasts_with", "conflicts_with")
CROSS = ("analogous_to",)
FUSION = ("fuses_with",)


@dataclass
class Query:
    """One query of the benchmark: its class, its text and domain mode, and
    the oracle's answer (solutions as tuples of rendered values, sorted)."""

    cls: str
    text: str
    mode: str = "exact"
    expected: list | None = None


def is_prefix(general: str, specific: str) -> bool:
    g, s = general.split("@"), specific.split("@")
    return len(g) <= len(s) and s[: len(g)] == g


def flip(fact: tuple) -> tuple:
    """The other orientation of a symmetric fact."""
    relation, concepts, domains = fact
    if relation in CROSS:
        return relation, (concepts[1], concepts[0]), (domains[1], domains[0])
    return relation, (concepts[1], concepts[0]) + concepts[2:], domains


def parse(text: str) -> tuple[str, list[str]]:
    """Split a generated goal ``name(a, ?B, "d")`` into name and arguments."""
    name, rest = text.split("(", 1)
    return name, [a.strip() for a in rest.rstrip(")").split(",")]


class Model:
    """A mirror of the KB: fact set plus per (relation, domain) adjacency."""

    def __init__(self, facts=()):
        self.facts: set[tuple] = set()
        self.adj: dict[tuple[str, str], dict[str, set[str]]] = {}
        self._reach: dict[tuple[str, str], dict[str, set[str]]] = {}
        for fact in facts:
            self.add(fact)

    def copy(self) -> "Model":
        return Model(self.facts)

    def has(self, fact: tuple) -> bool:
        return fact in self.facts

    def add(self, fact: tuple) -> None:
        self.facts.add(fact)
        relation, concepts, domains = fact
        if len(concepts) == 2 and len(domains) == 1:
            self.adj.setdefault((relation, domains[0]), {}).setdefault(concepts[0], set()).add(concepts[1])
            self._reach.pop((relation, domains[0]), None)

    def remove(self, fact: tuple) -> None:
        self.facts.discard(fact)
        relation, concepts, domains = fact
        if len(concepts) == 2 and len(domains) == 1:
            succ = self.adj[(relation, domains[0])][concepts[0]]
            succ.discard(concepts[1])
            if not succ:
                del self.adj[(relation, domains[0])][concepts[0]]
            if not self.adj[(relation, domains[0])]:
                del self.adj[(relation, domains[0])]
            self._reach.pop((relation, domains[0]), None)

    # -- graph views -------------------------------------------------------

    def edges(self, relation: str, domain: str) -> set[tuple[str, str]]:
        return {(a, b) for a, succ in self.adj.get((relation, domain), {}).items() for b in succ}

    def nodes(self, relation: str, domain: str) -> set[str]:
        adj = self.adj.get((relation, domain), {})
        return set(adj) | {b for succ in adj.values() for b in succ}

    def relation_facts(self, relation: str, domain: str) -> set[tuple]:
        return {(relation, e, (domain,)) for e in self.edges(relation, domain)}

    def domains(self, relation: str | None = None) -> set[str]:
        if relation is not None:
            return {d for (r, d) in self.adj if r == relation}
        return {d for f in self.facts for d in f[2]}

    def distances(self, relation: str, domain: str, start: str) -> dict[str, int]:
        """BFS hop counts of every node reachable in one or more hops."""
        adj = self.adj.get((relation, domain), {})
        dist: dict[str, int] = {}
        frontier = deque((b, 1) for b in adj.get(start, ()))
        while frontier:
            node, d = frontier.popleft()
            if node in dist:
                continue
            dist[node] = d
            frontier.extend((b, d + 1) for b in adj.get(node, ()) if b not in dist)
        return dist

    def reach(self, relation: str, domain: str, start: str) -> set[str]:
        cache = self._reach.setdefault((relation, domain), {})
        if start not in cache:
            cache[start] = set(self.distances(relation, domain, start))
        return cache[start]

    def own_attributes(self, domain: str, node: str) -> set[str]:
        return set(self.adj.get(("has_attribute", domain), {}).get(node, ()))

    def attributes(self, domain: str, node: str) -> set[str]:
        out = self.own_attributes(domain, node)
        for ancestor in self.reach("is_a", domain, node):
            out |= self.own_attributes(domain, ancestor)
        return out

    def analogy_concepts(self) -> set[str]:
        return {c for f in self.facts if f[0] in CROSS for c in f[1]}

    # -- queries -----------------------------------------------------------

    def _rows(self, name: str, args: list[str], admitted) -> list[tuple]:
        if name.endswith("_star") or name == "all_prerequisites":
            relation = "requires" if name == "all_prerequisites" else name[: -len("_star")]
            rows = []
            for d in admitted(relation):
                starts = [args[0]] if not args[0].startswith("?") else sorted(self.nodes(relation, d))
                rows += [(x, y, d) for x in starts for y in self.reach(relation, d, x)]
            return rows
        if name in ("has_attribute", "inherited_attributes"):
            return [(args[0], a, d) for d in admitted("is_a") | admitted("has_attribute")
                    for a in self.attributes(d, args[0])]
        if name in ("analogy_search",) + CROSS:
            rows = []
            for fact in self.facts:
                if fact[0] in CROSS:
                    for f in (fact, flip(fact)):
                        rows.append(f[1] + f[2])
            return rows
        rows = []
        for d in admitted(name):
            for fact in self.relation_facts(name, d):
                rows.append(fact[1] + fact[2])
                if name in SYMMETRIC_INTRA:
                    rows.append(flip(fact)[1] + fact[2])
        return rows

    def answer(self, query: Query) -> list[tuple]:
        """Solutions: one tuple of rendered values per distinct binding of
        the query's variables (in order of first appearance), sorted."""
        name, args = parse(query.text)
        literals = [a.strip('"') for a in args if a.startswith('"')]

        def admitted(relation: str) -> set[str]:
            if not literals:
                return self.domains(relation)
            if query.mode == "inherit":
                return {d for d in self.domains(relation) if is_prefix(d, literals[0])} | {literals[0]}
            return {literals[0]}

        variables = list(dict.fromkeys(a for a in args if a.startswith("?")))
        solutions = set()
        for row in self._rows(name, args, admitted):
            bound: dict[str, str] = {}
            for arg, value in zip(args, row):
                if arg.startswith("?"):
                    if bound.setdefault(arg, value) != value:
                        break
                elif arg.startswith('"'):
                    want = arg.strip('"')
                    if not (is_prefix(value, want) if query.mode == "inherit" else value == want):
                        break
                elif arg != value:
                    break
            else:
                solutions.add(tuple(bound[v] for v in variables))
        return sorted(solutions)


# ---------------------------------------------------------------------------
# Whole-KB oracles for check and materialize
# ---------------------------------------------------------------------------

def expected_closure(model: Model) -> dict:
    """What materialize must produce, per kind:

    ``star``: (relation, domain) -> all pairs reachable in >= 1 hop;
    ``inherited``: domain -> {(node, attribute)} over each node and its ancestors;
    ``symmetric``: the flips of stored symmetric facts.
    """
    star = {}
    for (relation, domain) in list(model.adj):
        if relation in TRANSITIVE:
            star[(relation, domain)] = {(x, y) for x in model.nodes(relation, domain)
                                       for y in model.reach(relation, domain, x)}
    inherited = {}
    for domain in model.domains("has_attribute"):
        nodes = model.nodes("is_a", domain) | model.nodes("has_attribute", domain)
        inherited[domain] = {(x, a) for x in nodes for a in model.attributes(domain, x)}
    symmetric = {flip(f) for f in model.facts
                 if f[0] in SYMMETRIC_INTRA + CROSS + FUSION and flip(f) != f}
    return {"star": star, "inherited": inherited, "symmetric": symmetric}


def witness_count(facts) -> int:
    """Separation witnesses: pairs of intra facts with the same relation and
    subject but a different domain and a different object."""
    groups: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for relation, concepts, domains in facts:
        if len(concepts) == 2 and len(domains) == 1:
            groups.setdefault((relation, concepts[0]), []).append((domains[0], concepts[1]))
    count = 0
    for group in groups.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[i][0] != group[j][0] and group[i][1] != group[j][1]:
                    count += 1
    return count


def levenshtein(a: str, b: str) -> int:
    table = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[len(a)][len(b)]


def lint_count(domains) -> int:
    """Domain lints: one per group of case-only variants, one per other
    pair within edit distance 2.  Pairs whose lengths differ by more than 2
    are skipped: their distance is at least that difference."""
    texts = sorted(domains)
    folded: dict[str, int] = {}
    for t in texts:
        folded[t.lower()] = folded.get(t.lower(), 0) + 1
    count = sum(1 for n in folded.values() if n > 1)
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = texts[i], texts[j]
            if abs(len(a) - len(b)) <= 2 and a.lower() != b.lower() and levenshtein(a, b) <= 2:
                count += 1
    return count


def prerequisite_order(model: Model, domain: str, target: str) -> list[str]:
    """Kahn's algorithm over the prerequisites of ``target``: a node is ready
    once everything it requires is placed; the smallest ready node goes next."""
    prereqs = model.reach("requires", domain, target)
    waiting = {n: len(model.adj.get(("requires", domain), {}).get(n, set()) & prereqs) for n in prereqs}
    needed_by: dict[str, list[str]] = {}
    for n in prereqs:
        for dep in model.adj.get(("requires", domain), {}).get(n, set()) & prereqs:
            needed_by.setdefault(dep, []).append(n)
    ready = [n for n, k in waiting.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in needed_by.get(n, ()):
            waiting[m] -= 1
            if waiting[m] == 0:
                heapq.heappush(ready, m)
    return order
