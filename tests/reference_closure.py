"""The semi-naive fixpoint (Bancilhon & Ramakrishnan 1986) that computed
``cdcgraph.inference.materialize`` before the per-domain bitset kernel, kept
unchanged as the differential reference for it.

Each round joins only the facts derived in the previous round against the
accumulated total; every candidate records the rule and premises that first
produced it, ties broken by ``(rule, premise sort keys)``.
"""

from __future__ import annotations

from cdcgraph.consistency import ensure_acyclic
from cdcgraph.domains import DomainExpr
from cdcgraph.inference import (
    RULE_INHERITANCE,
    RULE_SYMMETRIC,
    RULE_TRANSITIVE,
    ClosureSet,
    DerivationTrace,
    star_label,
)
from cdcgraph.relations import RelationRegistry, base_of_star
from cdcgraph.store import ConceptId, Fact, FactStore, swap_orientation


def _intra_shaped(fact: Fact) -> bool:
    return len(fact.concepts) == 2 and len(fact.domains) == 1


def reference_materialize(store: FactStore, registry: RelationRegistry | None = None) -> ClosureSet:
    """Compute the full fixpoint.  Raises CycleError if an acyclic relation
    contains a cycle (checked up front, per relation and domain)."""
    registry = registry or store.registry
    ensure_acyclic(store, registry)

    transitive = {spec.name for spec in registry if spec.transitive}
    inheritors_by_carrier: dict[str, list[str]] = {}
    for spec in registry:
        if spec.inherits_via is not None:
            inheritors_by_carrier.setdefault(spec.inherits_via, []).append(spec.name)

    present: set[Fact] = set()
    fwd: dict[tuple[str, DomainExpr], dict[ConceptId, list[Fact]]] = {}
    rev: dict[tuple[str, DomainExpr], dict[ConceptId, list[Fact]]] = {}
    traces: dict[Fact, DerivationTrace] = {}

    def add(fact: Fact) -> None:
        present.add(fact)
        if _intra_shaped(fact):
            key = (fact.relation, fact.domains[0])
            fwd.setdefault(key, {}).setdefault(fact.concepts[0], []).append(fact)
            rev.setdefault(key, {}).setdefault(fact.concepts[1], []).append(fact)

    asserted = store.facts()
    for fact in asserted:
        add(fact)

    delta: list[Fact] = list(asserted)
    while delta:
        candidates: dict[Fact, tuple[str, tuple[Fact, ...]]] = {}

        def propose(fact: Fact, rule: str, premises: tuple[Fact, ...]) -> None:
            if fact in present:
                return
            key = (rule, tuple(p.sort_key() for p in premises))
            best = candidates.get(fact)
            if best is None or key < (best[0], tuple(p.sort_key() for p in best[1])):
                candidates[fact] = (rule, premises)

        for f in delta:
            label = f.relation
            spec = registry.get(label)
            if spec is not None and spec.symmetric:
                propose(swap_orientation(f, spec), RULE_SYMMETRIC, (f,))
            if not _intra_shaped(f):
                continue
            d = f.domains[0]
            x, y = f.concepts

            if spec is not None and spec.transitive:
                out = star_label(label)
                # new edge as first body: join with star-or-edge facts out of y
                for g in fwd.get((label, d), {}).get(y, ()):
                    propose(Fact(out, (x, g.concepts[1]), (d,)), RULE_TRANSITIVE, (f, g))
                for g in fwd.get((out, d), {}).get(y, ()):
                    propose(Fact(out, (x, g.concepts[1]), (d,)), RULE_TRANSITIVE, (f, g))
                # new edge as second body (one-hop star base): join edges into x
                for e in rev.get((label, d), {}).get(x, ()):
                    propose(Fact(out, (e.concepts[0], y), (d,)), RULE_TRANSITIVE, (e, f))

            base = base_of_star(label)
            if base is not None and base in transitive:
                # new multi-hop star fact as second body
                for e in rev.get((base, d), {}).get(x, ()):
                    propose(Fact(label, (e.concepts[0], y), (d,)), RULE_TRANSITIVE, (e, f))

            if spec is not None and label in inheritors_by_carrier:
                # new carrier edge: pull attributes down from y to x
                for attr_rel in inheritors_by_carrier[label]:
                    for g in fwd.get((attr_rel, d), {}).get(y, ()):
                        propose(Fact(attr_rel, (x, g.concepts[1]), (d,)), RULE_INHERITANCE, (f, g))

            if spec is not None and spec.inherits_via is not None:
                # new attribute fact: push down to carrier children of its subject
                for e in rev.get((spec.inherits_via, d), {}).get(x, ()):
                    propose(Fact(label, (e.concepts[0], y), (d,)), RULE_INHERITANCE, (e, f))

        delta = sorted(candidates, key=Fact.sort_key)
        for fact in delta:
            rule, premises = candidates[fact]
            traces[fact] = DerivationTrace(rule, premises)
            add(fact)

    derived_by_label: dict[str, set[Fact]] = {}
    asserted_set = store.fact_set()
    for fact in present:
        if fact not in asserted_set:
            derived_by_label.setdefault(fact.relation, set()).add(fact)
    return ClosureSet(
        generation=store.generation,
        derived={label: frozenset(facts) for label, facts in sorted(derived_by_label.items())},
        traces=traces,
    )
