"""Reference query evaluation: the evaluator ``query.eval_query`` replaced.

It reads every intra-domain goal through ``FactStore.match`` (a relation
scan, a partition scan or an index entry, each candidate tested by
``FactPattern.matches``), turns each fact into rows of both orientations for
a symmetric relation, and unifies every row with every argument of the goal,
constants included.  Inherit-mode admission is the scan
``query._admitted_domains`` made before it looked up the literal's prefixes:
it tests every domain of the relation with ``is_prefix_of``.  The
differential tests in ``test_query.py`` and ``test_query_plans.py`` hold the
engine to both.
"""

from __future__ import annotations

from cdcgraph.domains import DomainExpr, is_prefix_of
from cdcgraph.errors import StaleClosureError
from cdcgraph.inference import ClosureSet, derived_facts_for, star_pairs
from cdcgraph.query import EXACT, INHERIT, BindingSet, ConceptConst, DomainConst, Query, Variable, _resolve_goal
from cdcgraph.relations import RelationSpec
from cdcgraph.store import Fact, FactPattern, FactStore, swap_orientation


def admitted_domains(store: FactStore, relation: str, literal: DomainExpr, mode: str) -> list[DomainExpr]:
    if mode == EXACT:
        return [literal]
    return [d for d in store.relation_domains(relation) if is_prefix_of(d, literal)] or [literal]


def eval_query(query: Query, store: FactStore, closure: ClosureSet | None = None,
               strict: bool = False) -> BindingSet:
    star, spec = _resolve_goal(query.goal, store.registry)
    rows = (_star_rows if star else _relation_rows)(query, spec, store, closure, strict)

    variables = query.variables
    by_rendered: dict[tuple[str, ...], tuple[object, ...]] = {}
    for row in rows:
        bound = _unify(query, row)
        if bound is None:
            continue
        values = tuple(bound[name] for name in variables)
        by_rendered.setdefault(tuple(map(str, values)), values)
    return BindingSet(variables=variables, solutions=tuple(by_rendered[key] for key in sorted(by_rendered)))


def _unify(query: Query, row: tuple[object, ...]) -> dict[str, object] | None:
    bound: dict[str, object] = {}
    for arg, value in zip(query.args, row):
        if isinstance(arg, Variable):
            if arg.name in bound:
                if bound[arg.name] != value:
                    return None
            else:
                bound[arg.name] = value
        elif isinstance(arg, ConceptConst):
            if value != arg.value:
                return None
        else:
            if not isinstance(value, DomainExpr):
                return None
            if query.domain_mode == INHERIT:
                if not is_prefix_of(value, arg.value):
                    return None
            elif value != arg.value:
                return None
    return bound


def _domain_literals(query: Query, domain_positions: tuple[int, ...]) -> list[DomainExpr | None]:
    literals: list[DomainExpr | None] = []
    for position in domain_positions:
        arg = query.args[position]
        literals.append(arg.value if isinstance(arg, DomainConst) else None)
    return literals


def _fact_rows(fact: Fact, spec: RelationSpec) -> list[tuple[object, ...]]:
    # every shape puts its domain arguments after its concepts
    rows = [fact.concepts + fact.domains]
    if spec.symmetric:
        flipped = swap_orientation(fact, spec)
        if flipped != fact:
            rows.append(flipped.concepts + flipped.domains)
    return rows


def _relation_rows(query: Query, spec: RelationSpec, store: FactStore, closure: ClosureSet | None,
                   strict: bool) -> list[tuple[object, ...]]:
    domain_positions = spec.shape.domain_positions
    # concepts come first in every shape
    concepts = [arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[: domain_positions[0]]]
    literals = _domain_literals(query, domain_positions)

    # pick index-friendly patterns: fix one admitted domain when a literal
    # is present, wildcard otherwise
    patterns: list[FactPattern] = []
    n_domains = len(domain_positions)
    if literals[0] is not None:
        for dom in admitted_domains(store, spec.name, literals[0], query.domain_mode):
            domains = (dom, None) if n_domains == 2 else (dom,)
            patterns.append(FactPattern(spec.name, tuple(concepts), domains))
    elif n_domains == 2 and literals[1] is not None:
        for dom in admitted_domains(store, spec.name, literals[1], query.domain_mode):
            patterns.append(FactPattern(spec.name, tuple(concepts), (None, dom)))
    else:
        patterns.append(FactPattern(spec.name, tuple(concepts), (None,) * n_domains))

    facts: set[Fact] = set()
    for pattern in patterns:
        facts.update(store.match(pattern))
        if spec.symmetric:
            facts.update(store.match(swap_orientation(pattern, spec)))

    if spec.inherits_via is not None:
        _require_current(closure, store, strict, f"derived facts of {spec.name!r}")
        # inheriting relations are intra-domain: each pattern fixes one
        # admitted domain, or none
        subject, obj = concepts
        for pattern in patterns:
            facts.update(derived_facts_for(store, spec.name, pattern.domains[0], subject=subject, obj=obj))

    rows: list[tuple[object, ...]] = []
    for fact in facts:
        rows.extend(_fact_rows(fact, spec))
    return rows


def _star_rows(query: Query, spec: RelationSpec, store: FactStore, closure: ClosureSet | None,
               strict: bool) -> list[tuple[object, ...]]:
    relation = spec.name
    literal = _domain_literals(query, (2,))[0]
    if literal is not None:
        domains = admitted_domains(store, relation, literal, query.domain_mode)
    else:
        domains = store.relation_domains(relation)

    _require_current(closure, store, strict, query.goal)
    subject, obj = (arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[:2])
    rows: list[tuple[object, ...]] = []
    for domain in domains:
        pairs = star_pairs(store, relation, domain, subject=subject, obj=obj)
        for x, y in pairs:
            rows.append((x, y, domain))
    return rows


def _require_current(closure: ClosureSet | None, store: FactStore, strict: bool, what: str) -> None:
    if strict and (closure is None or not closure.is_current(store)):
        raise StaleClosureError(f"closure required for {what}")
