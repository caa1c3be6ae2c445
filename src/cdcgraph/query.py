"""Query DSL: single-goal questions with `?variables` and quoted domains.

    is_a_star(quadratic_function, ?S, "math@algebra")
    analogous_to(neural_network, ?C, "ai@ml", ?D)

Recognized goals are every registered relation, ``<rel>_star`` for each
transitive relation, and the derived forms ``all_prerequisites``,
``inherited_attributes``, and ``analogy_search``.  Solutions are
deduplicated and sorted by their rendered form, so output order is stable
across runs.

Two mode axes (set on the Query, not in the text): ``include_derived``
admits closure facts next to asserted ones, and ``domain_mode="inherit"``
lets a query scoped at ``a@b`` also see facts asserted at the more general
``a``.  Derived goals (star forms, inherited_attributes, analogy_search)
always consult derivations - that is what they are for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .domains import _ATOM_CONT, _ATOM_START, DomainExpr, is_prefix_of, parse_domain
from .errors import DomainSyntaxError, QuerySyntaxError, StaleClosureError
from .inference import ClosureSet, base_of_star, derived_facts_for, star_pairs
from .relations import RelationShape, RelationSpec
from .store import ConceptId, Fact, FactPattern, FactStore, swap_orientation

EXACT = "exact"
INHERIT = "inherit"


@dataclass(frozen=True)
class Variable:
    name: str  # without the leading '?'


@dataclass(frozen=True)
class ConceptConst:
    value: ConceptId


@dataclass(frozen=True)
class DomainConst:
    value: DomainExpr


Arg = Variable | ConceptConst | DomainConst


@dataclass(frozen=True)
class Query:
    goal: str
    args: tuple[Arg, ...]
    include_derived: bool = True
    domain_mode: str = EXACT

    def with_modes(self, include_derived: bool | None = None, domain_mode: str | None = None) -> "Query":
        q = self
        if include_derived is not None:
            q = replace(q, include_derived=include_derived)
        if domain_mode is not None:
            q = replace(q, domain_mode=domain_mode)
        return q

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for arg in self.args:
            if isinstance(arg, Variable) and arg.name not in seen:
                seen.append(arg.name)
        return tuple(seen)


@dataclass(frozen=True)
class BindingSet:
    """Deduplicated solutions, one value tuple per solution, aligned with
    ``variables`` and sorted by rendered text."""

    variables: tuple[str, ...]
    solutions: tuple[tuple[object, ...], ...]

    def __len__(self) -> int:
        return len(self.solutions)

    def __bool__(self) -> bool:
        return bool(self.solutions)

    def __iter__(self):
        for values in self.solutions:
            yield dict(zip(self.variables, values))

    def render_lines(self) -> list[str]:
        if not self.variables:
            return ["true"] if self.solutions else []
        return [_render_solution(self.variables, values) for values in self.solutions]


def _render_value(value: object) -> str:
    if isinstance(value, DomainExpr):
        return value.text
    return str(value)


def _render_solution(variables: tuple[str, ...], values: tuple[object, ...]) -> str:
    return ", ".join(f"?{name} = {_render_value(value)}" for name, value in zip(variables, values))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DERIVED_GOALS = ("all_prerequisites", "inherited_attributes", "analogy_search")


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def _scan_atom(text: str, i: int) -> tuple[str, int]:
    start = i
    i += 1
    while i < len(text) and text[i] in _ATOM_CONT:
        i += 1
    return text[start:i], i


def parse_query(text: str, registry) -> Query:
    """Parse query text and validate the goal and its arity against the
    registry.  A leading ``?-`` and a trailing ``.`` are tolerated."""
    raw = text
    i = _skip_ws(raw, 0)
    if raw[i : i + 2] == "?-":
        i = _skip_ws(raw, i + 2)
    if i >= len(raw) or raw[i] not in _ATOM_START:
        raise QuerySyntaxError("expected a goal name", i)
    goal, i = _scan_atom(raw, i)
    i = _skip_ws(raw, i)
    if i >= len(raw) or raw[i] != "(":
        raise QuerySyntaxError("expected '('", i)
    i += 1
    terms: list[tuple[str, str, int]] = []  # (kind, text, offset)
    while True:
        i = _skip_ws(raw, i)
        if i >= len(raw):
            raise QuerySyntaxError("unterminated query", i)
        ch = raw[i]
        if ch == "?":
            start = i
            i += 1
            if i >= len(raw) or raw[i] not in _ATOM_START:
                raise QuerySyntaxError("expected a variable name after '?'", i)
            name, i = _scan_atom(raw, i)
            terms.append(("var", name, start))
        elif ch == '"':
            start = i
            end = raw.find('"', i + 1)
            if end < 0:
                raise QuerySyntaxError("unterminated domain literal", i)
            terms.append(("domain", raw[i + 1 : end], start))
            i = end + 1
        elif ch in _ATOM_START:
            start = i
            atom, i = _scan_atom(raw, i)
            terms.append(("atom", atom, start))
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", i)
        i = _skip_ws(raw, i)
        if i < len(raw) and raw[i] == ",":
            i += 1
            continue
        if i < len(raw) and raw[i] == ")":
            i += 1
            break
        raise QuerySyntaxError("expected ',' or ')'", i)
    i = _skip_ws(raw, i)
    if i < len(raw) and raw[i] == ".":
        i = _skip_ws(raw, i + 1)
    if i < len(raw):
        raise QuerySyntaxError(f"trailing input {raw[i]!r}", i)
    if not terms:
        raise QuerySyntaxError("query needs at least one argument", 0)

    kind, spec = _resolve_goal(goal, registry)
    arity, domain_positions = _goal_signature(kind, spec)
    if len(terms) != arity:
        raise QuerySyntaxError(f"{goal} takes {arity} arguments, got {len(terms)}", 0)

    args: list[Arg] = []
    for position, (term_kind, term_text, offset) in enumerate(terms):
        if term_kind == "var":
            args.append(Variable(term_text))
        elif position in domain_positions:
            try:
                args.append(DomainConst(parse_domain(term_text)))
            except DomainSyntaxError as exc:
                raise QuerySyntaxError(f"bad domain: {exc}", offset) from None
        else:
            args.append(ConceptConst(ConceptId(term_text)))
    return Query(goal=goal, args=tuple(args))


def _resolve_goal(goal: str, registry) -> tuple[str, RelationSpec]:
    spec = registry.get(goal)
    if spec is not None:
        return "relation", spec
    base = base_of_star(goal)
    if base is not None:
        base_spec = registry.get(base)
        if base_spec is not None and base_spec.transitive:
            return "star", base_spec
    if goal == "all_prerequisites":
        requires = registry.get("requires")
        if requires is not None and requires.transitive:
            return "star", requires
    if goal == "inherited_attributes":
        attr = registry.get("has_attribute")
        if attr is not None:
            return "inherited", attr
    if goal == "analogy_search":
        analogy = registry.get("analogous_to")
        if analogy is not None:
            return "relation", analogy
    raise QuerySyntaxError(f"unknown goal {goal!r}", 0)


def _goal_signature(kind: str, spec: RelationSpec) -> tuple[int, tuple[int, ...]]:
    if kind == "relation":
        return spec.shape.arity, spec.shape.domain_positions
    # star and inherited goals are (concept, concept, domain)
    return 3, (2,)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_query(
    query: Query,
    store: FactStore,
    closure: ClosureSet | None = None,
    strict: bool = False,
) -> BindingSet:
    """Solutions entailed by asserted facts plus, per the query's modes,
    derived facts.  ``strict`` refuses lazy evaluation of derived goals when
    the closure is missing or stale."""
    kind, spec = _resolve_goal(query.goal, store.registry)
    if kind == "relation":
        rows = _relation_rows(query, spec, store, closure, strict)
    elif kind == "inherited":
        forced = query.with_modes(include_derived=True)
        rows = _relation_rows(forced, spec, store, closure, strict)
    else:
        rows = _star_rows(query, spec, store, closure, strict)

    variables = query.variables
    rendered_seen: set[tuple[str, ...]] = set()
    solutions: list[tuple[object, ...]] = []
    for row in rows:
        bound = _unify(query, row)
        if bound is None:
            continue
        values = tuple(bound[name] for name in variables)
        key = tuple(_render_value(v) for v in values)
        if key not in rendered_seen:
            rendered_seen.add(key)
            solutions.append(values)
    solutions.sort(key=lambda values: tuple(_render_value(v) for v in values))
    return BindingSet(variables=variables, solutions=tuple(solutions))


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


def _admitted_domains(store: FactStore, relation: str, literal: DomainExpr, mode: str) -> list[DomainExpr]:
    if mode == EXACT:
        return [literal]
    return [d for d in store.relation_domains(relation) if is_prefix_of(d, literal)] or [literal]


def _fact_rows(fact: Fact, spec: RelationSpec) -> list[tuple[object, ...]]:
    # every shape puts its domain arguments after its concepts
    rows = [fact.concepts + fact.domains]
    if spec.symmetric:
        flipped = swap_orientation(fact, spec)
        if flipped != fact:
            rows.append(flipped.concepts + flipped.domains)
    return rows


def _relation_rows(
    query: Query,
    spec: RelationSpec,
    store: FactStore,
    closure: ClosureSet | None,
    strict: bool,
) -> list[tuple[object, ...]]:
    domain_positions = spec.shape.domain_positions
    # concepts come first in every shape
    concepts = [arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[: domain_positions[0]]]
    literals = _domain_literals(query, domain_positions)

    # pick index-friendly patterns: fix one admitted domain when a literal
    # is present, wildcard otherwise
    patterns: list[FactPattern] = []
    n_domains = len(domain_positions)
    if literals[0] is not None:
        for dom in _admitted_domains(store, spec.name, literals[0], query.domain_mode):
            domains = (dom, None) if n_domains == 2 else (dom,)
            patterns.append(FactPattern(spec.name, tuple(concepts), domains))
    elif n_domains == 2 and literals[1] is not None:
        for dom in _admitted_domains(store, spec.name, literals[1], query.domain_mode):
            patterns.append(FactPattern(spec.name, tuple(concepts), (None, dom)))
    else:
        patterns.append(FactPattern(spec.name, tuple(concepts), (None,) * n_domains))

    facts: set[Fact] = set()
    for pattern in patterns:
        facts.update(store.match(pattern))
        if spec.symmetric:
            flipped_concepts = list(pattern.concepts)
            flipped_concepts[0], flipped_concepts[1] = flipped_concepts[1], flipped_concepts[0]
            flipped_domains = pattern.domains
            if spec.shape is RelationShape.CROSS:
                flipped_domains = (pattern.domains[1], pattern.domains[0])
            facts.update(store.match(FactPattern(spec.name, tuple(flipped_concepts), flipped_domains)))

    if query.include_derived and spec.inherits_via is not None:
        _require_current(closure, store, strict, f"derived facts of {spec.name!r}")
        # inheriting relations are intra-domain: each pattern fixes one
        # admitted domain, or none
        for pattern in patterns:
            facts.update(derived_facts_for(store, spec.name, pattern.domains[0]))

    rows: list[tuple[object, ...]] = []
    for fact in sorted(facts, key=Fact.sort_key):
        rows.extend(_fact_rows(fact, spec))
    return rows


def _star_rows(
    query: Query,
    spec: RelationSpec,
    store: FactStore,
    closure: ClosureSet | None,
    strict: bool,
) -> list[tuple[object, ...]]:
    relation = spec.name
    literal = _domain_literals(query, (2,))[0]
    if literal is not None:
        domains = _admitted_domains(store, relation, literal, query.domain_mode)
    else:
        domains = store.relation_domains(relation)

    _require_current(closure, store, strict, query.goal)
    rows: list[tuple[object, ...]] = []
    for domain in domains:
        for x, y in sorted(star_pairs(store, relation, domain), key=lambda p: (p[0].symbol, p[1].symbol)):
            rows.append((x, y, domain))
    return rows


def _require_current(closure: ClosureSet | None, store: FactStore, strict: bool, what: str) -> None:
    """``strict`` evaluation refuses a missing or stale closure; otherwise
    derived goals are answered from the store alone, as the closure would."""
    if strict and (closure is None or not closure.is_current(store)):
        raise StaleClosureError(f"closure required for {what}")
