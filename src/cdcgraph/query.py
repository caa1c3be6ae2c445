"""Query DSL: single-goal questions with `?variables` and quoted domains.

    is_a_star(quadratic_function, ?S, "math@algebra")
    analogous_to(neural_network, ?C, "ai@ml", ?D)

Recognized goals are every registered relation, ``<rel>_star`` for each
transitive relation, and three aliases: ``all_prerequisites`` reads
``requires_star``, ``inherited_attributes`` reads ``has_attribute`` and
``analogy_search`` reads ``analogous_to``.  ``_resolve_goal`` is the one
place a goal name is resolved, in that order.  Every goal sees derived facts
next to asserted ones.  Solutions are deduplicated and sorted by their
rendered form, so output order is stable across runs.

One mode, set on the Query rather than in the text: ``domain_mode="inherit"``
lets a query scoped at ``a@b`` also see facts asserted at the more general
``a``.
"""

from __future__ import annotations

from typing import NamedTuple

from .domains import _ATOM_RE, DomainExpr, is_prefix_of, parse_domain
from .errors import DomainSyntaxError, QuerySyntaxError, StaleClosureError
from .inference import ClosureSet, derived_facts_for, star_pairs
from .relations import RelationShape, RelationSpec, star_relation
from .store import ConceptId, Fact, FactPattern, FactStore, swap_orientation

EXACT = "exact"
INHERIT = "inherit"


class Variable(NamedTuple):
    name: str  # without the leading '?'


class ConceptConst(NamedTuple):
    value: ConceptId


class DomainConst(NamedTuple):
    value: DomainExpr


Arg = Variable | ConceptConst | DomainConst


class Query(NamedTuple):
    goal: str
    args: tuple[Arg, ...]
    domain_mode: str = EXACT

    def with_modes(self, domain_mode: str | None = None) -> "Query":
        return self if domain_mode is None else self._replace(domain_mode=domain_mode)

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for arg in self.args:
            if isinstance(arg, Variable) and arg.name not in seen:
                seen.append(arg.name)
        return tuple(seen)


class BindingSet:
    """Deduplicated solutions, one value tuple per solution, aligned with
    ``variables`` and sorted by rendered text.  Immutable.  A plain class,
    not a tuple, since its ``len`` and iteration are over the solutions."""

    __slots__ = ("variables", "solutions")

    def __init__(self, variables: tuple[str, ...], solutions: tuple[tuple[object, ...], ...]) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "solutions", solutions)

    def __setattr__(self, name, value):
        raise AttributeError("BindingSet is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not BindingSet:
            return NotImplemented
        return (self.variables, self.solutions) == (other.variables, other.solutions)

    def __hash__(self) -> int:
        return hash((self.variables, self.solutions))

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


def _render_solution(variables: tuple[str, ...], values: tuple[object, ...]) -> str:
    return ", ".join(f"?{name} = {value}" for name, value in zip(variables, values))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def _scan_atom(text: str, i: int, error: str) -> tuple[str, int]:
    match = _ATOM_RE.match(text, i)
    if match is None:
        raise QuerySyntaxError(error, i)
    return match.group(), match.end()


def parse_query(text: str, registry) -> Query:
    """Parse query text and validate the goal and its arity against the
    registry.  A leading ``?-`` and a trailing ``.`` are tolerated."""
    raw = text
    i = _skip_ws(raw, 0)
    if raw[i : i + 2] == "?-":
        i = _skip_ws(raw, i + 2)
    goal, i = _scan_atom(raw, i, "expected a goal name")
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
            name, i = _scan_atom(raw, i + 1, "expected a variable name after '?'")
            terms.append(("var", name, start))
        elif ch == '"':
            start = i
            end = raw.find('"', i + 1)
            if end < 0:
                raise QuerySyntaxError("unterminated domain literal", i)
            terms.append(("domain", raw[i + 1 : end], start))
            i = end + 1
        else:
            start = i
            atom, i = _scan_atom(raw, i, f"unexpected character {ch!r}")
            terms.append(("atom", atom, start))
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

    star, spec = _resolve_goal(goal, registry)
    # a star goal is intra-shaped, whatever its relation
    shape = RelationShape.INTRA if star else spec.shape
    arity, domain_positions = shape.arity, shape.domain_positions
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
                # the literal's text starts after its opening quote
                raise QuerySyntaxError(f"bad domain: {exc.message}", offset + 1 + exc.offset) from None
        elif not term_text:
            raise QuerySyntaxError("empty concept symbol", offset)
        else:
            try:
                concept = ConceptId(term_text)
            except ValueError as exc:  # a quoted concept holding a line break
                raise QuerySyntaxError(str(exc), offset) from None
            args.append(ConceptConst(concept))
    return Query(goal=goal, args=tuple(args))


# alias -> (the relation it reads, whether it reads the relation's closure)
_ALIASES = {
    "all_prerequisites": ("requires", True),
    "inherited_attributes": ("has_attribute", False),
    "analogy_search": ("analogous_to", False),
}


def _resolve_goal(goal: str, registry) -> tuple[bool, RelationSpec]:
    """(star?, relation) for a goal name: a registered relation first, then
    ``<rel>_star`` over a transitive relation, then an alias.  So a relation
    registered as ``all_prerequisites`` is read by that name only.  The
    registry refuses ``<rel>_star`` as a relation name while ``<rel>`` is
    transitive, so the first two never compete."""
    spec = registry.get(goal)
    if spec is not None:
        return False, spec
    spec = star_relation(registry, goal)
    if spec is not None:
        return True, spec
    if goal in _ALIASES:
        relation, star = _ALIASES[goal]
        spec = registry.get(relation)
        if spec is not None and (spec.transitive or not star):
            return star, spec
    raise QuerySyntaxError(f"unknown goal {goal!r}", 0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_query(
    query: Query,
    store: FactStore,
    closure: ClosureSet | None = None,
    strict: bool = False,
) -> BindingSet:
    """Solutions entailed by asserted and derived facts.  ``strict`` refuses
    lazy evaluation of derived goals when the closure is missing or stale."""
    star, spec = _resolve_goal(query.goal, store.registry)
    rows = (_star_rows if star else _relation_rows)(query, spec, store, closure, strict)

    variables = query.variables
    # one rendering per solution serves both the dedup and the sort
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


def _admitted_domains(store: FactStore, relation: str, literal: DomainExpr, mode: str) -> list[DomainExpr]:
    """The literal alone in exact mode.  In inherit mode, the literal's
    leading prefixes that hold a partition of the relation, sorted by text;
    the literal alone when none does."""
    if mode == EXACT:
        return [literal]
    # each prefix's text leads the next one's, so they come sorted by text;
    # parse_domain is memoized, so a prefix seen before costs one lookup
    parts = literal.text.split("@")
    prefixes = [parse_domain("@".join(parts[:k])) for k in range(1, len(parts))] + [literal]
    return [d for d in prefixes if store.has_partition(relation, d)] or [literal]


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
    subject, obj = (arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[:2])
    rows: list[tuple[object, ...]] = []
    for domain in domains:
        pairs = star_pairs(store, relation, domain, subject=subject, obj=obj)
        for x, y in pairs:
            rows.append((x, y, domain))
    return rows


def _require_current(closure: ClosureSet | None, store: FactStore, strict: bool, what: str) -> None:
    """``strict`` evaluation refuses a missing or stale closure; otherwise
    derived goals are answered from the store alone, as the closure would."""
    if strict and (closure is None or not closure.is_current(store)):
        raise StaleClosureError(f"closure required for {what}")
