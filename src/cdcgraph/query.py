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

import re
from itertools import product
from typing import NamedTuple

from .domains import _ATOM_RE, DomainExpr, parse_domain
from .errors import DomainSyntaxError, QuerySyntaxError, StaleClosureError
from .inference import ClosureSet, derived_facts_for, star_pairs
from .relations import RelationShape, RelationSpec, star_relation
from .store import ConceptId, FactPattern, FactStore, swap_orientation

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

# A whole well-formed query: an optional ``?-``, the goal, three or four
# terms, each ``?atom``, ``"..."`` or a bare atom, an optional ``.``, and only
# the blanks ``_skip_ws`` takes.  Group 1 is the goal and groups 2 to 5 the
# terms.  It only tokenizes: its terms feed the builder that the hand parser
# feeds, and text it does not take whole goes to the hand parser, so every
# error comes from one grammar.
_BLANKS = r"[ \t\r\n]*"
_ATOM = _ATOM_RE.pattern
_TERM = rf'(\??{_ATOM}|"[^"]*")'
_QUERY_RE = re.compile(
    rf"{_BLANKS}(?:\?-{_BLANKS})?({_ATOM}){_BLANKS}\({_BLANKS}{_TERM}{_BLANKS},{_BLANKS}{_TERM}{_BLANKS},{_BLANKS}"
    rf"{_TERM}{_BLANKS}(?:,{_BLANKS}{_TERM}{_BLANKS})?\){_BLANKS}(?:\.{_BLANKS})?"
)
# a term's kind and its text by its first character
_TERM_KINDS = {"?": ("var", slice(1, None)), '"': ("domain", slice(1, -1))}
_BARE_TERM = ("atom", slice(None))


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
    match = _QUERY_RE.fullmatch(text)
    if match is None:
        goal, terms = _scan_terms(text)
    else:
        goal, terms = match.group(1), []
        for group in range(2, match.lastindex + 1):
            term = match.group(group)
            kind, inner = _TERM_KINDS.get(term[0], _BARE_TERM)
            terms.append((kind, term[inner], match.start(group)))
    return _build_query(goal, terms, registry)


def _scan_terms(raw: str) -> tuple[str, list[tuple[str, str, int]]]:
    """The goal and its (kind, text, offset) terms, read character by
    character; raises ``QuerySyntaxError`` where the text leaves the grammar."""
    i = _skip_ws(raw, 0)
    if raw[i : i + 2] == "?-":
        i = _skip_ws(raw, i + 2)
    goal, i = _scan_atom(raw, i, "expected a goal name")
    i = _skip_ws(raw, i)
    if i >= len(raw) or raw[i] != "(":
        raise QuerySyntaxError("expected '('", i)
    i += 1
    terms: list[tuple[str, str, int]] = []
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
    return goal, terms


def _build_query(goal: str, terms: list[tuple[str, str, int]], registry) -> Query:
    """The query of a goal and its terms, checked against the registry."""
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
    lazy evaluation of derived goals when the closure is missing or stale.

    The goal's shape picks the reader: an intra-domain relation reads its
    index entries (``_intra_rows``), a star goal ``star_pairs``, and a cross
    or fusion goal goes through ``match``.  Every reader fixes the goal's
    constants, so its rows are only projected onto the variables."""
    star, spec = _resolve_goal(query.goal, store.registry)
    if strict and (star or spec.inherits_via is not None) and (closure is None or not closure.is_current(store)):
        what = query.goal if star else f"derived facts of {spec.name!r}"
        raise StaleClosureError(f"closure required for {what}")
    shape = RelationShape.INTRA if star else spec.shape
    if len(query.args) != shape.arity:  # only a hand-built query gets here
        raise QuerySyntaxError(f"{query.goal} takes {shape.arity} arguments, got {len(query.args)}", 0)
    first: dict[str, int] = {}  # each variable's first position
    repeats: list[tuple[int, int]] = []  # (first position, a later one)
    mismatched = False  # a hand-built constant of the other kind, which no value equals
    for position, arg in enumerate(query.args):
        if isinstance(arg, Variable):
            if arg.name in first:
                repeats.append((first[arg.name], position))
            else:
                first[arg.name] = position
        elif isinstance(arg, DomainConst) is not (position in shape.domain_positions):
            mismatched = True
    reader = _star_rows if star else _intra_rows if spec.shape is RelationShape.INTRA else _matched_rows
    rows = () if mismatched else reader(query, spec, store)
    picks = tuple(first.values())
    # one rendering per solution serves both the dedup and the sort
    by_rendered: dict[tuple[str, ...], tuple[object, ...]] = {}
    for row in rows:
        if repeats and any(row[a] != row[b] for a, b in repeats):
            continue
        values = tuple([row[p] for p in picks])
        by_rendered.setdefault(tuple(map(str, values)), values)
    return BindingSet(variables=tuple(first), solutions=tuple(by_rendered[key] for key in sorted(by_rendered)))


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


def _read_domains(query: Query, store: FactStore, relation: str) -> list[DomainExpr]:
    """The domains an intra-shaped goal reads: those its literal admits, else all the relation's."""
    arg = query.args[2]
    if isinstance(arg, DomainConst):
        return _admitted_domains(store, relation, arg.value, query.domain_mode)
    return store.relation_domains(relation)


def _intra_rows(query: Query, spec: RelationSpec, store: FactStore) -> list[tuple]:
    """(subject, object, domain) rows from the bound subject's successor
    entry, else the bound object's predecessor entry, else the whole
    partition.  A symmetric relation's facts are stored in one orientation,
    so it reads the other index too; an inheriting relation adds the lazy
    reads' derived facts, which come in both orientations when symmetric."""
    relation, symmetric = spec.name, spec.symmetric
    subject, obj = (arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[:2])
    rows: list[tuple] = []
    for domain in _read_domains(query, store, relation):
        ahead, behind = store.successors(relation, domain), store.predecessors(relation, domain)
        if subject is not None:
            ends = [*ahead.get(subject, ()), *behind.get(subject, ())] if symmetric else ahead.get(subject, ())
            rows += [(subject, y, domain) for y in ends if obj is None or y == obj]
        elif obj is not None:
            ends = [*behind.get(obj, ()), *ahead.get(obj, ())] if symmetric else behind.get(obj, ())
            rows += [(x, obj, domain) for x in ends]
        else:
            rows += [(x, y, domain) for x, row in ahead.items() for y in row]
            rows += [(y, x, domain) for x, row in ahead.items() for y in row] if symmetric else []
        if spec.inherits_via is not None:
            derived = derived_facts_for(store, relation, domain, subject=subject, obj=obj)
            rows += [(*fact.concepts, domain) for fact in derived]
    return rows


def _star_rows(query: Query, spec: RelationSpec, store: FactStore) -> list[tuple]:
    subject, obj = (arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[:2])
    return [(x, y, domain) for domain in _read_domains(query, store, spec.name)
            for x, y in star_pairs(store, spec.name, domain, subject=subject, obj=obj)]


def _matched_rows(query: Query, spec: RelationSpec, store: FactStore) -> list[tuple]:
    """Cross and fusion goals: the facts ``match`` gives for the goal's
    concepts and each combination of admitted domains, as concepts then
    domains.  A symmetric relation also matches the reversed pattern and
    turns those facts round."""
    n_concepts = spec.shape.domain_positions[0]
    concepts = tuple(arg.value if isinstance(arg, ConceptConst) else None for arg in query.args[:n_concepts])
    admitted = [_admitted_domains(store, spec.name, arg.value, query.domain_mode) if isinstance(arg, DomainConst)
                else [None] for arg in query.args[n_concepts:]]
    rows: list[tuple] = []
    for domains in product(*admitted):
        pattern = FactPattern(spec.name, concepts, domains)
        facts = list(store.match(pattern))
        if spec.symmetric:
            facts += [swap_orientation(fact, spec) for fact in store.match(swap_orientation(pattern, spec))]
        rows += [fact.concepts + fact.domains for fact in facts]
    return rows
