"""Fact-file format: Prolog-style clauses with explicit domain arguments.

    % comment to end of line
    @relation triggers intra transitive acyclic.
    is_a(apple, fruit, "Biology@Plant_Taxonomy").
    analogous_to(atom, solar_system, "Physics@Atomic", "Astronomy@Planetary").

Terms are bare atoms or quoted strings (single or double quotes); which
argument positions are domains follows from the relation's registered shape.
``@relation`` directives must precede facts that use them and may override a
built-in declaration; one that would change the declaration of a relation
the store already holds facts of is an error, and the old one stays.

The reader also accepts the ISO-Prolog interop export this module writes:
``:- ...`` directives and rule clauses (``head :- body.``) are skipped
without diagnostics, so re-parsing an export recovers exactly the facts.

Loading is resilient: every problem becomes a diagnostic with a source span
and the loader moves on to the next clause.

Most clauses are one-line facts.  The reader tokenizes each of those whole,
with one pattern; everything else (directives, comments inside a clause,
clauses over several lines, rule clauses and malformed ones) goes to the
token parser.  Both give the same clause terms, and one builder checks the
relation, arity, concepts and domains and makes the fact, so a clause reads
the same, diagnostics included, whichever way it was tokenized.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .domains import _ATOM_CHAR, _ATOM_FIRST, DomainExpr, parse_domain
from .errors import CdcError, CycleError, DomainSyntaxError, RegistryError
from .relations import RELATION_FLAGS, SHAPE_NAMES, RelationRegistry, RelationShape, RelationSpec, builtin_specs
from .relations import spec_with_flags, star_label, star_relation
from .store import ConceptId, Fact, FactStore

CASESTUDY_NAMES = ("cbt", "education", "enterprise", "techdocs")

_PROLOG_BARE_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
# a canonical integer; any other numeral is quoted, so no two symbols read back as one number
_PROLOG_INTEGER_RE = re.compile(r"0|[1-9][0-9]*")


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


class LoadedFact(NamedTuple):
    fact: Fact
    span: SourceSpan


class LoadResult:
    """What a load read: its facts and its diagnostics.  A plain class, not a
    tuple, since ``merge`` appends to it."""

    __slots__ = ("facts", "diagnostics")

    def __init__(self, facts: list[LoadedFact] | None = None, diagnostics: list[Diagnostic] | None = None) -> None:
        self.facts = [] if facts is None else facts
        self.diagnostics = [] if diagnostics is None else diagnostics

    def __eq__(self, other: object) -> bool:
        if type(other) is not LoadResult:
            return NotImplemented
        return (self.facts, self.diagnostics) == (other.facts, other.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def merge(self, other: "LoadResult") -> None:
        self.facts.extend(other.facts)
        self.diagnostics.extend(other.diagnostics)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# A '.' stays in an atom only when an atom character follows, so a
# clause-final dot stays a terminator.  `save` writes a symbol bare exactly
# when this pattern matches all of it.
_ATOM_TOKEN = rf"{_ATOM_FIRST}(?:(?!\.(?!{_ATOM_CHAR})){_ATOM_CHAR})*"
_ATOM_TOKEN_RE = re.compile(_ATOM_TOKEN)

# Blanks, line breaks and comments between tokens.
_SKIP = r"(?:[ \t\r\n]+|%[^\n]*)+"

# One alternative per token kind, tried in order at each offset.  A quoted
# term ends at a line break (file reads turn "\r" into one too); an
# unterminated quote runs to the line break and becomes an ERROR token.
_TOKEN_TABLE = (
    ("SKIP", _SKIP),
    ("NECK", ":-"),
    ("ATREL", rf"@relation(?!{_ATOM_CHAR})"),
    ("SQUOTED", r"'[^'\n\r]*'"),
    ("DQUOTED", r'"[^"\n\r]*"'),
    ("ERROR", r"""['"][^\n\r]*"""),
    ("ATOM", _ATOM_TOKEN),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", ","),
    ("EQUALS", "="),
    ("DOT", r"\."),
    ("OTHER", r"(?s:.)"),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_TABLE))


def _lex(text: str, pos: int = 0) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, text, offset) tokens from ``pos`` on, ending with an EOF
    token."""
    for match in _TOKEN_RE.finditer(text, pos):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        if kind == "SQUOTED" or kind == "DQUOTED":
            yield kind, match.group()[1:-1], match.start()
        elif kind == "ERROR":
            yield kind, "unterminated quote", match.start()
        else:
            yield kind, match.group(), match.start()
    yield "EOF", "", len(text)


# A whole one-line clause: a head atom, three or four bare or quoted terms,
# and the closing dot, with only blanks between tokens.  Group 1 is the head
# and groups 2 to 5 the terms; nothing else captures.  Quoted terms keep
# their quotes.  It only tokenizes: the fact builder judges the clause.  The
# parser takes ``_SKIP_RE`` before it.
_SKIP_RE = re.compile(f"(?:{_SKIP})?")
_TERM = r"""({atom}|'[^'\n\r]*'|"[^"\n\r]*")""".format(atom=_ATOM_TOKEN)
_CLAUSE_RE = re.compile(
    rf"({_ATOM_TOKEN})[ \t]*\([ \t]*{_TERM}[ \t]*,[ \t]*{_TERM}[ \t]*,[ \t]*{_TERM}"
    rf"[ \t]*(?:,[ \t]*{_TERM}[ \t]*)?\)[ \t]*\."
)


# ---------------------------------------------------------------------------
# Clause parser
# ---------------------------------------------------------------------------

_TERM_KINDS = ("ATOM", "SQUOTED", "DQUOTED")
_QUOTE_KINDS = {"'": "SQUOTED", '"': "DQUOTED"}
_NEWLINE_RE = re.compile("\n")


class _Parser:
    """Reads clauses, lexing on demand.  At each clause start it tries
    ``_CLAUSE_RE`` first and reads a clause the pattern cannot take whole
    from tokens; both ways give the same ("clause", ...) item, and
    ``build_fact`` makes every fact from one.  Items and terms carry
    offsets; a SourceSpan is built only for a clause head or a diagnostic."""

    def __init__(self, text: str, file: str, diagnostics: list[Diagnostic], registry: RelationRegistry):
        self.text = text
        self.file = file
        self.registry = registry
        self.pos = 0  # where the last whole clause ended
        self.tokens: Iterator[tuple[str, str, int]] | None = None  # lexing from pos
        self.token: tuple[str, str, int] | None = None  # lexed, not yet taken
        self.previous: tuple[str, str, int] | None = None  # the last token taken
        self.diagnostics = diagnostics
        self.line_starts = [0, *(match.end() for match in _NEWLINE_RE.finditer(text))]

    def peek(self) -> tuple[str, str, int]:
        if self.token is None:
            if self.tokens is None:
                self.tokens = _lex(self.text, self.pos)
            self.token = next(self.tokens)
        return self.token

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != "EOF":
            self.token = None
        self.previous = token
        return token

    def span(self, offset: int) -> SourceSpan:
        line = bisect_right(self.line_starts, offset)
        return SourceSpan(self.file, line, offset - self.line_starts[line - 1] + 1)

    def error(self, message: str, offset: int) -> None:
        self.diagnostics.append(Diagnostic("error", message, self.span(offset)))

    def skip_to_dot(self) -> None:
        """Skip the rest of a malformed clause: through its '.', or through an
        unterminated quote, which ran to the line break and took the line's
        '.' with it, so the next clause starts on the next line."""
        if self.previous[0] == "ERROR":
            return
        while self.take()[0] not in ("DOT", "EOF", "ERROR"):
            pass

    def items(self):
        """Yield ("directive", name, shape, flags, offset), ("dynamic", name,
        arity, offset) and ("clause", name, terms, offset) tuples; a term is
        (kind, text, offset) as the lexer gives it."""
        while True:
            # at a clause start: where the last whole clause ended, or
            # after the '.' the token path took last
            if self.tokens is None or (self.token is None and self.previous[0] == "DOT"):
                item = self.whole_clause()
                if item is not None:
                    yield item
                    continue
            kind, text, offset = self.peek()
            if kind == "EOF":
                return
            if kind == "NECK":
                # ':- dynamic name/arity.' declarations matter (they name the
                # relations an interop export uses); other Prolog directives
                # are skipped
                yield from self.parse_prolog_directive()
                continue
            if kind == "ATREL":
                item = self.parse_directive()
                if item is not None:
                    yield item
                continue
            if kind == "ATOM":
                item = self.parse_clause()
                if item is not None:
                    yield item
                continue
            self.error(text if kind == "ERROR" else f"unexpected {text!r}", offset)
            self.take()
            self.skip_to_dot()

    def whole_clause(self):
        """The next clause as a ("clause", ...) item, the one ``parse_clause``
        would make, if ``_CLAUSE_RE`` takes it whole; else None."""
        pos = self.pos if self.tokens is None else self.previous[2] + 1
        match = _CLAUSE_RE.match(self.text, _SKIP_RE.match(self.text, pos).end())
        if match is None:
            return None
        self.pos = match.end()
        self.tokens = None
        terms = []
        for group in range(2, match.lastindex + 1):  # group 1 is the head
            term = match.group(group)
            kind = _QUOTE_KINDS.get(term[0], "ATOM")
            terms.append((kind, term if kind == "ATOM" else term[1:-1], match.start(group)))
        return ("clause", match.group(1), terms, match.start(1))

    def parse_prolog_directive(self):
        neck = self.take()
        if self.peek()[:2] == ("ATOM", "dynamic"):
            self.take()
            while True:
                name = self.take()
                if name[0] != "ATOM":
                    break
                if self.peek()[:2] != ("OTHER", "/"):
                    break
                self.take()
                arity = self.take()
                if arity[0] != "ATOM" or not arity[1].isdigit():
                    break
                yield ("dynamic", name[1], int(arity[1]), neck[2])
                if self.peek()[0] == "COMMA":
                    self.take()
                    continue
                break
        self.skip_to_dot()

    def parse_directive(self):
        at = self.take()
        name_kind, name, name_offset = self.take()
        if name_kind != "ATOM":
            self.error("@relation needs a relation name", name_offset)
            self.skip_to_dot()
            return None
        shape_kind, shape, shape_offset = self.take()
        if shape_kind != "ATOM" or shape not in SHAPE_NAMES:
            *others, last = SHAPE_NAMES
            self.error(f"@relation shape must be {', '.join(others)}, or {last}", shape_offset)
            self.skip_to_dot()
            return None
        flags: dict[str, str | bool] = {}
        while True:
            kind, text, offset = self.peek()
            if kind == "DOT":
                self.take()
                return ("directive", name, shape, flags, at[2])
            if kind == "EOF":
                self.error("unterminated @relation directive", offset)
                return None
            if kind != "ATOM":
                self.error(f"bad @relation flag {text!r}", offset)
                self.skip_to_dot()
                return None
            self.take()
            if self.peek()[0] == "EQUALS":
                self.take()
                value_kind, value, value_offset = self.take()
                if value_kind != "ATOM":
                    self.error(f"flag {text} needs an identifier value", value_offset)
                    self.skip_to_dot()
                    return None
                flags[text] = value
            else:
                flags[text] = True

    def parse_clause(self):
        _, head, head_offset = self.take()
        if self.peek()[0] == "NECK":  # rule clause from an interop export
            self.skip_to_dot()
            return None
        if self.peek()[0] != "LPAREN":
            self.error(f"expected '(' after {head!r}", self.peek()[2])
            self.skip_to_dot()
            return None
        self.take()
        terms: list[tuple[str, str, int]] = []
        while True:
            token = self.take()
            kind, text, offset = token
            if kind not in _TERM_KINDS:
                self.error(text if kind == "ERROR" else f"expected a term, found {text!r}", offset)
                self.skip_to_dot()
                return None
            terms.append(token)
            sep = self.take()
            if sep[0] == "COMMA":
                continue
            if sep[0] == "RPAREN":
                break
            self.error("expected ',' or ')'", sep[2])
            self.skip_to_dot()
            return None
        if self.peek()[0] == "NECK":  # rule clause: skip silently
            self.skip_to_dot()
            return None
        end = self.take()
        if end[0] != "DOT":
            self.error("missing '.' after clause", end[2])
            self.skip_to_dot()
            return None
        return ("clause", head, terms, head_offset)

    def build_fact(
        self, name: str, terms: list[tuple[str, str, int]], offset: int, shape: RelationShape | None = None
    ) -> Fact | None:
        """The fact a ("clause", name, terms, offset) item states, or None once
        a diagnostic says why not.  ``shape`` reads a head the registry does
        not name, a ``<rel>_star``, as that shape."""
        star = shape is not None
        if not star:
            spec = self.registry.get(name)
            if spec is None:
                self.error(f"unknown relation {name!r}", offset)
                return None
            shape = spec.shape
        if len(terms) != shape.arity:
            what = "" if star else f" is a {shape.value} relation and"
            self.error(f"{name}{what} takes {shape.arity} arguments, got {len(terms)}", offset)
            return None
        count = shape.concept_count  # the domains follow the concepts
        concepts = []
        for _, text, term_offset in terms[:count]:
            if not text:
                self.error("empty concept symbol", term_offset)
                return None
            concepts.append(ConceptId(text))
        domains = []
        for kind, text, term_offset in terms[count:]:
            try:
                domains.append(parse_domain(text))
            except DomainSyntaxError as exc:
                quote = 0 if kind == "ATOM" else 1
                self.error(f"bad domain: {exc.message}", term_offset + quote + exc.offset)
                return None
        return Fact(name, tuple(concepts), tuple(domains))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_text(text: str, store: FactStore, file: str = "<string>") -> LoadResult:
    """Parse and assert every well-formed clause, in order.  Directives
    register relations before facts use them.  Problems become diagnostics."""
    result = LoadResult()
    registry = store.registry
    parser = _Parser(text, file, result.diagnostics, registry)
    for item in parser.items():
        if item[0] == "directive":
            _, name, shape_text, flags, offset = item
            try:
                registry.register(spec_with_flags(name, RelationShape(shape_text), flags), override=name in registry)
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("error", str(exc), parser.span(offset)))
            continue
        if item[0] == "dynamic":
            # interop exports declare their relations this way; register
            # unknown ternary ones as plain relations so facts reload.
            # Property flags are not representable in the export, and a
            # 4-ary declaration cannot distinguish cross from fusion.
            _, name, arity, offset = item
            if name in registry:
                continue
            if arity != 3:
                result.diagnostics.append(Diagnostic(
                    "warning",
                    f"cannot infer the shape of {name}/{arity}; declare it with @relation",
                    parser.span(offset),
                ))
                continue
            try:
                registry.register(RelationSpec(name))
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("warning", str(exc), parser.span(offset)))
            continue
        _, name, terms, offset = item
        fact = parser.build_fact(name, terms, offset)
        if fact is None:
            continue
        span = parser.span(offset)
        try:
            # the builder made the payload from the relation's shape
            inserted = store._insert(fact, registry.lookup(name))
        except CycleError as exc:  # strict mode assert-time rejection
            result.diagnostics.append(Diagnostic("error", str(exc), span))
            continue
        if inserted:
            result.facts.append(LoadedFact(fact, span))
        else:
            result.diagnostics.append(Diagnostic("warning", f"duplicate fact {fact!r}", span))
    return result


def load_file(path: str | Path, store: FactStore) -> LoadResult:
    """Load a UTF-8 fact file.  A file that is not UTF-8 loads nothing: the
    result holds one error at the first byte that does not decode."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        span = SourceSpan(str(path), before.count("\n") + 1, len(before) - before.rfind("\n"))
        message = f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start} does not decode"
        return LoadResult(diagnostics=[Diagnostic("error", message, span)])
    return load_text(_universal_newlines(text), store, file=str(path))


def _universal_newlines(text: str) -> str:
    """Line breaks as a text-mode read gives them: '\\r\\n' and '\\r' become '\\n'."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_fact_text(text: str, registry, allow_star: bool = False) -> Fact:
    """Parse one fact clause (the trailing '.' may be omitted, also before
    a trailing ``%`` comment).

    With ``allow_star``, a ``<rel>_star`` head over a transitive relation is
    accepted as an intra-shaped derived fact, for explain-style lookups.
    """
    source = text.strip()
    kinds = [kind for kind, _, _ in _lex(source)][:-1]  # without the EOF token
    if not kinds:
        raise CdcError("expected exactly one fact clause")
    if kinds[-1] != "DOT":
        # on a line of its own, so that a trailing comment does not take it
        source += "\n."
    diagnostics: list[Diagnostic] = []
    parser = _Parser(source, "<fact>", diagnostics, registry)
    items = list(parser.items())
    if not diagnostics:
        if len(items) != 1 or items[0][0] != "clause":
            raise CdcError("expected exactly one fact clause")
        _, name, terms, offset = items[0]
        star = allow_star and star_relation(registry, name) is not None
        fact = parser.build_fact(name, terms, offset, RelationShape.INTRA if star else None)
        if fact is not None:
            return fact
    raise CdcError(diagnostics[0].message)


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

class _Literals(dict):
    """The literal of each concept and domain one writer call meets, made by
    ``render`` on first use: a symbol is rendered once per call, not once per
    occurrence.  Concepts and domains are interned, so they hash by identity."""

    def __init__(self, render: Callable[[ConceptId | DomainExpr], str]):
        super().__init__()
        self.render = render

    def __missing__(self, term: ConceptId | DomainExpr) -> str:
        literal = self[term] = self.render(term)
        return literal


def _clauses(facts: Iterable[Fact], render: Callable[[ConceptId | DomainExpr], str]) -> list[str]:
    """Each fact as ``relation(concepts..., domains...).``, every concept and
    domain written by ``render``, which sees each distinct one once."""
    literal = _Literals(render).__getitem__
    return [f"{relation}({', '.join(map(literal, concepts + domains))})." for relation, concepts, domains in facts]


def _fact_file_literal(term: ConceptId | DomainExpr) -> str:
    """A domain in double quotes; a concept bare when it reads back as one
    atom, else in the quote kind it does not hold."""
    if isinstance(term, DomainExpr):
        return f'"{term.text}"'
    if _ATOM_TOKEN_RE.fullmatch(term.symbol):
        return term.symbol
    if "'" not in term.symbol:
        return f"'{term.symbol}'"
    return f'"{term.symbol}"'


def render_clause(fact: Fact) -> str:
    return _clauses([fact], _fact_file_literal)[0]


def render_directive(spec: RelationSpec) -> str:
    parts = ["@relation", spec.name, spec.shape.value]
    for flag in RELATION_FLAGS:
        if getattr(spec, flag):
            parts.append(flag)
    if spec.inherits_via is not None:
        parts.append(f"inherits_via={spec.inherits_via}")
    return " ".join(parts) + "."


def save_file(store: FactStore, path: str | Path) -> None:
    """Canonical serialization: custom relation directives first, then the
    facts in ``FactStore.facts()`` order, (relation, domain text, concepts).
    Equal stores produce byte-identical files."""
    builtin_by_name = {spec.name: spec for spec in builtin_specs()}
    lines: list[str] = []
    for name in store.registry.names():
        spec = store.registry.lookup(name)
        if builtin_by_name.get(name) != spec:
            lines.append(render_directive(spec))
    lines += _clauses(store.facts(), _fact_file_literal)
    Path(path).write_text("\n".join([*lines, ""]), encoding="utf-8")


# ---------------------------------------------------------------------------
# ISO-Prolog interop export
# ---------------------------------------------------------------------------

def _prolog_atom(text: str) -> str:
    if _PROLOG_BARE_RE.fullmatch(text) or _PROLOG_INTEGER_RE.fullmatch(text):
        return text
    return "'" + text.replace("'", "\\'") + "'"


def _prolog_literal(term: ConceptId | DomainExpr) -> str:
    return _prolog_atom(str(term))  # a concept's symbol, a domain's text


def export_interop(store: FactStore, path: str | Path) -> None:
    """Write the store as ISO-Prolog clauses: dynamic declarations, the
    asserted facts, and the closure rules for every transitive and
    inheriting relation.  A concept symbol or domain is written bare when
    it is a Prolog atom or a canonical integer and quoted otherwise, so
    distinct symbols stay distinct terms."""
    registry = store.registry
    lines: list[str] = []
    for name in registry.names():
        spec = registry.lookup(name)
        lines.append(f":- dynamic {_prolog_atom(name)}/{spec.shape.arity}.")
    lines.append("")
    lines += _clauses(store.facts(), _prolog_literal)
    lines.append("")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.transitive:
            star = star_label(name)
            lines.append(f"{star}(X, Y, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain).")
            lines.append(f"{star}(X, Z, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain),")
            lines.append(f"    {star}(Y, Z, Domain).")
    requires = registry.get("requires")
    if requires is not None and requires.transitive:
        lines.append("all_prerequisites(Target, Domain, Prereqs) :-")
        lines.append(f"    findall(P, {star_label('requires')}(Target, P, Domain), Prereqs).")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.inherits_via is not None:
            lines.append(f"{name}(X, Attr, Domain) :-")
            lines.append(f"    {spec.inherits_via}(X, Y, Domain),")
            lines.append(f"    {name}(Y, Attr, Domain).")
    Path(path).write_text("\n".join([*lines, ""]), encoding="utf-8")


# ---------------------------------------------------------------------------
# Bundled case studies
# ---------------------------------------------------------------------------

def casestudy_text(name: str) -> str:
    if name not in CASESTUDY_NAMES:
        raise CdcError(f"unknown case study {name!r}; choose from {', '.join(CASESTUDY_NAMES)}")
    return resources.files("cdcgraph").joinpath(f"casestudies/{name}.cdc").read_text(encoding="utf-8")


def load_casestudy(name: str, store: FactStore) -> LoadResult:
    return load_text(casestudy_text(name), store, file=f"<casestudy:{name}>")
