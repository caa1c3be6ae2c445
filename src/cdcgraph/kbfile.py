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
and the loader moves on to the next clause.  A clause ends at its first '.'
token, or at the line break of an open quote, and no error reads past that
point: whatever follows is read as the next clause.

A load is one pass over the text: one pattern match per clause takes the
blanks before it and, when the clause is a one-line fact (most are), the
whole clause; everything else (directives, comments inside a clause,
clauses over several lines, rule clauses and malformed ones) is lexed up to
its end and parsed from those tokens.  Both give the same clause terms, and
one builder checks the relation, arity, concepts and domains and makes the
fact, so a clause reads the same, diagnostics included, either way.  A load
keeps a running line count and per-load memos of the terms it read.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Sequence
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .domains import _ATOM_CHAR, _ATOM_TOKEN, DomainExpr, parse_domain
from .errors import CdcError, CycleError, DomainSyntaxError, RegistryError
from .relations import RELATION_FLAGS, SHAPE_NAMES, RelationRegistry, RelationShape, RelationSpec, builtin_specs
from .relations import spec_with_flags, star_label, star_relation
from .store import ConceptId, Fact, FactStore, clause_texts

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


# The blanks before a clause, then, if it is a one-line fact, all of it: a
# head atom (group 1), three or four bare or quoted terms (groups 2 to 5,
# quotes kept) and the dot, with only blanks between.  The clause part is
# optional, so the pattern always matches and never backtracks into the
# skip; if it captures nothing, the clause is read from tokens.
_TERM = r"""({atom}|'[^'\n\r]*'|"[^"\n\r]*")""".format(atom=_ATOM_TOKEN)
_CLAUSE_RE = re.compile(
    rf"(?:{_SKIP})?(?:({_ATOM_TOKEN})[ \t]*\([ \t]*{_TERM}[ \t]*,[ \t]*{_TERM}[ \t]*,[ \t]*{_TERM}"
    rf"[ \t]*(?:,[ \t]*{_TERM}[ \t]*)?\)[ \t]*\.)?"
)


# ---------------------------------------------------------------------------
# Clause reader
# ---------------------------------------------------------------------------

_TERM_KINDS = ("ATOM", "SQUOTED", "DQUOTED")
_QUOTES = {"SQUOTED": "'", "DQUOTED": '"'}


class _Reader:
    """One read of a text, one clause at a time: one ``_CLAUSE_RE`` match
    per clause, else a token list that stops at the clause's first '.', at
    an open quote's line break or at the end, so no error reads past it.
    Both give the same ("clause", ...) item, and ``build_fact`` makes every
    fact from one.  The reader keeps a running line count and memos of what
    each raw term text read as; they go with it, so the weak intern table
    still frees a symbol no store holds."""

    def __init__(self, text: str, file: str, diagnostics: list[Diagnostic], registry: RelationRegistry):
        self.text = text
        self.file = file
        self.registry = registry
        self.diagnostics = diagnostics
        self.counted = self.line_start = 0  # ``counted`` is on ``line``, which starts at ``line_start``
        self.line = 1
        self.quote_end = -1  # where the last open quote's ERROR token ended
        self.concepts: dict[str, ConceptId] = {}
        self.domains: dict[str, DomainExpr] = {}

    def span(self, offset: int) -> SourceSpan:
        """The span of ``offset``, no earlier than the last one asked for:
        items come in text order, and each asks for one span at most."""
        text, counted = self.text, self.counted
        breaks = text.count("\n", counted, offset)
        if breaks:
            self.line += breaks
            self.line_start = text.rfind("\n", counted, offset) + 1
        self.counted = offset
        return SourceSpan(self.file, self.line, offset - self.line_start + 1)

    def error(self, message: str, offset: int) -> None:
        self.diagnostics.append(Diagnostic("error", message, self.span(offset)))

    def items(self):
        """Yield ("clause", name, terms, start), ("directive", name, shape,
        flags, offset) and ("dynamic", name, arity, offset) tuples.  Terms are
        raw texts; ``start(g)`` is the offset of ``_CLAUSE_RE``'s group g."""
        text, end = self.text, len(self.text)
        clause_at = _CLAUSE_RE.match
        pos = 0
        while True:
            match = clause_at(text, pos)
            pos = match.end()
            last = match.lastindex
            if last:  # a one-line fact, read whole
                groups = match.groups()
                yield "clause", groups[0], groups[1:last], match.start
                continue
            if pos == end:
                return
            tokens = self.clause_tokens(pos)
            kind, token_text, offset = tokens[-1]
            if kind == "ERROR":  # it ran to its line break; read it again for its end
                pos = self.quote_end = _TOKEN_RE.match(text, offset).end()
            else:  # past the '.', or the end of the text
                pos = offset + len(token_text)
            kind, token_text, offset = tokens[0]
            if kind == "NECK":
                # ':- dynamic name/arity.' declarations matter (they name the
                # relations an interop export uses); other Prolog directives
                # are skipped
                yield from self.parse_prolog_directive(tokens)
                continue
            if kind == "ATREL":
                item = self.parse_directive(tokens)
            elif kind == "ATOM":
                item = self.parse_clause(tokens)
            else:
                self.error(token_text if kind == "ERROR" else f"unexpected {token_text!r}", offset)
                continue
            if item is not None:
                yield item

    def clause_tokens(self, pos: int) -> list[tuple[str, str, int]]:
        """The tokens of the clause at ``pos``, through its first DOT, ERROR
        or EOF token."""
        tokens = []
        for token in _lex(self.text, pos):
            tokens.append(token)
            if token[0] in ("DOT", "ERROR", "EOF"):
                return tokens

    def parse_prolog_directive(self, tokens: list[tuple[str, str, int]]):
        """The ("dynamic", ...) items of ':- dynamic name/arity, ...', up to
        the first declaration that does not read; any other directive has none."""
        items = []
        if tokens[1][:2] == ("ATOM", "dynamic"):
            rest = iter(tokens[2:])
            # in steps of name, '/', arity and what follows it
            for name, slash, arity, after in zip(rest, rest, rest, rest):
                if name[0] != "ATOM" or slash[:2] != ("OTHER", "/") or arity[0] != "ATOM" or not arity[1].isdigit():
                    break
                items.append(("dynamic", name[1], int(arity[1]), tokens[0][2]))
                if after[0] != "COMMA":
                    break
        return items

    def parse_directive(self, tokens: list[tuple[str, str, int]]):
        name_kind, name, name_offset = tokens[1]
        if name_kind != "ATOM":
            self.error("@relation needs a relation name", name_offset)
            return None
        shape_kind, shape, shape_offset = tokens[2]
        if shape_kind != "ATOM" or shape not in SHAPE_NAMES:
            *others, last = SHAPE_NAMES
            self.error(f"@relation shape must be {', '.join(others)}, or {last}", shape_offset)
            return None
        flags: dict[str, str | bool] = {}
        i = 3
        while True:
            kind, text, offset = tokens[i]
            if kind == "DOT":
                return ("directive", name, shape, flags, tokens[0][2])
            if kind == "EOF":
                self.error("unterminated @relation directive", offset)
                return None
            if kind != "ATOM":
                self.error(text if kind == "ERROR" else f"bad @relation flag {text!r}", offset)
                return None
            if tokens[i + 1][0] != "EQUALS":
                flags[text] = True
                i += 1
                continue
            value_kind, value, value_offset = tokens[i + 2]
            if value_kind != "ATOM":
                self.error(f"flag {text} needs an identifier value", value_offset)
                return None
            flags[text] = value
            i += 3

    def parse_clause(self, tokens: list[tuple[str, str, int]]):
        rest = iter(tokens)
        _, head, head_offset = next(rest)
        kind, _, offset = next(rest)
        if kind == "NECK":  # rule clause from an interop export
            return None
        if kind != "LPAREN":
            self.error(f"expected '(' after {head!r}", offset)
            return None
        terms: list[str] = []
        starts = [None, head_offset]  # numbered as _CLAUSE_RE's groups
        for kind, text, offset in rest:  # the list's last token is no term, so this ends in a return or break
            if kind not in _TERM_KINDS:
                self.error(text if kind == "ERROR" else f"expected a term, found {text!r}", offset)
                return None
            quote = _QUOTES.get(kind, "")
            terms.append(f"{quote}{text}{quote}")
            starts.append(offset)
            kind, _, offset = next(rest)
            if kind == "RPAREN":
                break
            if kind != "COMMA":
                self.error("expected ',' or ')'", offset)
                return None
        kind, _, offset = next(rest)
        if kind == "NECK":  # rule clause: skip silently
            return None
        if kind != "DOT":
            self.error("missing '.' after clause", offset)
            return None
        return ("clause", head, terms, starts.__getitem__)

    def build_fact(
        self, name: str, terms: Sequence[str], start: Callable[[int], int], shape: RelationShape | None = None
    ) -> Fact | None:
        """The fact a ("clause", name, terms, start) item states, or None once
        a diagnostic says why not.  ``shape`` reads a head the registry does
        not name, a ``<rel>_star``, as that shape."""
        star = shape is not None
        if not star:
            spec = self.registry.get(name)
            if spec is None:
                self.error(f"unknown relation {name!r}", start(1))
                return None
            shape = spec.shape
        if len(terms) != shape.arity:
            what = "" if star else f" is a {shape.value} relation and"
            self.error(f"{name}{what} takes {shape.arity} arguments, got {len(terms)}", start(1))
            return None
        count = shape.concept_count  # the domains follow the concepts
        memo = self.concepts
        concepts = []
        for raw in terms[:count]:
            concept = memo.get(raw)
            if concept is None:
                symbol = raw[1:-1] if raw[0] in "'\"" else raw
                if not symbol:  # an equal term before this one would have failed first
                    self.error("empty concept symbol", start(2 + terms.index(raw)))
                    return None
                concept = memo[raw] = ConceptId(symbol)
            concepts.append(concept)
        memo = self.domains
        domains = []
        for raw in terms[count:]:
            domain = memo.get(raw)
            if domain is None:
                quote = 1 if raw[0] in "'\"" else 0
                try:
                    domain = memo[raw] = parse_domain(raw[quote : len(raw) - quote])
                except DomainSyntaxError as exc:
                    offset = start(2 + terms.index(raw, count)) + quote + exc.offset
                    self.error(f"bad domain: {exc.message}", offset)
                    return None
            domains.append(domain)
        return Fact(name, tuple(concepts), tuple(domains))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_text(text: str, store: FactStore, file: str = "<string>") -> LoadResult:
    """Parse and assert every well-formed clause, in order.  Directives
    register relations before facts use them.  Problems become diagnostics."""
    result = LoadResult()
    registry = store.registry
    reader = _Reader(text, file, result.diagnostics, registry)
    build_fact, span, insert, loaded = reader.build_fact, reader.span, store._insert, result.facts.append
    for item in reader.items():
        if item[0] == "clause":
            _, name, terms, start = item
            fact = build_fact(name, terms, start)
            if fact is None:
                continue
            where = span(start(1))
            try:
                # the builder made the payload from the relation's shape
                inserted = insert(fact, registry.lookup(name))
            except CycleError as exc:  # strict mode assert-time rejection
                result.diagnostics.append(Diagnostic("error", str(exc), where))
                continue
            if inserted:
                loaded(LoadedFact(fact, where))
            else:
                result.diagnostics.append(Diagnostic("warning", f"duplicate fact {fact!r}", where))
        elif item[0] == "directive":
            _, name, shape_text, flags, offset = item
            try:
                registry.register(spec_with_flags(name, RelationShape(shape_text), flags), override=name in registry)
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("error", str(exc), reader.span(offset)))
        else:
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
                    reader.span(offset),
                ))
                continue
            try:
                registry.register(RelationSpec(name))
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("warning", str(exc), reader.span(offset)))
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
    # A '.' on a line of its own (a trailing comment cannot take it) ends a
    # clause left open.  After one that ended at its own '.', or none, it
    # stands alone and its "unexpected '.'" is dropped; after an open quote
    # that ran to the end, the last clause had no '.', so the error stays.
    source = text.strip()
    end = len(source)
    source += "\n."
    diagnostics: list[Diagnostic] = []
    reader = _Reader(source, "<fact>", diagnostics, registry)
    items = list(reader.items())
    if reader.counted == end + 1 and reader.quote_end != end and diagnostics[-1].message == "unexpected '.'":
        del diagnostics[-1]
    if not diagnostics:
        if len(items) != 1 or items[0][0] != "clause":
            raise CdcError("expected exactly one fact clause")
        _, name, terms, start = items[0]
        star = allow_star and star_relation(registry, name) is not None
        fact = reader.build_fact(name, terms, start, RelationShape.INTRA if star else None)
        if fact is not None:
            return fact
    raise CdcError(diagnostics[0].message)


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def render_clause(fact: Fact) -> str:
    return clause_texts((fact,))[0]


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
    lines += clause_texts(store.facts())
    Path(path).write_text("\n".join([*lines, ""]), encoding="utf-8")


# ---------------------------------------------------------------------------
# ISO-Prolog interop export
# ---------------------------------------------------------------------------

def _prolog_atom(text: str) -> str:
    if _PROLOG_BARE_RE.fullmatch(text) or _PROLOG_INTEGER_RE.fullmatch(text):
        return text
    return "'" + text.replace("'", "\\'") + "'"


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
    lines += clause_texts(store.facts(), lambda term: _prolog_atom(str(term)))  # a symbol, a domain's text
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
