"""Fact-file format: Prolog-style clauses with explicit domain arguments.

    % comment to end of line
    @relation triggers intra transitive acyclic.
    is_a(apple, fruit, "Biology@Plant_Taxonomy").
    analogous_to(atom, solar_system, "Physics@Atomic", "Astronomy@Planetary").

Terms are bare atoms or quoted strings (single or double quotes); which
argument positions are domains follows from the relation's registered shape.
``@relation`` directives must precede facts that use them and may override a
built-in declaration.

The reader also accepts the ISO-Prolog interop export this module writes:
``:- ...`` directives and rule clauses (``head :- body.``) are skipped
without diagnostics, so re-parsing an export recovers exactly the facts.

Loading is resilient: every problem becomes a diagnostic with a source span
and the loader moves on to the next clause.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .domains import _ATOM_CONT, _ATOM_START, DomainExpr, parse_domain
from .errors import CdcError, CycleError, DomainSyntaxError, RegistryError
from .relations import RelationShape, RelationSpec, builtin_specs, spec_with_flags
from .store import ConceptId, Fact, FactStore

CASESTUDY_NAMES = ("cbt", "education", "enterprise", "techdocs")

# a symbol saved bare must lex back as one atom; the lexer reads a trailing
# '.' as the clause terminator
_BARE_ATOM_RE = re.compile(r"[A-Za-z0-9_]([A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")
_PROLOG_BARE_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_PROLOG_NUMBER_RE = re.compile(r"\d+(\.\d+)?")


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class LoadedFact:
    fact: Fact
    span: SourceSpan


@dataclass
class LoadResult:
    facts: list[LoadedFact] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

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

@dataclass(frozen=True)
class _Token:
    kind: str  # ATOM SQUOTED DQUOTED LPAREN RPAREN COMMA DOT NECK EQUALS ATREL OTHER ERROR EOF
    text: str
    line: int
    col: int


def _lex(text: str, file: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, start_line, start_col)); advance(); continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, start_line, start_col)); advance(); continue
        if ch == ",":
            tokens.append(_Token("COMMA", ch, start_line, start_col)); advance(); continue
        if ch == "=":
            tokens.append(_Token("EQUALS", ch, start_line, start_col)); advance(); continue
        if ch == ".":
            tokens.append(_Token("DOT", ch, start_line, start_col)); advance(); continue
        if ch == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(_Token("NECK", ":-", start_line, start_col)); advance(2); continue
        if ch == "@":
            rest = text[i + 1 : i + 9]
            after = text[i + 9] if i + 9 < n else ""
            if rest == "relation" and after not in _ATOM_CONT:
                tokens.append(_Token("ATREL", "@relation", start_line, start_col))
                advance(9)
                continue
            tokens.append(_Token("OTHER", ch, start_line, start_col)); advance(); continue
        if ch in ("'", '"'):
            quote = ch
            advance()
            start = i
            # a line break ends the term: file reads turn "\r" into one too
            while i < n and text[i] not in (quote, "\n", "\r"):
                advance()
            if i >= n or text[i] != quote:
                tokens.append(_Token("ERROR", "unterminated quote", start_line, start_col))
                continue
            content = text[start:i]
            advance()
            kind = "SQUOTED" if quote == "'" else "DQUOTED"
            tokens.append(_Token(kind, content, start_line, start_col))
            continue
        if ch in _ATOM_START:
            start = i
            advance()
            while i < n and text[i] in _ATOM_CONT:
                # '.' belongs to the atom only when another atom char follows,
                # so a clause-final dot stays a terminator
                if text[i] == "." and (i + 1 >= n or text[i + 1] not in _ATOM_CONT):
                    break
                advance()
            tokens.append(_Token("ATOM", text[start:i], start_line, start_col))
            continue
        tokens.append(_Token("OTHER", ch, start_line, start_col))
        advance()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Clause parser
# ---------------------------------------------------------------------------

_TERM_KINDS = ("ATOM", "SQUOTED", "DQUOTED")


class _Parser:
    def __init__(self, tokens: list[_Token], file: str, diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics = diagnostics

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def span(self, token: _Token) -> SourceSpan:
        return SourceSpan(self.file, token.line, token.col)

    def error(self, message: str, token: _Token) -> None:
        self.diagnostics.append(Diagnostic("error", message, self.span(token)))

    def skip_to_dot(self) -> None:
        while self.peek().kind not in ("DOT", "EOF"):
            self.take()
        if self.peek().kind == "DOT":
            self.take()

    def items(self):
        """Yield ("directive", ...), ("dynamic", name, arity, span), and
        ("clause", name, terms, span) tuples."""
        while True:
            token = self.peek()
            if token.kind == "EOF":
                return
            if token.kind == "NECK":
                # ':- dynamic name/arity.' declarations matter (they name the
                # relations an interop export uses); other Prolog directives
                # are skipped
                yield from self.parse_prolog_directive()
                continue
            if token.kind == "ATREL":
                item = self.parse_directive()
                if item is not None:
                    yield item
                continue
            if token.kind == "ATOM":
                item = self.parse_clause()
                if item is not None:
                    yield item
                continue
            if token.kind == "ERROR":
                self.error(token.text, token)
                self.take()
                self.skip_to_dot()
                continue
            self.error(f"unexpected {token.text!r}", token)
            self.take()
            self.skip_to_dot()

    def parse_prolog_directive(self):
        neck = self.take()
        if self.peek().kind == "ATOM" and self.peek().text == "dynamic":
            self.take()
            while True:
                name = self.take()
                if name.kind != "ATOM":
                    break
                if self.peek().kind != "OTHER" or self.peek().text != "/":
                    break
                self.take()
                arity = self.take()
                if arity.kind != "ATOM" or not arity.text.isdigit():
                    break
                yield ("dynamic", name.text, int(arity.text), self.span(neck))
                if self.peek().kind == "COMMA":
                    self.take()
                    continue
                break
        self.skip_to_dot()

    def parse_directive(self):
        at = self.take()
        name = self.take()
        if name.kind != "ATOM":
            self.error("@relation needs a relation name", name)
            self.skip_to_dot()
            return None
        shape = self.take()
        if shape.kind != "ATOM" or shape.text not in ("intra", "cross", "fusion"):
            self.error("@relation shape must be intra, cross, or fusion", shape)
            self.skip_to_dot()
            return None
        flags: dict[str, str | bool] = {}
        while True:
            token = self.peek()
            if token.kind == "DOT":
                self.take()
                return ("directive", name.text, shape.text, flags, self.span(at))
            if token.kind == "EOF":
                self.error("unterminated @relation directive", token)
                return None
            if token.kind != "ATOM":
                self.error(f"bad @relation flag {token.text!r}", token)
                self.skip_to_dot()
                return None
            flag = self.take()
            if self.peek().kind == "EQUALS":
                self.take()
                value = self.take()
                if value.kind != "ATOM":
                    self.error(f"flag {flag.text} needs an identifier value", value)
                    self.skip_to_dot()
                    return None
                flags[flag.text] = value.text
            else:
                flags[flag.text] = True

    def parse_clause(self):
        head = self.take()
        if self.peek().kind == "NECK":  # rule clause from an interop export
            self.skip_to_dot()
            return None
        if self.peek().kind != "LPAREN":
            self.error(f"expected '(' after {head.text!r}", self.peek())
            self.skip_to_dot()
            return None
        self.take()
        terms: list[tuple[str, str, SourceSpan]] = []
        while True:
            token = self.take()
            if token.kind not in _TERM_KINDS:
                if token.kind == "ERROR":
                    self.error(token.text, token)
                else:
                    self.error(f"expected a term, found {token.text!r}", token)
                self.skip_to_dot()
                return None
            terms.append((token.kind, token.text, self.span(token)))
            sep = self.take()
            if sep.kind == "COMMA":
                continue
            if sep.kind == "RPAREN":
                break
            self.error("expected ',' or ')'", sep)
            self.skip_to_dot()
            return None
        if self.peek().kind == "NECK":  # rule clause: skip silently
            self.skip_to_dot()
            return None
        end = self.take()
        if end.kind != "DOT":
            self.error("missing '.' after clause", end)
            self.skip_to_dot()
            return None
        return ("clause", head.text, terms, self.span(head))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_text(text: str, store: FactStore, file: str = "<string>") -> LoadResult:
    """Parse and assert every well-formed clause, in order.  Directives
    register relations before facts use them.  Problems become diagnostics."""
    result = LoadResult()
    parser = _Parser(_lex(text, file), file, result.diagnostics)
    registry = store.registry
    for item in parser.items():
        if item[0] == "directive":
            _, name, shape_text, flags, span = item
            try:
                spec = spec_with_flags(name, RelationShape(shape_text), flags)
                registry.register(spec, override=name in registry)
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("error", str(exc), span))
            continue
        if item[0] == "dynamic":
            # interop exports declare their relations this way; register
            # unknown ternary ones as plain relations so facts reload.
            # Property flags are not representable in the export, and a
            # 4-ary declaration cannot distinguish cross from fusion.
            _, name, arity, span = item
            if name in registry:
                continue
            if arity != 3:
                result.diagnostics.append(Diagnostic(
                    "warning", f"cannot infer the shape of {name}/{arity}; declare it with @relation", span,
                ))
                continue
            try:
                registry.register(RelationSpec(name))
            except RegistryError as exc:
                result.diagnostics.append(Diagnostic("warning", str(exc), span))
            continue
        _, name, terms, span = item
        fact = _terms_to_fact(name, terms, span, registry, result.diagnostics)
        if fact is None:
            continue
        try:
            inserted = store.assert_fact(fact)
        except CycleError as exc:  # strict mode assert-time rejection
            result.diagnostics.append(Diagnostic("error", str(exc), span))
            continue
        if inserted:
            result.facts.append(LoadedFact(fact, span))
        else:
            result.diagnostics.append(Diagnostic("warning", f"duplicate fact {fact!r}", span))
    return result


def load_file(path: str | Path, store: FactStore) -> LoadResult:
    path = Path(path)
    return load_text(path.read_text(encoding="utf-8"), store, file=str(path))


def _assemble_fact(
    name: str,
    terms: list[tuple[str, str, SourceSpan]],
    domain_positions: tuple[int, ...],
    diagnostics: list[Diagnostic],
) -> Fact | None:
    concepts: list[ConceptId] = []
    domains: list[DomainExpr] = []
    for index, (kind, text, term_span) in enumerate(terms):
        if index in domain_positions:
            try:
                domains.append(parse_domain(text))
            except DomainSyntaxError as exc:
                offset = exc.offset + (1 if kind in ("SQUOTED", "DQUOTED") else 0)
                where = SourceSpan(term_span.file, term_span.line, term_span.column + offset)
                diagnostics.append(Diagnostic("error", f"bad domain: {exc}", where))
                return None
        else:
            if not text:
                diagnostics.append(Diagnostic("error", "empty concept symbol", term_span))
                return None
            concepts.append(ConceptId(text))
    return Fact(name, tuple(concepts), tuple(domains))


def _terms_to_fact(
    name: str,
    terms: list[tuple[str, str, SourceSpan]],
    span: SourceSpan,
    registry,
    diagnostics: list[Diagnostic],
) -> Fact | None:
    spec = registry.get(name)
    if spec is None:
        diagnostics.append(Diagnostic("error", f"unknown relation {name!r}", span))
        return None
    arity = spec.shape.arity
    if len(terms) != arity:
        diagnostics.append(Diagnostic(
            "error",
            f"{name} is a {spec.shape.value} relation and takes {arity} arguments, got {len(terms)}",
            span,
        ))
        return None
    return _assemble_fact(name, terms, spec.shape.domain_positions, diagnostics)


def parse_fact_text(text: str, registry, allow_star: bool = False) -> Fact:
    """Parse one fact clause (the trailing '.' may be omitted).

    With ``allow_star``, a ``<rel>_star`` head over a transitive relation is
    accepted as an intra-shaped derived fact, for explain-style lookups.
    """
    source = text.strip()
    if not source.endswith("."):
        source += "."
    diagnostics: list[Diagnostic] = []
    parser = _Parser(_lex(source, "<fact>"), "<fact>", diagnostics)
    items = list(parser.items())
    if diagnostics:
        raise CdcError(diagnostics[0].message)
    if len(items) != 1 or items[0][0] != "clause":
        raise CdcError("expected exactly one fact clause")
    _, name, terms, span = items[0]
    if name not in registry and allow_star and name.endswith("_star"):
        base = name[: -len("_star")]
        base_spec = registry.get(base)
        if base_spec is not None and base_spec.transitive:
            if len(terms) != 3:
                raise CdcError(f"{name} takes 3 arguments, got {len(terms)}")
            fact = _assemble_fact(name, terms, (2,), diagnostics)
            if fact is None:
                raise CdcError(diagnostics[0].message)
            return fact
    fact = _terms_to_fact(name, terms, span, registry, diagnostics)
    if fact is None:
        raise CdcError(diagnostics[0].message if diagnostics else "malformed fact")
    return fact


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def _render_concept(concept: ConceptId) -> str:
    if _BARE_ATOM_RE.fullmatch(concept.symbol):
        return concept.symbol
    if "'" not in concept.symbol:
        return f"'{concept.symbol}'"
    return f'"{concept.symbol}"'


def render_clause(fact: Fact) -> str:
    parts = [_render_concept(c) for c in fact.concepts]
    parts += [f'"{d.text}"' for d in fact.domains]
    return f"{fact.relation}({', '.join(parts)})."


def render_directive(spec: RelationSpec) -> str:
    parts = ["@relation", spec.name, spec.shape.value]
    for flag in ("transitive", "symmetric", "reflexive", "acyclic"):
        if getattr(spec, flag):
            parts.append(flag)
    if spec.inherits_via is not None:
        parts.append(f"inherits_via={spec.inherits_via}")
    return " ".join(parts) + "."


def save_file(store: FactStore, path: str | Path) -> None:
    """Canonical serialization: custom relation directives first, then facts
    sorted by (relation, domain text, concepts).  Equal stores produce
    byte-identical files."""
    builtin_by_name = {spec.name: spec for spec in builtin_specs()}
    lines: list[str] = []
    for name in store.registry.names():
        spec = store.registry.lookup(name)
        if builtin_by_name.get(name) != spec:
            lines.append(render_directive(spec))
    for fact in store.facts():
        lines.append(render_clause(fact))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# ISO-Prolog interop export
# ---------------------------------------------------------------------------

def _prolog_atom(text: str) -> str:
    if _PROLOG_BARE_RE.fullmatch(text) or _PROLOG_NUMBER_RE.fullmatch(text):
        return text
    return "'" + text.replace("'", "\\'") + "'"


def _prolog_fact(fact: Fact) -> str:
    parts = [_prolog_atom(c.symbol.lower()) for c in fact.concepts]
    parts += [_prolog_atom(d.text) for d in fact.domains]
    return f"{fact.relation}({', '.join(parts)})."


def export_interop(store: FactStore, path: str | Path, registry=None) -> None:
    """Write the store as ISO-Prolog clauses: dynamic declarations, the
    asserted facts (concept symbols lowercased, domains quoted), and the
    closure rules for every transitive and inheriting relation."""
    registry = registry or store.registry
    lines: list[str] = []
    for name in registry.names():
        spec = registry.lookup(name)
        lines.append(f":- dynamic {_prolog_atom(name)}/{spec.shape.arity}.")
    lines.append("")
    for fact in store.facts():
        lines.append(_prolog_fact(fact))
    lines.append("")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.transitive:
            star = name + "_star"
            lines.append(f"{star}(X, Y, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain).")
            lines.append(f"{star}(X, Z, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain),")
            lines.append(f"    {star}(Y, Z, Domain).")
    requires = registry.get("requires")
    if requires is not None and requires.transitive:
        lines.append("all_prerequisites(Target, Domain, Prereqs) :-")
        lines.append("    findall(P, requires_star(Target, P, Domain), Prereqs).")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.inherits_via is not None:
            lines.append(f"{name}(X, Attr, Domain) :-")
            lines.append(f"    {spec.inherits_via}(X, Y, Domain),")
            lines.append(f"    {name}(Y, Attr, Domain).")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Bundled case studies
# ---------------------------------------------------------------------------

def casestudy_text(name: str) -> str:
    if name not in CASESTUDY_NAMES:
        raise CdcError(f"unknown case study {name!r}; choose from {', '.join(CASESTUDY_NAMES)}")
    return resources.files("cdcgraph").joinpath(f"casestudies/{name}.cdc").read_text(encoding="utf-8")


def load_casestudy(name: str, store: FactStore) -> LoadResult:
    return load_text(casestudy_text(name), store, file=f"<casestudy:{name}>")
