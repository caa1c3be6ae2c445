"""The fact-file loader that ``cdcgraph.kbfile`` replaced, kept as the slow
reference for ``tests/test_kbfile_fast_path.py`` and
``tests/test_reader_reference.py``.

``_Parser`` reads one clause at a time: at each clause start it runs
``_SKIP_RE`` and then the whole-clause ``_CLAUSE_RE``, and otherwise lexes
the clause into tokens; ``load_text`` builds a ``SourceSpan`` by a bisect
over the line starts it found up front, makes every ``ConceptId`` and
``DomainExpr`` afresh, and inserts through ``FactStore._insert``.  Unchanged
but for one message: ``parse_directive`` reports an unterminated quote where
a flag should be as ``unterminated quote``, as every other place does, in
step with the loader.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from pathlib import Path

from cdcgraph.domains import _ATOM_CHAR, _ATOM_FIRST, parse_domain
from cdcgraph.errors import CdcError, CycleError, DomainSyntaxError, RegistryError
from cdcgraph.kbfile import _SKIP, _TOKEN_RE, Diagnostic, LoadedFact, LoadResult, SourceSpan
from cdcgraph.kbfile import _lex, _universal_newlines
from cdcgraph.relations import SHAPE_NAMES, RelationRegistry, RelationShape, RelationSpec
from cdcgraph.relations import spec_with_flags, star_relation
from cdcgraph.store import ConceptId, Fact, FactStore

# The atom token as the replaced loader wrote it: a lookahead at every
# character.
_ATOM_TOKEN = rf"{_ATOM_FIRST}(?:(?!\.(?!{_ATOM_CHAR})){_ATOM_CHAR})*"

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


_TERM_KINDS = ("ATOM", "SQUOTED", "DQUOTED")
_QUOTE_KINDS = {"'": "SQUOTED", '"': "DQUOTED"}
_NEWLINE_RE = re.compile("\n")


class _Parser:
    """Reads one clause at a time.  At each clause start it tries
    ``_CLAUSE_RE`` first; a clause the pattern cannot take whole is lexed
    into a list of tokens that stops at the clause's first '.', at an
    unterminated quote (which ran to its line break) or at the end of the
    text, and is parsed from that list alone, so no error reads past it.
    Both ways give the same ("clause", ...) item, and ``build_fact`` makes
    every fact from one.  Items and terms carry offsets; a SourceSpan is
    built only for a clause head or a diagnostic."""

    def __init__(self, text: str, file: str, diagnostics: list[Diagnostic], registry: RelationRegistry):
        self.text = text
        self.file = file
        self.registry = registry
        self.pos = 0  # where the next clause starts
        self.diagnostics = diagnostics
        self.line_starts = [0, *(match.end() for match in _NEWLINE_RE.finditer(text))]

    def span(self, offset: int) -> SourceSpan:
        line = bisect_right(self.line_starts, offset)
        return SourceSpan(self.file, line, offset - self.line_starts[line - 1] + 1)

    def error(self, message: str, offset: int) -> None:
        self.diagnostics.append(Diagnostic("error", message, self.span(offset)))

    def items(self):
        """Yield ("directive", name, shape, flags, offset), ("dynamic", name,
        arity, offset) and ("clause", name, terms, offset) tuples; a term is
        (kind, text, offset) as the lexer gives it."""
        while True:
            item = self.whole_clause()
            if item is not None:
                yield item
                continue
            tokens = self.clause_tokens()
            kind, text, offset = tokens[0]
            if kind == "EOF":
                return
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
                self.error(text if kind == "ERROR" else f"unexpected {text!r}", offset)
                continue
            if item is not None:
                yield item

    def whole_clause(self):
        """The next clause as a ("clause", ...) item, the one ``parse_clause``
        would make, if ``_CLAUSE_RE`` takes it whole; else None."""
        match = _CLAUSE_RE.match(self.text, _SKIP_RE.match(self.text, self.pos).end())
        if match is None:
            return None
        self.pos = match.end()
        terms = []
        for group in range(2, match.lastindex + 1):  # group 1 is the head
            term = match.group(group)
            kind = _QUOTE_KINDS.get(term[0], "ATOM")
            terms.append((kind, term if kind == "ATOM" else term[1:-1], match.start(group)))
        return ("clause", match.group(1), terms, match.start(1))

    def clause_tokens(self) -> list[tuple[str, str, int]]:
        """The next clause's tokens, through its first DOT, ERROR or EOF
        token; the clause after it starts where that token ends."""
        tokens = []
        for token in _lex(self.text, self.pos):
            tokens.append(token)
            kind, _, offset = token
            if kind == "DOT" or kind == "EOF":
                self.pos = offset + len(token[1])  # past the '.', or the end of the text
            elif kind == "ERROR":  # it ran to its line break; read it again for its end
                self.pos = _TOKEN_RE.match(self.text, offset).end()
            else:
                continue
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
        terms: list[tuple[str, str, int]] = []
        for term in rest:  # the list's last token is no term, so this ends in a return or break
            kind, text, offset = term
            if kind not in _TERM_KINDS:
                self.error(text if kind == "ERROR" else f"expected a term, found {text!r}", offset)
                return None
            terms.append(term)
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

