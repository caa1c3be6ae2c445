"""The character-loop fact-file lexer and the token-object parser that the
regex reader in ``cdcgraph.kbfile`` replaced, kept as the reference for
``tests/test_reader_reference.py``.  Unchanged but for two things, each
changed in both readers.  ``skip_to_dot``'s recovery was fixed twice: it
stops after an unterminated quote, and after a '.' it has already taken, so
an error found on a clause's own '.' does not swallow the next clause.  And
an unterminated quote where an ``@relation`` flag should be is reported as
``unterminated quote``, not as ``bad @relation flag 'unterminated quote'``.

``_lex`` walks the text one character at a time, tracking line and column;
``_Parser`` reads its ``_Token`` objects with the grammar and error recovery
the new reader must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from cdcgraph.kbfile import Diagnostic, SourceSpan

_ATOM_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_ATOM_CONT = _ATOM_START | set(".-")


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
        # Changed on purpose from the replaced reader, in step with
        # kbfile._Parser: recovery also stops after an unterminated quote,
        # which ran to the line break and took that line's '.' with it, and
        # after a '.' already taken, which ended the malformed clause.
        if self.tokens[self.pos - 1].kind in ("ERROR", "DOT"):
            return
        while self.take().kind not in ("DOT", "EOF", "ERROR"):
            pass

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
                # changed on purpose, in step with kbfile: an unterminated
                # quote is reported as one, not quoted as a flag
                self.error(token.text if token.kind == "ERROR" else f"bad @relation flag {token.text!r}", token)
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
