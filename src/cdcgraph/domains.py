"""Domain expressions: the context strings that scope every fact and query.

A domain is an ``@``-separated path of segments, most general first, e.g.
``HighSchool@Math@Calculus``.  A segment may fuse several atoms with ``+``
(``product+engineering@mobile``).  Fusion is order-insensitive, so a
segment holds its atoms sorted, and every spelling of a domain parses to one
interned ``DomainExpr``, rendered with fused atoms in lexicographic order.

Grammar (exact):

    domain  := segment ('@' segment)*
    segment := atom ('+' atom)*
    atom    := a letter, digit or '_', then letters, digits, '_', '.' or '-'
"""

from __future__ import annotations

import re
from threading import RLock
from typing import NamedTuple
from weakref import WeakValueDictionary

from .errors import DomainSyntaxError

# The atom alphabet, stated once as regex character classes: the first
# character of an atom, and any later one.  Domains, fact files, queries and
# the saver all build their atom rules from these.
_ATOM_LETTERS = "A-Za-z0-9_"
_ATOM_FIRST = f"[{_ATOM_LETTERS}]"
_ATOM_CHAR = rf"[{_ATOM_LETTERS}.\-]"
_ATOM_RE = re.compile(_ATOM_FIRST + _ATOM_CHAR + "*")
# The fact-file atom: a '.' stays in it only when an atom character follows
# (the one lookahead), so a clause-final dot stays a terminator.  A fact's
# text writes a concept bare exactly when this pattern matches all of it.
_ATOM_TOKEN = rf"{_ATOM_FIRST}[{_ATOM_LETTERS}\-]*(?:\.(?={_ATOM_CHAR})[{_ATOM_LETTERS}\-]*)*"
_ATOM_TOKEN_RE = re.compile(_ATOM_TOKEN)


class DomainSegment(NamedTuple("DomainSegment", [("atoms", tuple[str, ...])])):
    """One path segment: a single atom, or a ``+``-fusion of several.

    Fusion is symmetric, so ``atoms`` is held sorted and deduplicated; each
    atom must match the grammar, so a domain's text always parses back.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple[str, ...]) -> "DomainSegment":
        if not atoms or not all(map(_ATOM_RE.fullmatch, atoms)):
            raise ValueError(f"a segment needs one or more domain atoms, not {atoms!r}")
        return super().__new__(cls, tuple(sorted(set(atoms))))

    @classmethod
    def _make(cls, iterable) -> "DomainSegment":  # so that ``_replace`` checks and sorts too
        return cls(*iterable)

    @property
    def is_fusion(self) -> bool:
        return len(self.atoms) > 1

    def __str__(self) -> str:
        return "+".join(self.atoms)


class DomainExpr:
    """A parsed domain path, outermost (most general) segment first.

    Interned weakly by its canonical text (fusion atoms sorted): equal
    segments yield the identical object, in any thread, so equality and
    hashing are by identity, as for ``ConceptId``.  One nothing refers to is
    dropped.  Copying or unpickling re-parses the text, so it returns that
    same object.
    """

    __slots__ = ("segments", "text", "__weakref__")
    _interned: WeakValueDictionary[str, "DomainExpr"] = WeakValueDictionary()
    _interning = RLock()

    def __new__(cls, segments: tuple[DomainSegment, ...]) -> "DomainExpr":
        if not segments:
            raise ValueError("domain needs at least one segment")
        text = "@".join(map(str, segments))
        with cls._interning:
            obj = cls._interned.get(text)
            if obj is None:
                obj = super().__new__(cls)
                object.__setattr__(obj, "segments", tuple(segments))
                object.__setattr__(obj, "text", text)
                cls._interned[text] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("DomainExpr is immutable")

    def __reduce__(self):
        return (parse_domain, (self.text,))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"DomainExpr({self.text!r})"


# The live domain with this canonical text, or None; parses and makes nothing.
interned_domain = DomainExpr._interned.get


def parse_domain(text: str) -> DomainExpr:
    """Parse a domain string; raises DomainSyntaxError naming the offset.

    Every spelling of a domain returns its one interned value.  The
    canonical text of a live domain is one intern-table lookup; any other
    text is parsed.  Nothing is cached beyond the weak intern table, so a
    domain nothing holds is dropped, and a syntax error raises on every call.
    """
    interned = interned_domain(text)
    if interned is not None:
        return interned
    if not text:
        raise DomainSyntaxError("empty domain", 0)
    segments: list[DomainSegment] = []
    atoms: list[str] = []
    i = 0
    n = len(text)
    while True:
        # one atom must start here; atoms non-empty means we just passed a '+'
        match = _ATOM_RE.match(text, i)
        if match is None:
            if i >= n or text[i] == "@":
                raise DomainSyntaxError("empty atom" if atoms else "empty segment", i)
            if text[i] == "+":
                raise DomainSyntaxError("empty atom", i)
            raise DomainSyntaxError(f"illegal character {text[i]!r}", i)
        atoms.append(match.group())
        i = match.end()
        if i >= n:
            segments.append(DomainSegment(tuple(atoms)))
            return DomainExpr(tuple(segments))
        if text[i] == "+":
            i += 1
            continue
        if text[i] == "@":
            segments.append(DomainSegment(tuple(atoms)))
            atoms = []
            i += 1
            continue
        raise DomainSyntaxError(f"illegal character {text[i]!r}", i)


def format_domain(expr: DomainExpr) -> str:
    """Canonical text of a domain expression; inverse of parse_domain."""
    return expr.text


def is_prefix_of(general: DomainExpr, specific: DomainExpr) -> bool:
    """True iff ``general``'s segments are a leading sublist of ``specific``'s."""
    g, s = general.segments, specific.segments
    return len(g) <= len(s) and s[: len(g)] == g


def fuse(d1: DomainExpr, d2: DomainExpr) -> DomainExpr:
    """Fuse two domains into a single fusion segment; commutative.

    Single-segment inputs contribute their atoms directly.  A multi-segment
    input is flattened to one opaque atom first ('@'/'+' become '.', keeping
    the result inside the domain grammar).
    """

    def head_atoms(d: DomainExpr) -> tuple[str, ...]:
        if len(d.segments) == 1:
            return d.segments[0].atoms
        return (d.text.replace("@", ".").replace("+", "."),)

    return DomainExpr((DomainSegment(head_atoms(d1) + head_atoms(d2)),))
