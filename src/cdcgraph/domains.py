"""Domain expressions: the context strings that scope every fact and query.

A domain is an ``@``-separated path of segments, most general first, e.g.
``HighSchool@Math@Calculus``.  A segment may fuse several atoms with ``+``
(``product+engineering@mobile``); fusion is order-insensitive, so the
canonical rendering sorts fused atoms lexicographically.

Grammar (exact):

    domain  := segment ('@' segment)*
    segment := atom ('+' atom)*
    atom    := a letter, digit or '_', then letters, digits, '_', '.' or '-'
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainSyntaxError

# The atom alphabet, stated once as regex character classes: the first
# character of an atom, and any later one.  Domains, fact files, queries and
# the saver all build their atom rules from these.
_ATOM_LETTERS = "A-Za-z0-9_"
_ATOM_FIRST = f"[{_ATOM_LETTERS}]"
_ATOM_CHAR = rf"[{_ATOM_LETTERS}.\-]"
_ATOM_RE = re.compile(_ATOM_FIRST + _ATOM_CHAR + "*")


@dataclass(frozen=True, eq=False, slots=True)
class DomainSegment:
    """One path segment: a single atom, or a ``+``-fusion of several.

    ``atoms`` keeps the order in which the atoms were written; equality,
    hashing, and formatting use the canonical (sorted, deduplicated) form,
    since fusion is symmetric.  It is computed once, at construction.
    """

    atoms: tuple[str, ...]
    canonical_atoms: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("segment needs at least one atom")
        object.__setattr__(self, "canonical_atoms", tuple(sorted(set(self.atoms))))

    @property
    def is_fusion(self) -> bool:
        return len(self.canonical_atoms) > 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainSegment):
            return NotImplemented
        return self.canonical_atoms == other.canonical_atoms

    def __hash__(self) -> int:
        return hash(self.canonical_atoms)

    def __str__(self) -> str:
        return "+".join(self.canonical_atoms)


@dataclass(frozen=True, eq=False, slots=True)
class DomainExpr:
    """A parsed domain path, outermost (most general) segment first.

    Immutable value; safe to share and to use as a dict key.  ``text``, the
    canonical rendering (fusion atoms sorted), is computed once, at
    construction, and the hash is the hash of that text.
    """

    segments: tuple[DomainSegment, ...]
    text: str = field(init=False, repr=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("domain needs at least one segment")
        object.__setattr__(self, "text", "@".join(str(seg) for seg in self.segments))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, DomainExpr):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        # equal segments render equal text, so this agrees with __eq__
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"DomainExpr({self.text!r})"


# Distinct domain texts remembered by parse_domain; a knowledge base has far
# fewer domains than facts.
_PARSE_CACHE_SIZE = 4096


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_domain(text: str) -> DomainExpr:
    """Parse a domain string; raises DomainSyntaxError naming the offset.

    Memoized by the text as written, so repeated text returns one shared
    (immutable) value whose segments keep their written atom order.  Syntax
    errors are not remembered: they raise on every call.
    """
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
            return d.segments[0].canonical_atoms
        return (d.text.replace("@", ".").replace("+", "."),)

    merged = tuple(sorted(set(head_atoms(d1)) | set(head_atoms(d2))))
    return DomainExpr((DomainSegment(merged),))
