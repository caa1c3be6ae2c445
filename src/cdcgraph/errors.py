"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class CdcError(Exception):
    """Base class for all engine errors."""


class DomainSyntaxError(CdcError):
    """Malformed domain expression; ``offset`` is the character offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message, self.offset = message, offset


class QuerySyntaxError(CdcError):
    """Malformed query text; ``offset`` is the character offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class RegistryError(CdcError):
    """Invalid relation registration (duplicate name or contradictory flags)."""


class UnknownRelationError(CdcError):
    """A fact, pattern, or query names a relation that is not registered."""


class ShapeMismatchError(CdcError):
    """A fact's payload does not match the registered shape of its relation."""


class CycleError(CdcError):
    """A relation declared acyclic contains a cycle.

    ``vertices`` lists the concepts along one closed walk, in order; the walk
    returns to ``vertices[0]``.
    """

    def __init__(self, relation: str, domain: str, vertices: tuple):
        path = " -> ".join(str(v) for v in vertices) + f" -> {vertices[0]}"
        super().__init__(f"cycle in acyclic relation {relation!r} within domain {domain!r}: {path}")
        self.relation = relation
        self.domain = domain
        self.vertices = vertices


class StaleClosureError(CdcError):
    """A derived-form query ran in strict mode without an up-to-date closure."""


class NotDerivableError(CdcError):
    """explain() was asked about a fact that is neither asserted nor derivable."""
