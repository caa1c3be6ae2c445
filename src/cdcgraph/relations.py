"""Relation vocabulary: named predicates with declared algebraic properties.

The transitive, symmetric and acyclic flags (and ``inherits_via``) drive
inference and validation.  The reflexive flag is declarative only: it is
validated against acyclic and saved, but no rule reads it.  The shape
decides the fact payload:

    INTRA   rel(subject, object, domain)
    CROSS   rel(c1, c2, domain1, domain2)
    FUSION  rel(c1, c2, fused, domain)

The closure of a transitive relation ``R`` is named ``R_star``, so no
relation may be registered under that name while ``R`` is transitive.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple
from weakref import WeakSet

from .errors import RegistryError


STAR_SUFFIX = "_star"


def star_label(relation: str) -> str:
    return relation + STAR_SUFFIX


def base_of_star(label: str) -> str | None:
    if label.endswith(STAR_SUFFIX):
        return label[: -len(STAR_SUFFIX)]
    return None


def star_relation(registry: RelationRegistry, label: str) -> RelationSpec | None:
    """The transitive relation whose closure ``label`` names (``<rel>_star``),
    or None.  ``RelationRegistry.register`` refuses to register such a name
    as a relation."""
    base = base_of_star(label)
    if base is None:
        return None
    spec = registry.get(base)
    return spec if spec is not None and spec.transitive else None


class RelationShape(enum.Enum):
    INTRA = "intra"
    CROSS = "cross"
    FUSION = "fusion"

    def __init__(self, value: str) -> None:
        self.concept_count = 3 if value == "fusion" else 2
        domains = 2 if value == "cross" else 1
        # argument positions holding domains; they follow the concepts
        self.domain_positions = tuple(range(self.concept_count, self.concept_count + domains))
        self.arity = self.concept_count + domains


# the shapes and the flags an @relation directive names, in the order it writes them
SHAPE_NAMES = tuple(shape.value for shape in RelationShape)
RELATION_FLAGS = ("transitive", "symmetric", "reflexive", "acyclic")


class RelationSpec(NamedTuple):
    """Declaration of one relation predicate.

    ``inherits_via`` names a carrier relation: facts of this relation
    propagate downward along the carrier's edges (attribute inheritance).
    ``RelationRegistry.register`` refuses a carrier cycle, so every chain of
    carriers ends.
    """

    name: str
    shape: RelationShape = RelationShape.INTRA
    transitive: bool = False
    symmetric: bool = False
    reflexive: bool = False
    acyclic: bool = False
    inherits_via: str | None = None

    def validate(self) -> None:
        if not self.name:
            raise RegistryError("relation name must be non-empty")
        if self.symmetric and self.acyclic:
            raise RegistryError(f"{self.name}: symmetric and acyclic are mutually exclusive")
        if self.reflexive and self.acyclic:
            raise RegistryError(f"{self.name}: reflexive and acyclic are mutually exclusive")
        if self.transitive and self.shape is not RelationShape.INTRA:
            raise RegistryError(f"{self.name}: transitive closure is only defined for intra-domain relations")
        if self.acyclic and self.shape is not RelationShape.INTRA:
            raise RegistryError(f"{self.name}: acyclicity is only defined for intra-domain relations")
        if self.inherits_via is not None and self.shape is not RelationShape.INTRA:
            raise RegistryError(f"{self.name}: inheritance carrier requires an intra-domain relation")


class RelationRegistry:
    """Mutable until frozen; read-only afterwards (KB load freezes it).

    Every ``FactStore`` built on a registry binds itself to it, so that no
    override changes the declaration of a relation a store holds facts of:
    those facts sit in the indexes of the old shape.
    """

    def __init__(self):
        self._specs: dict[str, RelationSpec] = {}
        self._frozen = False
        self._stores = WeakSet()

    def bind(self, store) -> None:
        """Refuse, from now on, to redeclare a relation ``store`` holds facts of."""
        self._stores.add(store)

    def __getstate__(self) -> dict:
        # weak references do not pickle; a store binds itself again when restored
        return {**self.__dict__, "_stores": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _stores=WeakSet())

    def register(self, spec: RelationSpec, override: bool = False) -> None:
        """Add a relation. ``override`` replaces an existing declaration
        (used by KB-file directives to reconfigure built-ins at load time),
        unless a bound store holds facts of the relation and the declaration
        differs."""
        if self._frozen:
            raise RegistryError("registry is frozen")
        held = self._specs.get(spec.name)
        if override and held not in (None, spec) and any(store.relation_domains(spec.name) for store in self._stores):
            raise RegistryError(f"{spec.name}: cannot change the declaration of a relation that holds facts")
        spec.validate()
        if held is not None and not override:
            raise RegistryError(f"relation {spec.name!r} is already registered")
        if spec.inherits_via is not None:
            carrier = self._specs.get(spec.inherits_via)
            if carrier is None:
                raise RegistryError(f"{spec.name}: unknown inheritance carrier {spec.inherits_via!r}")
            if carrier.shape is not RelationShape.INTRA:
                raise RegistryError(f"{spec.name}: inheritance carrier must be intra-domain")
            # every carrier chain ends; the registry holds no cycle yet, so the walk does
            while carrier is not None:
                if carrier.name == spec.name:
                    raise RegistryError(f"{spec.name}: inheritance carriers would form a cycle")
                carrier = self._specs.get(carrier.inherits_via)
        base = self._specs.get(base_of_star(spec.name))
        if base is not None and base.transitive:
            raise RegistryError(f"{spec.name}: names the closure of transitive relation {base.name!r}")
        if spec.transitive and star_label(spec.name) in self._specs:
            raise RegistryError(f"{spec.name}: cannot be transitive while {star_label(spec.name)!r} is a relation")
        self._specs[spec.name] = spec

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def lookup(self, name: str) -> RelationSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise RegistryError(f"unknown relation {name!r}") from None

    def get(self, name: str) -> RelationSpec | None:
        return self._specs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[RelationSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> list[str]:
        return sorted(self._specs)


_INTRA = RelationShape.INTRA
_CROSS = RelationShape.CROSS
_FUSION = RelationShape.FUSION

_BUILTINS = (
    RelationSpec("is_a", _INTRA, transitive=True, acyclic=True),
    RelationSpec("part_of", _INTRA, transitive=True, acyclic=True),
    RelationSpec("has_attribute", _INTRA, inherits_via="is_a"),
    RelationSpec("requires", _INTRA, transitive=True, acyclic=True),
    RelationSpec("cause_of", _INTRA),
    RelationSpec("enables", _INTRA),
    RelationSpec("contrasts_with", _INTRA, symmetric=True),
    RelationSpec("conflicts_with", _INTRA, symmetric=True),
    RelationSpec("evolves_to", _INTRA, transitive=True, acyclic=True),
    RelationSpec("if_then", _INTRA),
    RelationSpec("context_value", _INTRA),
    RelationSpec("strategy", _INTRA),
    RelationSpec("analogous_to", _CROSS, symmetric=True),
    RelationSpec("fuses_with", _FUSION, symmetric=True),
)


def builtin_specs() -> tuple[RelationSpec, ...]:
    return _BUILTINS


def builtin_registry() -> RelationRegistry:
    """Fresh registry holding the fourteen built-in relations."""
    registry = RelationRegistry()
    for spec in _BUILTINS:
        # is_a precedes has_attribute, so the carrier reference resolves
        registry.register(spec)
    return registry


def spec_with_flags(
    name: str,
    shape: RelationShape,
    flags: dict[str, str | bool],
) -> RelationSpec:
    """Build a RelationSpec from directive-style flags (@relation lines)."""
    for key, value in flags.items():
        if key == "inherits_via":
            if not isinstance(value, str):
                raise RegistryError(f"{name}: inherits_via needs a relation name")
        elif key in RELATION_FLAGS:
            if value is not True:
                raise RegistryError(f"{name}: flag {key} takes no value")
        else:
            raise RegistryError(f"{name}: unknown relation flag {key!r}")
    return RelationSpec(name=name, shape=shape, **flags)
