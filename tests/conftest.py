from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from cdcgraph import ConceptId, Fact, FactStore, RegistryError, RelationSpec, builtin_registry, parse_domain


# Text biased toward what the readers treat specially: quotes, empty quotes,
# punctuation, comment, directive and variable starts, line breaks, atom
# characters, a relation name and one non-ASCII character.
GRAMMAR_PIECES = (*"'\"().,=%:-@/?+", '""', "@relation", " ", "\n", "\r", "\t", *"aZ9_", "is_a", "\u00e9")


def grammar_text(max_size: int = 40):
    """Hypothesis strategy: strings drawn from ``GRAMMAR_PIECES``."""
    return st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=max_size).map("".join)


@pytest.fixture
def registry():
    return builtin_registry()


@pytest.fixture
def store(registry):
    return FactStore(registry)


def intra(relation: str, subject: str, obj: str, domain: str) -> Fact:
    return Fact.intra(relation, ConceptId(subject), ConceptId(obj), parse_domain(domain))


def cross(relation: str, c1: str, c2: str, d1: str, d2: str) -> Fact:
    return Fact.cross(relation, ConceptId(c1), ConceptId(c2), parse_domain(d1), parse_domain(d2))


def fusion(relation: str, c1: str, c2: str, fused: str, domain: str) -> Fact:
    return Fact.fusion(relation, ConceptId(c1), ConceptId(c2), ConceptId(fused), parse_domain(domain))


def apple_store() -> FactStore:
    """The two-way categorization example used throughout the docs."""
    s = FactStore(builtin_registry())
    s.assert_fact(intra("is_a", "Apple", "Fruit", "Biology@Plant_Taxonomy"))
    s.assert_fact(intra("is_a", "Apple", "Company", "Business@Tech_Sector"))
    return s


def assert_record_contract(cls, fields: dict, frozen: bool = True, hashable: bool = True):
    """The contract every record keeps: construction by keyword and by
    position give equal values, each field reads back by name, a hashable
    record hashes like its equal and an unhashable one raises ``TypeError``,
    and a frozen one refuses assignment.  Returns the record built by keyword."""
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert by_name == by_position and not by_name != by_position and by_name is not by_position
    for name, value in fields.items():
        assert getattr(by_name, name) == value
    if hashable:
        assert hash(by_name) == hash(by_position)
    else:
        with pytest.raises(TypeError):
            hash(by_name)
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(by_name, name, fields[name])
    return by_name


def assert_tuple_contract(record, hashable: bool = True, **change) -> None:
    """A ``NamedTuple`` record is the tuple of its fields: it equals that
    plain tuple, hashes like it when hashable, has its ``len``, and
    ``_replace`` makes the record with the ``change`` fields changed."""
    fields = tuple(getattr(record, name) for name in type(record)._fields)
    assert record == fields and tuple(record) == fields and len(record) == len(fields)
    if hashable:
        assert hash(record) == hash(fields) and {fields: 1}[record] == 1
    changed = record._replace(**change)
    assert type(changed) is type(record) and changed != record
    assert changed == type(record)(**{**record._asdict(), **change})
    with pytest.raises(AttributeError):
        record.extra = 1


def carrier_chain_text(n: int) -> str:
    """A KB of ``n`` ``under`` edges c0000 -> c0001 -> ... and one ``trait``
    on the last concept, which every concept inherits along ``under``: the
    derivation of ``trait(c0000, red, "d")`` nests ``n`` levels deep.
    ``under`` is not transitive, so the closure holds only ``n`` facts."""
    lines = ["@relation under intra.", "@relation trait intra inherits_via=under."]
    lines += [f'under(c{i:04d}, c{i + 1:04d}, "d").' for i in range(n)]
    lines.append(f'trait(c{n:04d}, red, "d").')
    return "\n".join(lines) + "\n"


# An inherited r1 edge is the first premise of r1_star(k0, k3, "d"), so its
# derivation holds a derived premise before a sibling.
DERIVED_EDGE_KB = """\
@relation c1 intra.
@relation r1 intra transitive inherits_via=c1.
c1(k0, k1, "d").
r1(k1, k2, "d").
r1(k2, k3, "d").
"""


def random_dag_store(
    rng: random.Random,
    relations: tuple[str, ...] = ("is_a", "part_of", "requires"),
    max_concepts: int = 12,
    max_domains: int = 3,
    density: float = 0.3,
) -> tuple[FactStore, dict[tuple[str, str], set[tuple[ConceptId, ConceptId]]]]:
    """Random per-domain DAGs; returns the store and the raw edge sets keyed
    by (relation, domain text) for oracle comparison."""
    store = FactStore(builtin_registry())
    n = rng.randint(2, max_concepts)
    concepts = [ConceptId(f"c{i:02d}") for i in range(n)]
    n_domains = rng.randint(1, max_domains)
    edges: dict[tuple[str, str], set[tuple[ConceptId, ConceptId]]] = {}
    for d in range(n_domains):
        domain_text = f"dom{d}"
        domain = parse_domain(domain_text)
        for relation in relations:
            ranked = concepts[:]
            rng.shuffle(ranked)
            chosen: set[tuple[ConceptId, ConceptId]] = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        chosen.add((ranked[i], ranked[j]))
            for a, b in chosen:
                store.assert_fact(Fact.intra(relation, a, b, domain))
            edges[(relation, domain_text)] = chosen
    return store, edges


def random_registry_store(rng: random.Random) -> FactStore:
    """Built-ins plus two to four custom relations with random flags: carriers
    that are themselves symmetric, transitive or inheriting, chains of
    carriers, and cycles (self-loops included) in every relation that is not
    acyclic."""
    registry = builtin_registry()
    names = [f"r{i}" for i in range(rng.randint(2, 4))]
    for k, name in enumerate(names):
        symmetric = rng.random() < 0.5
        carriers = names[:k] + ["is_a", "contrasts_with", None, None]
        registry.register(RelationSpec(
            name,
            transitive=rng.random() < 0.5,
            symmetric=symmetric,
            acyclic=not symmetric and rng.random() < 0.25,
            inherits_via=rng.choice(carriers),
        ))
    if rng.random() < 0.2:
        # a self-carrier is a carrier cycle, which the registry refuses; the
        # draw stays so the rest of the random stream is unchanged
        self_carrier = RelationSpec(names[0], transitive=rng.random() < 0.5, inherits_via=names[0])
        with pytest.raises(RegistryError, match="cycle"):
            registry.register(self_carrier, override=True)
    store = FactStore(registry)
    concepts = [ConceptId(f"k{i}") for i in range(rng.randint(3, 7))]
    domains = [parse_domain(f"dom{d}") for d in range(rng.randint(1, 2))]
    relations = names + ["is_a", "contrasts_with", "has_attribute"]
    for domain in domains:
        for name in relations:
            spec = registry.lookup(name)
            ranked = concepts[:]
            rng.shuffle(ranked)
            for i, a in enumerate(ranked):
                for j, b in enumerate(ranked):
                    if spec.acyclic and i >= j:
                        continue
                    if rng.random() < 0.2:
                        store.assert_fact(Fact.intra(name, a, b, domain))
    if rng.random() < 0.3:
        store.assert_fact(cross("analogous_to", "k0", "k1", "dom0", "dom1"))
    return store
