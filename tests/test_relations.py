from __future__ import annotations

import pytest

from cdcgraph import FactStore, RegistryError, RelationShape, RelationSpec, builtin_registry, load_text
from cdcgraph.kbfile import render_directive
from cdcgraph.relations import RELATION_FLAGS, SHAPE_NAMES, spec_with_flags
from conftest import assert_record_contract, assert_tuple_contract

EXPECTED_BUILTINS = {
    "is_a", "part_of", "has_attribute", "requires", "cause_of", "enables",
    "contrasts_with", "conflicts_with", "evolves_to", "if_then",
    "context_value", "strategy", "analogous_to", "fuses_with",
}


def test_builtin_names():
    registry = builtin_registry()
    assert set(registry.names()) == EXPECTED_BUILTINS
    assert len(registry) >= 14


def test_property_table_rows():
    """The five relations with published property rows: T / S / R flags."""
    registry = builtin_registry()
    expected = {
        "is_a": (True, False, False),
        "part_of": (True, False, False),
        "requires": (True, False, False),
        "analogous_to": (False, True, False),
        "fuses_with": (False, True, False),
    }
    for name, (t, s, r) in expected.items():
        spec = registry.lookup(name)
        assert (spec.transitive, spec.symmetric, spec.reflexive) == (t, s, r), name


def test_shapes():
    registry = builtin_registry()
    assert registry.lookup("is_a").shape is RelationShape.INTRA
    assert registry.lookup("analogous_to").shape is RelationShape.CROSS
    assert registry.lookup("fuses_with").shape is RelationShape.FUSION


def test_vocabulary_tables():
    """The shapes and flags a directive names are the enum's values and the
    spec's boolean fields, and a directive writes its flags in that order."""
    assert SHAPE_NAMES == ("intra", "cross", "fusion") == tuple(shape.value for shape in RelationShape)
    assert RELATION_FLAGS == tuple(name for name, default in RelationSpec._field_defaults.items()
                                   if isinstance(default, bool))
    spec = spec_with_flags("r", RelationShape.INTRA, {"acyclic": True, "transitive": True, "inherits_via": "is_a"})
    assert render_directive(spec) == "@relation r intra transitive acyclic inherits_via=is_a."
    with pytest.raises(RegistryError, match="unknown relation flag"):
        spec_with_flags("r", RelationShape.INTRA, {"antisymmetric": True})


def test_acyclic_flags():
    registry = builtin_registry()
    for name in ("is_a", "part_of", "requires", "evolves_to"):
        assert registry.lookup(name).acyclic, name
    for name in ("cause_of", "enables", "contrasts_with", "conflicts_with"):
        assert not registry.lookup(name).acyclic, name


def test_inheritance_carrier():
    spec = builtin_registry().lookup("has_attribute")
    assert spec.inherits_via == "is_a"
    assert not spec.transitive and not spec.symmetric


def test_inert_relations_have_no_flags():
    registry = builtin_registry()
    for name in ("context_value", "strategy", "if_then"):
        spec = registry.lookup(name)
        assert not (spec.transitive or spec.symmetric or spec.reflexive or spec.acyclic)


def test_register_plain_relation():
    registry = builtin_registry()
    registry.register(RelationSpec("applies_to"))
    assert registry.lookup("applies_to").shape is RelationShape.INTRA


def test_register_duplicate_rejected():
    registry = builtin_registry()
    with pytest.raises(RegistryError, match="already registered"):
        registry.register(RelationSpec("is_a"))


def test_register_override_allowed():
    registry = builtin_registry()
    registry.register(RelationSpec("cause_of", transitive=True), override=True)
    assert registry.lookup("cause_of").transitive


def test_symmetric_acyclic_conflict():
    with pytest.raises(RegistryError, match="mutually exclusive"):
        builtin_registry().register(RelationSpec("weird", symmetric=True, acyclic=True))


def test_transitive_needs_intra():
    with pytest.raises(RegistryError):
        builtin_registry().register(RelationSpec("bad", shape=RelationShape.CROSS, transitive=True))


def test_unknown_inherits_via_rejected():
    with pytest.raises(RegistryError, match="carrier"):
        builtin_registry().register(RelationSpec("prop", inherits_via="no_such"))


def test_carrier_cycles_rejected():
    """Every carrier chain ends: a self-carrier, an override of a built-in
    that closes a cycle, and a three-relation cycle are refused, and the
    held declaration stays."""
    registry = builtin_registry()
    registry.register(RelationSpec("r1"))
    registry.register(RelationSpec("r2", inherits_via="r1"))
    registry.register(RelationSpec("r3", inherits_via="r2"))
    for spec in (RelationSpec("r1", transitive=True, inherits_via="r1"),
                 RelationSpec("is_a", transitive=True, acyclic=True, inherits_via="has_attribute"),
                 RelationSpec("r1", inherits_via="r3")):
        held = registry.lookup(spec.name)
        with pytest.raises(RegistryError, match=f"^{spec.name}: inheritance carriers would form a cycle$"):
            registry.register(spec, override=True)
        assert registry.lookup(spec.name) is held
    # a chain that ends is accepted, however long
    registry.register(RelationSpec("r1", inherits_via="has_attribute"), override=True)
    assert registry.lookup("r1").inherits_via == "has_attribute"


@pytest.mark.parametrize("directive, message", [
    ("@relation r intra inherits_via.", "r: inherits_via needs a relation name"),
    ("@relation r intra transitive=yes.", "r: flag transitive takes no value"),
    ("@relation r cross acyclic.", "r: acyclicity is only defined for intra-domain relations"),
    ("@relation r cross inherits_via=is_a.", "r: inheritance carrier requires an intra-domain relation"),
    ("@relation r intra reflexive acyclic.", "r: reflexive and acyclic are mutually exclusive"),
    ("@relation r intra inherits_via=analogous_to.", "r: inheritance carrier must be intra-domain"),
])
def test_refused_directive_registers_nothing(directive, message):
    store = FactStore(builtin_registry())
    result = load_text(directive, store)
    assert [(d.severity, str(d.span), d.message) for d in result.diagnostics] == [("error", "<string>:1:1", message)]
    assert "r" not in store.registry


def test_nameless_relation_and_unknown_lookup_are_refused():
    registry = builtin_registry()
    with pytest.raises(RegistryError, match="^relation name must be non-empty$"):
        registry.register(RelationSpec(""))
    with pytest.raises(RegistryError, match="^unknown relation 'nope'$"):
        registry.lookup("nope")


def test_frozen_registry_rejects_registration():
    registry = builtin_registry()
    registry.freeze()
    with pytest.raises(RegistryError, match="frozen"):
        registry.register(RelationSpec("late"))


def test_star_name_refused_next_to_a_transitive_relation():
    """``<rel>_star`` names the closure of a transitive ``<rel>``, so the
    registry refuses the pair in either order of registration."""
    registry = builtin_registry()
    with pytest.raises(RegistryError, match="names the closure of transitive relation 'is_a'"):
        registry.register(RelationSpec("is_a_star"))
    registry.register(RelationSpec("foo"))
    registry.register(RelationSpec("foo_star", shape=RelationShape.CROSS))
    with pytest.raises(RegistryError, match="foo: cannot be transitive while 'foo_star' is a relation"):
        registry.register(RelationSpec("foo", transitive=True), override=True)
    assert not registry.lookup("foo").transitive

    # a relation that is not transitive names no closure
    registry.register(RelationSpec("cause_of_star"))
    registry.register(RelationSpec("bar", transitive=True))
    with pytest.raises(RegistryError, match="bar_star"):
        registry.register(RelationSpec("bar_star", symmetric=True))
    assert "bar_star" not in registry


def test_relation_spec_record_contract():
    spec = assert_record_contract(RelationSpec, dict(name="is_a", shape=RelationShape.INTRA, transitive=True,
                                                     symmetric=False, reflexive=False, acyclic=True,
                                                     inherits_via=None))
    assert spec == builtin_registry().lookup("is_a")
    assert RelationSpec("r") == RelationSpec("r", RelationShape.INTRA, False, False, False, False, None)
    flagged = spec_with_flags("r", RelationShape.INTRA, {"transitive": True, "inherits_via": "is_a"})
    assert flagged == RelationSpec("r", transitive=True, inherits_via="is_a")
    assert_tuple_contract(spec, acyclic=False)
