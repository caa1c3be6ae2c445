from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import DomainExpr, DomainSyntaxError, format_domain, fuse, is_prefix_of, parse_domain
from cdcgraph.domains import DomainSegment
from conftest import grammar_text

ATOM_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
ATOM_CONT = ATOM_START + ".-"

atoms = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(ATOM_START),
    st.text(alphabet=ATOM_CONT, max_size=5),
)
segments = st.lists(atoms, min_size=1, max_size=3).map("+".join)
domain_texts = st.lists(segments, min_size=1, max_size=3).map("@".join)


def test_parse_three_segment_path():
    expr = parse_domain("HighSchool@Math@Calculus")
    assert len(expr.segments) == 3
    assert [seg.atoms for seg in expr.segments] == [("HighSchool",), ("Math",), ("Calculus",)]
    assert not any(seg.is_fusion for seg in expr.segments)


def test_parse_fusion_segment():
    expr = parse_domain("product+engineering@mobile")
    assert len(expr.segments) == 2
    assert expr.segments[0].is_fusion
    assert expr.segments[0].canonical_atoms == ("engineering", "product")
    assert expr.segments[1].atoms == ("mobile",)
    # written order is preserved internally, canonical order in the text
    assert expr.segments[0].atoms == ("product", "engineering")
    assert expr.text == "engineering+product@mobile"


def test_parse_single_atom():
    expr = parse_domain("Physics")
    assert len(expr.segments) == 1
    assert expr.text == "Physics"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("a@@b", 2),
        ("a+@b", 2),
        ("a@", 2),
        ("a+", 2),
        ("@a", 0),
        ("+a", 0),
        ("", 0),
    ],
)
def test_parse_empty_parts_name_offset(text, offset):
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text,offset", [("a b", 1), ("a@b$c", 3), ("$x", 0), ("a+'b'", 2)])
def test_parse_illegal_character_names_offset(text, offset):
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain(text)
    assert "illegal character" in str(err.value)
    assert err.value.offset == offset


@settings(max_examples=300, deadline=None)
@given(grammar_text())
def test_parse_domain_never_crashes(text):
    try:
        assert isinstance(parse_domain(text), DomainExpr)
    except DomainSyntaxError:
        pass


def test_fusion_order_insensitive_equality():
    assert parse_domain("a+b@c") == parse_domain("b+a@c")
    assert hash(parse_domain("a+b@c")) == hash(parse_domain("b+a@c"))
    assert parse_domain("a+b") != parse_domain("a@b")


def test_hand_built_domain_equals_parsed():
    built = DomainExpr((DomainSegment(("product", "engineering")), DomainSegment(("mobile",))))
    parsed = parse_domain("engineering+product@mobile")
    assert built.text == parsed.text == "engineering+product@mobile"
    assert built == parsed and hash(built) == hash(parsed)
    assert {parsed: 1}[built] == 1
    assert built != parse_domain("engineering@product@mobile")


def test_parse_domain_shares_one_value_per_text():
    first = parse_domain("product+engineering@mobile")
    assert parse_domain("".join(["product+engineering", "@mobile"])) is first
    # the memo is keyed by the text as written: another spelling of the same
    # domain is an equal value that keeps its own atom order
    other = parse_domain("engineering+product@mobile")
    assert other == first and other is not first
    assert first.segments[0].atoms == ("product", "engineering")
    assert other.segments[0].atoms == ("engineering", "product")


@pytest.mark.parametrize("text,offset", [("a@@b", 2), ("a b", 1), ("", 0)])
def test_parse_domain_raises_on_every_call(text, offset):
    for _ in range(3):
        with pytest.raises(DomainSyntaxError) as err:
            parse_domain(text)
        assert err.value.offset == offset


def test_duplicate_atoms_collapse():
    assert parse_domain("a+a").text == "a"
    assert parse_domain("a+a") == parse_domain("a")


@given(domain_texts)
def test_round_trip(text):
    expr = parse_domain(text)
    assert parse_domain(format_domain(expr)) == expr
    # canonical form is a fixpoint
    assert format_domain(parse_domain(format_domain(expr))) == format_domain(expr)


def test_prefix_examples():
    assert is_prefix_of(parse_domain("Physics"), parse_domain("Physics@Quantum_Mechanics"))
    assert not is_prefix_of(parse_domain("Physics@Quantum_Mechanics"), parse_domain("Physics"))


@given(domain_texts)
def test_prefix_reflexive(text):
    expr = parse_domain(text)
    assert is_prefix_of(expr, expr)


@given(domain_texts, domain_texts)
def test_prefix_antisymmetric(t1, t2):
    a, b = parse_domain(t1), parse_domain(t2)
    if is_prefix_of(a, b) and is_prefix_of(b, a):
        assert a == b


@given(domain_texts, domain_texts, domain_texts)
def test_prefix_transitive(t1, t2, t3):
    a, b, c = parse_domain(t1), parse_domain(t2), parse_domain(t3)
    if is_prefix_of(a, b) and is_prefix_of(b, c):
        assert is_prefix_of(a, c)


def test_fuse_single_atoms():
    fused = fuse(parse_domain("UX"), parse_domain("Engineering"))
    assert fused.text == "Engineering+UX"


def test_fuse_then_refine():
    from cdcgraph import DomainExpr

    fused = fuse(parse_domain("product"), parse_domain("engineering"))
    refined = DomainExpr(fused.segments + parse_domain("mobile").segments)
    assert refined.text == "engineering+product@mobile"
    assert refined == parse_domain("product+engineering@mobile")


def test_fuse_self_collapses():
    fused = fuse(parse_domain("design"), parse_domain("design"))
    assert fused.text == "design"
    assert not fused.segments[0].is_fusion


def test_fuse_multi_segment_paths_become_opaque():
    fused = fuse(parse_domain("physics@quantum"), parse_domain("math"))
    assert fused.text == "math+physics.quantum"
    # result stays inside the grammar
    assert parse_domain(fused.text) == fused


@given(domain_texts, domain_texts)
def test_fuse_commutative(t1, t2):
    a, b = parse_domain(t1), parse_domain(t2)
    assert fuse(a, b) == fuse(b, a)
