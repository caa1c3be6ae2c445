from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import (
    ConceptId,
    DomainExpr,
    DomainSyntaxError,
    FactStore,
    builtin_registry,
    eval_query,
    format_domain,
    fuse,
    is_prefix_of,
    load_text,
    parse_domain,
    parse_query,
)
from cdcgraph import domains as domains_module
from cdcgraph.domains import DomainSegment
from conftest import assert_record_contract, assert_tuple_contract, grammar_text

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
    # a segment holds its atoms sorted, whatever order they were written in
    assert expr.segments[0].atoms == ("engineering", "product")
    assert expr.segments[1].atoms == ("mobile",)
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
    # another spelling of the same domain is the same value, atoms sorted
    other = parse_domain("engineering+product@mobile")
    assert other is first
    assert other.segments[0].atoms == ("engineering", "product")


@pytest.mark.parametrize("atoms", [(), ("a b",), ("a", "x@y"), ("",)])
def test_hand_built_segment_takes_only_domain_atoms(atoms):
    with pytest.raises(ValueError):
        DomainSegment(atoms)


def test_a_domain_needs_a_segment():
    with pytest.raises(ValueError, match="^domain needs at least one segment$"):
        DomainExpr(())


def test_domain_intern_table_drops_unreferenced_domains():
    """As for concepts: ``parse_domain`` keeps no cache of its own, so a
    domain nothing holds leaves the intern table."""
    text = "only_here_" + str(random.random()).replace(".", "_") + "@x"
    domain = parse_domain(text)
    assert DomainExpr._interned[text] is domain
    assert pickle.loads(pickle.dumps(domain)) is domain is copy.deepcopy(domain)
    del domain
    gc.collect()
    assert text not in DomainExpr._interned
    # a held domain stays interned across collections
    held = parse_domain(text)
    gc.collect()
    assert parse_domain(text) is held


def test_parse_domain_of_a_held_canonical_text_parses_nothing(monkeypatch):
    """A live domain's canonical text is one intern-table lookup; any other
    spelling is parsed."""
    held = parse_domain("product+engineering@mobile")

    class NoAtoms:
        def match(self, *args):
            raise AssertionError("parsed")

    monkeypatch.setattr(domains_module, "_ATOM_RE", NoAtoms())
    assert parse_domain("engineering+product@mobile") is held
    with pytest.raises(AssertionError, match="parsed"):
        parse_domain("product+engineering@mobile")


def test_domain_equality_and_hash_are_identity():
    assert DomainExpr.__eq__ is object.__eq__
    assert DomainExpr.__hash__ is object.__hash__
    with pytest.raises(AttributeError):
        parse_domain("a@b").text = "b@a"


@given(st.data())
def test_every_spelling_of_a_domain_is_one_value(data):
    text = data.draw(domain_texts)
    expr = parse_domain(text)
    # respell: shuffle and repeat the atoms of each segment
    respelled = "@".join(
        "+".join(data.draw(st.permutations(atoms)) + data.draw(st.lists(st.sampled_from(atoms), max_size=2)))
        for atoms in (segment.split("+") for segment in text.split("@"))
    )
    assert parse_domain(respelled) is expr
    assert DomainExpr(tuple(DomainSegment(seg.atoms[::-1]) for seg in expr.segments)) is expr
    if len(expr.segments) == 1:
        assert fuse(expr, parse_domain(expr.segments[0].atoms[-1])) is expr
    assert copy.copy(expr) is expr
    assert copy.deepcopy(expr) is expr
    assert pickle.loads(pickle.dumps(expr)) is expr


def _made_by_racing_threads(make, n_threads=4):
    """Run ``make()`` in ``n_threads`` threads (more than cores) released
    together, with a 1-microsecond switch interval; return their results."""
    made = [None] * n_threads
    start = threading.Barrier(n_threads)

    def run(k):
        start.wait()
        made[k] = make()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return made


def test_threads_racing_to_make_a_domain_get_one_object():
    # each thread makes the same new domains in one order
    paths = [(DomainSegment((f"race{i}", "x")), DomainSegment((str(i),))) for i in range(5000)]
    made = _made_by_racing_threads(lambda: [DomainExpr(segments) for segments in paths])
    assert all(len(objects) == len(paths) for objects in made)
    assert all(a is b for objects in made[1:] for a, b in zip(made[0], objects))


def test_threads_racing_to_make_a_concept_get_one_object():
    # each thread makes the same new symbols in one order
    symbols = [f"race-concept{i}" for i in range(5000)]
    made = _made_by_racing_threads(lambda: [ConceptId(symbol) for symbol in symbols])
    assert all(len(objects) == len(symbols) for objects in made)
    assert all(a is b for objects in made[1:] for a, b in zip(made[0], objects))


def test_inherit_mode_admits_another_spelling_of_a_prefix():
    store = FactStore(builtin_registry())
    assert load_text('is_a(app, tool, "product+engineering").', store).ok
    query = parse_query('is_a(app, ?W, "engineering+product@mobile")', store.registry).with_modes("inherit")
    assert eval_query(query, store).render_lines() == ["?W = tool"]


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


def test_domain_segment_record_contract():
    segment = assert_record_contract(DomainSegment, dict(atoms=("engineering", "product")))
    assert segment == DomainSegment(("product", "engineering", "product"))
    assert segment != DomainSegment(("product",)) and segment.is_fusion and str(segment) == "engineering+product"
    for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert duplicate(segment) == segment and type(duplicate(segment)) is DomainSegment
    assert repr(segment) == "DomainSegment(atoms=('engineering', 'product'))"
    assert_tuple_contract(segment, atoms=("mobile",))
    assert segment._replace(atoms=("b", "a", "b")).atoms == ("a", "b")
    with pytest.raises(ValueError):
        segment._replace(atoms=("a b",))
