"""The query parser's whole-text pattern against the hand parser it falls
back to.  Forcing the fallback (a ``_QUERY_RE`` that never matches) reads
every query character by character; both ways must give equal ``Query``
values, or ``QuerySyntaxError``s with equal messages and offsets."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import QuerySyntaxError, builtin_registry, parse_query
from cdcgraph import query as query_module
from conftest import grammar_text

_NEVER = re.compile(r"(?!)")
REGISTRY = builtin_registry()


def _parse(text: str):
    try:
        return parse_query(text, REGISTRY)
    except QuerySyntaxError as exc:
        return "error", str(exc), exc.offset


def assert_pattern_reads_like_hand_parser(text: str) -> None:
    with mock.patch.object(query_module, "_QUERY_RE", _NEVER):
        expected = _parse(text)
    assert _parse(text) == expected, text


# ---------------------------------------------------------------------------
# a query strategy: well-formed goals with at most one fault
# ---------------------------------------------------------------------------

# c a concept position, d a domain position
SHAPES = {
    "is_a": "ccd", "is_a_star": "ccd", "has_attribute": "ccd", "contrasts_with": "ccd",
    "all_prerequisites": "ccd", "inherited_attributes": "ccd",
    "analogous_to": "ccdd", "analogy_search": "ccdd", "fuses_with": "cccd",
}
CONCEPTS = ("a", "Apple", "x.y", "k-1", "_z9", '"quoted concept"', '"a, b)"')
DOMAINS = ('"d"', '"d@e"', '"b+a@c"', '"Physics@Quantum_Mechanics"', '"x.y"')
VARIABLES = ("?X", "?Y", "?x.1", "?_")
BLANKS = ("", "", " ", " ", "\t", "  ", "\n", "\r\n")
FAULTS = (None,) * 8 + (
    "goal", "arity", "empty", "domain", "variable", "unterminated", "trailing", "bad blank", "bare domain",
)


@st.composite
def query_text(draw) -> tuple[str, str | None]:
    """A query and its fault, None when it is well formed.  A bare atom at
    a domain position is well formed, so it counts as no fault."""
    fault = draw(st.sampled_from(FAULTS))
    goal = draw(st.sampled_from(sorted(SHAPES)))
    kinds = list(SHAPES[goal])
    if fault == "goal":
        goal = draw(st.sampled_from(("frobnicate", "cause_of_star", "is_a_star_star")))
    if fault == "arity" and draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "c")
    elif fault == "arity":
        kinds.pop()
    terms = [draw(st.sampled_from(VARIABLES + (CONCEPTS if kind == "c" else DOMAINS))) for kind in kinds]
    if fault == "empty":
        terms[kinds.index("c")] = '""'
    if fault == "domain":
        terms[kinds.index("d")] = draw(st.sampled_from(('"a@@b"', '""', '"no space"', '"d@"')))
    if fault == "variable":
        terms[draw(st.integers(0, len(terms) - 1))] = draw(st.sampled_from(("?", "? X", "?@")))
    if fault == "bare domain":
        terms[kinds.index("d")] = draw(st.sampled_from(("d", "Physics", "x.y")))
        fault = None
    gaps = [draw(st.sampled_from(BLANKS)) for _ in range(2 * len(terms) + 4)]
    if fault == "bad blank":
        gaps[draw(st.integers(0, len(gaps) - 1))] = draw(st.sampled_from(("\f", "\v", "\u00a0", "\u2003", " \f ")))
    prefix = draw(st.sampled_from(("", "", "?-", "?- ")))
    suffix = draw(st.sampled_from(("", "", ".", ". ")))
    args = ",".join(f"{gaps[2 * i + 2]}{term}{gaps[2 * i + 3]}" for i, term in enumerate(terms))
    text = f"{gaps[0]}{prefix}{goal}{gaps[1]}({args}){suffix}{gaps[-1]}"
    if fault == "unterminated":
        text = text[: text.rindex('"')] if '"' in text else text[: text.rindex(")")]
    if fault == "trailing":
        text += draw(st.sampled_from((" x", ")", "..", " ?- ", ",")))
    return text, fault


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _string_constants(path: Path) -> list[str]:
    return sorted({node.value for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_query_test_strings_read_alike():
    """Every string literal of ``test_query.py``, its parse cases included."""
    texts = _string_constants(Path(__file__).with_name("test_query.py"))
    assert 'is_a(a, ?Y, "d"). x' in texts and len(texts) > 100
    for text in texts:
        assert_pattern_reads_like_hand_parser(text)


def test_grammar_noise_reads_alike():
    @settings(max_examples=300, deadline=None)
    @given(grammar_text())
    def check(text):
        assert_pattern_reads_like_hand_parser(text)

    check()


def test_query_mix_reads_alike():
    @settings(max_examples=500, deadline=None)
    @given(query_text())
    def check(drawn):
        text, fault = drawn
        assert_pattern_reads_like_hand_parser(text)
        if fault is None:
            # the pattern takes every well-formed query whole
            assert query_module._QUERY_RE.fullmatch(text), text

    check()


@pytest.mark.parametrize("text", [
    'is_a(a, ?Y, "d")\f', 'is_a(a,\u00a0?Y, "d")', '\u2003is_a(a, ?Y, "d")', 'is_a(a, ?Y, "d").\v',
])
def test_pattern_refuses_other_blanks(text):
    """Only the blanks ``_skip_ws`` takes; the hand parser reports the rest."""
    assert query_module._QUERY_RE.fullmatch(text) is None
    assert _parse(text)[0] == "error"
    assert_pattern_reads_like_hand_parser(text)
