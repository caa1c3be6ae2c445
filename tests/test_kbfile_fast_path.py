"""The loader's whole-clause fast path against the token parser it falls
back to.  Forcing the fallback (a ``_CLAUSE_RE`` that never matches) reads
every clause from tokens; both ways must give the same parser items (terms
with their kinds and offsets), equal ``LoadResult``s (facts, spans,
diagnostics), equal stores and the same ``generation``, on strict and
non-strict stores, and ``parse_fact_text`` must agree line by line."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import CASESTUDY_NAMES, CdcError, FactStore, builtin_registry, load_text, parse_fact_text
from cdcgraph import kbfile
from cdcgraph.kbfile import casestudy_text
from cdcgraph.synthetic import generate_synthetic_store
from conftest import grammar_text
from test_reader_reference import PINNED, _odd_symbol_store, _saved_text

_NEVER = re.compile(r"(?!)")


def _load(text: str, strict: bool):
    store = FactStore(builtin_registry(), strict=strict)
    result = load_text(text, store, file="f.cdc")
    return result, store.fact_set(), store.generation


def _parse(line: str, allow_star: bool):
    try:
        return parse_fact_text(line, builtin_registry(), allow_star=allow_star)
    except CdcError as exc:
        return ("error", str(exc))


def _items(text: str):
    diagnostics = []
    return list(kbfile._Parser(text, "f.cdc", diagnostics, builtin_registry()).items()), diagnostics


def _outcomes(text: str):
    lines = text.splitlines()[:50]
    return (
        _items(text),
        [_load(text, strict) for strict in (False, True)],
        [_parse(line, allow_star) for line in lines for allow_star in (False, True)],
    )


def assert_fast_path_reads_like_tokens(text: str) -> None:
    with mock.patch.object(kbfile, "_CLAUSE_RE", _NEVER):
        expected = _outcomes(text)
    assert _outcomes(text) == expected


# ---------------------------------------------------------------------------
# a clause-level strategy: mostly one-line facts, with every way a clause
# can leave the fast path
# ---------------------------------------------------------------------------

# Each drawn clause is a well-formed one-line fact with at most one fault,
# so every check the fast path makes after its pattern matched is reached.
SHAPES = {"is_a": "ccd", "requires": "ccd", "contrasts_with": "ccd", "analogous_to": "ccdd", "fuses_with": "cccd"}
CONCEPTS = ("a", "b", "c", "a.b", "x-1", "'New York'", "\"it's\"", "'a, b)'", "'%x'", '"."', "'d'")
DOMAINS = ('"d"', "d", '"d@e"', '"b+a@c"', "x.y", "'d'")
BAD_DOMAINS = ('"a@@b"', '""', '"no space"', "'d@'")
BLANKS = ("", "", " ", " ", "\t", "  ")
SEPARATORS = ("\n", "\n", "\n", " ", "", "\n\n", "\r\n", "\n% comment\n", "  % trailing\n")
FAULTS = (None,) * 6 + ("other", "head", "arity", "empty", "domain", "comment", "newline", "rule")
OTHER_CLAUSES = (
    "@relation r intra transitive.",
    "@relation is_a intra.",
    "% just a comment",
    ":- dynamic is_a/3, q/3.",
    "is_a(a, b, d",
    "is_a('is_a(a, b, d).",
    "r(a, b, \"d\").",
)


@st.composite
def clause(draw) -> str:
    fault = draw(st.sampled_from(FAULTS))
    if fault == "other":
        return draw(st.sampled_from(OTHER_CLAUSES))
    head = draw(st.sampled_from(sorted(SHAPES)))
    kinds = list(SHAPES[head])
    if fault == "head":
        head = draw(st.sampled_from(("no_such", "is_a_star", "r")))
    if fault == "arity" and draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "c")
    elif fault == "arity":
        kinds.pop()
    terms = [draw(st.sampled_from(CONCEPTS if kind == "c" else DOMAINS)) for kind in kinds]
    if fault == "empty":
        terms[kinds.index("c")] = "''"
    if fault == "domain":
        terms[kinds.index("d")] = draw(st.sampled_from(BAD_DOMAINS))
    gaps = [draw(st.sampled_from(BLANKS)) for _ in range(2 * len(terms) + 2)]
    if fault in ("comment", "newline"):
        gaps[draw(st.integers(0, len(gaps) - 1))] = " % note\n" if fault == "comment" else "\n"
    args = ",".join(f"{gaps[2 * i + 1]}{term}{gaps[2 * i + 2]}" for i, term in enumerate(terms))
    end = " :- true." if fault == "rule" else "."
    return f"{head}{gaps[0]}({args}){gaps[-1]}{end}"


def clause_text():
    return st.lists(st.tuples(clause(), st.sampled_from(SEPARATORS)), max_size=12).map(
        lambda parts: "".join(c + sep for c, sep in parts)
    )


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_case_studies_read_alike(name):
    assert_fast_path_reads_like_tokens(casestudy_text(name))


def test_saved_synthetic_store_reads_alike(tmp_path):
    assert_fast_path_reads_like_tokens(_saved_text(generate_synthetic_store(2000, 20, 0), tmp_path))


def test_saved_odd_symbols_read_alike(tmp_path):
    assert_fast_path_reads_like_tokens(_saved_text(_odd_symbol_store(), tmp_path))


@pytest.mark.parametrize("text", PINNED)
def test_pinned_inputs_read_alike(text):
    assert_fast_path_reads_like_tokens(text)


def test_strict_cycles_and_duplicates_read_alike():
    text = 'is_a(a, b, "d").\nis_a(b, c, d).\nis_a(c, a, "d").\nis_a(a, b, \'d\').\nis_a(c, a, "e").\n'
    assert_fast_path_reads_like_tokens(text)
    result, _, generation = _load(text, strict=True)
    assert [d.severity for d in result.diagnostics] == ["error", "warning"]
    assert generation == 3


def test_grammar_noise_reads_alike():
    @settings(max_examples=200, deadline=None)
    @given(grammar_text())
    def check(text):
        assert_fast_path_reads_like_tokens(text)

    check()


def test_clause_mix_reads_alike():
    @settings(max_examples=300, deadline=None)
    @given(clause_text())
    def check(text):
        assert_fast_path_reads_like_tokens(text)

    check()


def test_fast_path_reenters_after_fallback_clauses():
    """The cbt case study has comments and directives between its facts;
    every one of its fact lines still takes the fast path."""
    text = casestudy_text("cbt")
    assert "%" in text and "@relation" in text
    taken = []
    whole_clause = kbfile._Parser.whole_clause

    def counting(self):
        item = whole_clause(self)
        if item is not None:
            taken.append(item[3])
        return item

    with mock.patch.object(kbfile._Parser, "whole_clause", counting):
        result = load_text(text, FactStore(builtin_registry()), file="cbt.cdc")
    assert result.ok and result.facts
    starts = [0, *(i + 1 for i, ch in enumerate(text) if ch == "\n")]
    assert [(starts.index(offset) + 1, 1) for offset in taken] == [(f.span.line, f.span.column) for f in result.facts]
