"""The loader against the one it replaced (``tests/reference_loader.py``),
with the reference forced onto its token parser: a ``_CLAUSE_RE`` that never
matches makes it read every clause from tokens.  The loader reads most
clauses with one pattern, keeps per-load memos of terms and a running line
count, and inserts with one walk down an index; it must give equal
``LoadResult``s (facts, spans, diagnostics, in order), equal stores, the
same ``generation`` and the same ``save_file`` bytes, on strict and
non-strict stores, and ``parse_fact_text`` must agree line by line."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcgraph import CASESTUDY_NAMES, CdcError, FactStore, builtin_registry, load_file, load_text, parse_fact_text
from cdcgraph import save_file
from cdcgraph import kbfile
from cdcgraph.kbfile import casestudy_text
from cdcgraph.synthetic import generate_synthetic_store
from conftest import grammar_text
from test_reader_reference import PINNED, _odd_symbol_store, _saved_text
import reference_loader

_NEVER = re.compile(r"(?!)")


def _load(text: str, strict: bool, load, tmp_path):
    store = FactStore(builtin_registry(), strict=strict)
    result = load(text, store, file="f.cdc")
    saved = tmp_path / "saved.cdc"
    save_file(store, saved)
    return result, store.fact_set(), store.generation, saved.read_bytes()


def _parse(line: str, allow_star: bool, parse):
    try:
        return parse(line, builtin_registry(), allow_star=allow_star)
    except CdcError as exc:
        return ("error", str(exc))


def _outcomes(text: str, tmp_path, load=load_text, parse=parse_fact_text):
    lines = text.splitlines()[:50]
    return (
        [_load(text, strict, load, tmp_path) for strict in (False, True)],
        [_parse(line, allow_star, parse) for line in lines for allow_star in (False, True)],
    )


def assert_fast_path_reads_like_tokens(text: str, tmp_path) -> None:
    with mock.patch.object(reference_loader, "_CLAUSE_RE", _NEVER):
        expected = _outcomes(text, tmp_path, reference_loader.load_text, reference_loader.parse_fact_text)
    assert _outcomes(text, tmp_path) == expected


# ---------------------------------------------------------------------------
# a clause-level strategy: mostly one-line facts, with every way a clause
# can leave the fast path
# ---------------------------------------------------------------------------

# Each drawn clause is a well-formed one-line fact with at most one fault,
# so every check the fast path makes after its pattern matched is reached.
SHAPES = {"is_a": "ccd", "requires": "ccd", "contrasts_with": "ccd", "analogous_to": "ccdd", "fuses_with": "cccd"}
CONCEPTS = ("a", "b", "c", "a.b", "x-1", "'New York'", "\"it's\"", "'a, b)'", "'%x'", '"."', "'d'",
            "'a b'", '"a b"', "\"'a b'\"")
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
def test_case_studies_read_alike(name, tmp_path):
    assert_fast_path_reads_like_tokens(casestudy_text(name), tmp_path)


def test_saved_synthetic_store_reads_alike(tmp_path):
    assert_fast_path_reads_like_tokens(_saved_text(generate_synthetic_store(2000, 20, 0), tmp_path), tmp_path)


def test_saved_10k_50_store_reads_alike(tmp_path):
    assert_fast_path_reads_like_tokens(_saved_text(generate_synthetic_store(10000, 50, 0), tmp_path), tmp_path)


def test_saved_odd_symbols_read_alike(tmp_path):
    assert_fast_path_reads_like_tokens(_saved_text(_odd_symbol_store(), tmp_path), tmp_path)


@pytest.mark.parametrize("text", PINNED)
def test_pinned_inputs_read_alike(text, tmp_path):
    assert_fast_path_reads_like_tokens(text, tmp_path)


def test_strict_cycles_and_duplicates_read_alike(tmp_path):
    text = 'is_a(a, b, "d").\nis_a(b, c, d).\nis_a(c, a, "d").\nis_a(a, b, \'d\').\nis_a(c, a, "e").\n'
    assert_fast_path_reads_like_tokens(text, tmp_path)
    result, _, generation, _ = _load(text, True, load_text, tmp_path)
    assert [d.severity for d in result.diagnostics] == ["error", "warning"]
    assert generation == 3


def test_crlf_file_reads_alike(tmp_path):
    """``load_file`` turns CRLF and CR line breaks into LF before reading."""
    text = casestudy_text("cbt").replace("\n", "\r\n")
    text += 'is_a(a,\r\n b, "d").\r@relation r intra \'x\r\nis_a(c, e, "d@@e").\r\n'
    path = tmp_path / "crlf.cdc"
    path.write_bytes(text.encode("utf-8"))
    loaded = []
    for load in (load_file, reference_loader.load_file):
        store = FactStore(builtin_registry(), strict=True)
        loaded.append((load(path, store), store.fact_set(), store.generation))
    assert loaded[0] == loaded[1]
    assert loaded[0][0].facts and loaded[0][0].errors


def test_grammar_noise_reads_alike(tmp_path):
    @settings(max_examples=200, deadline=None)
    @given(grammar_text())
    def check(text):
        assert_fast_path_reads_like_tokens(text, tmp_path)

    check()


def test_clause_mix_reads_alike(tmp_path):
    @settings(max_examples=300, deadline=None)
    @given(clause_text())
    def check(text):
        assert_fast_path_reads_like_tokens(text, tmp_path)

    check()


def test_fast_path_reenters_after_fallback_clauses():
    """The cbt case study has comments and directives between its facts;
    every one of its fact lines still takes the fast path: the token reader
    starts at none of them."""
    text = casestudy_text("cbt")
    assert "%" in text and "@relation" in text
    lexed = []
    clause_tokens = kbfile._Reader.clause_tokens

    def recording(self, pos):
        lexed.append(pos)
        return clause_tokens(self, pos)

    with mock.patch.object(kbfile._Reader, "clause_tokens", recording):
        result = load_text(text, FactStore(builtin_registry()), file="cbt.cdc")
    assert result.ok and result.facts and lexed
    lexed_lines = {text.count("\n", 0, pos) + 1 for pos in lexed}
    assert all(text[pos] in "@:" for pos in lexed)
    assert not lexed_lines & {loaded.span.line for loaded in result.facts}
