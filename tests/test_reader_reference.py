"""The fact-file loader against its slowest reference: the loader it
replaced (``tests/reference_loader.py``), fed by the character-loop lexer
and token-object parser that came before that one
(``tests/reference_lexer.py``).  Both must read a text to the same tokens at
the same line and column, the same facts, spans and diagnostics, and the
same store."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings

from cdcgraph import (
    CASESTUDY_NAMES,
    CdcError,
    ConceptId,
    Fact,
    FactStore,
    builtin_registry,
    load_text,
    parse_domain,
    parse_fact_text,
    save_file,
)
from cdcgraph import kbfile
from cdcgraph.kbfile import casestudy_text
from cdcgraph.synthetic import generate_synthetic_store
from conftest import grammar_text
import reference_lexer
import reference_loader

PINNED = (
    "",
    'is_a(a, b, "d").\r\nis_a(c, e, "d").\r\n',
    "is_a(a.., b, d).",
    "a..",
    "@relationx r intra.",
    "@relation. is_a(a, b, d).",
    "is_a('a, b, \"d\").\nis_a(c, e, \"d\").\n",
    "is_a('a\rb', c, d).\nis_a(\"x\ry\", c, d).",
    'is_a(a, b, "d").\n% a comment at the end of the file',
    "% only a comment",
    # an error found on the clause's own '.': the next line is the next clause
    'is_a(a, b, "d".\nis_a(c, e, "d").',
    "@relation .\nis_a(c, e, \"d\").",
    "@relation r .\nis_a(c, e, \"d\").",
    "@relation r intra inherits_via=.\nis_a(c, e, \"d\").",
    "is_a(a, .\nis_a(c, e, \"d\").",
    ":- dynamic a/.\nis_a(c, e, \"d\").",
    ".\nis_a(c, e, \"d\").",
    # a clause over two lines, then a fact and an error: the line count goes on from both
    'is_a(a,\n b, "d").\nis_a(c, e, "d").\nis_a(q, r, "d@@e").',
    # the quote kinds of one symbol, and a symbol holding the other quote kind
    "is_a('a b', \"a b\", d).\nis_a(\"'a b'\", 'a b', d).\nis_a('\"a b\"', \"'a b'\", d).",
    # a domain that does not read, twice: each time it is an error
    'is_a(a, b, "d@@e").\nis_a(c, e, "d@@e").\nis_a(c, e, \'d\').\nis_a(c, e, d).',
    "@relation r intra 'x\nis_a(c, e, \"d\").",
    # clauses skipped without a diagnostic that end at an open quote: a
    # lone fact text that ends so is still refused
    ":- dynamic foo/3 'x\nfoo :- 'x\nis_a(a, b, \"d\"). foo :- 'x\nis_a(a, b, \"d\"). % it's",
)


def _offset_to_line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - (text.rfind("\n", 0, offset) + 1) + 1


class _ReferenceReader(reference_loader._Parser):
    """The replaced loader's fact assembly fed by the reference lexer and
    parser: their line/column spans are turned into offsets, and offsets back
    into spans, by counting newlines rather than through either reader."""

    def __init__(self, text: str, file: str, diagnostics: list, registry=None):
        self.text = text
        self.file = file
        self.registry = registry
        self.diagnostics = diagnostics
        self.line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        self.reference = reference_lexer._Parser(reference_lexer._lex(text, file), file, diagnostics)

    def offset(self, span: kbfile.SourceSpan) -> int:
        return self.line_starts[span.line - 1] + span.column - 1

    def span(self, offset: int) -> kbfile.SourceSpan:
        return kbfile.SourceSpan(self.file, *_offset_to_line_col(self.text, offset))

    def items(self):
        for item in self.reference.items():
            if item[0] == "clause":
                _, name, terms, span = item
                terms = [(kind, text, self.offset(term_span)) for kind, text, term_span in terms]
                yield ("clause", name, terms, self.offset(span))
            else:
                yield (*item[:-1], self.offset(item[-1]))


def reference_tokens(text: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.line, t.col) for t in reference_lexer._lex(text, "f.cdc")]


def reader_tokens(text: str) -> list[tuple[str, str, int, int]]:
    return [(kind, value, *_offset_to_line_col(text, offset)) for kind, value, offset in kbfile._lex(text)]


def load_outcome(text: str, load=load_text):
    store = FactStore(builtin_registry())
    result = load(text, store, file="f.cdc")
    return (
        [str(d) for d in result.diagnostics],
        [(loaded.fact, loaded.span) for loaded in result.facts],
        store.fact_set(),
    )


def fact_outcome(text: str, allow_star: bool, parse=parse_fact_text):
    try:
        return repr(parse(text, builtin_registry(), allow_star=allow_star))
    except CdcError as exc:
        return ("error", str(exc))


def outcomes(text: str, load=load_text, parse=parse_fact_text):
    lines = text.splitlines()[:50]
    return (
        load_outcome(text, load),
        [fact_outcome(line, allow_star, parse) for line in lines for allow_star in (False, True)],
    )


def assert_reads_like_reference(text: str) -> None:
    assert reader_tokens(text) == reference_tokens(text)
    with mock.patch.object(reference_loader, "_Parser", _ReferenceReader):
        expected = outcomes(text, reference_loader.load_text, reference_loader.parse_fact_text)
    assert outcomes(text) == expected


def _saved_text(store: FactStore, tmp_path) -> str:
    path = tmp_path / "saved.cdc"
    save_file(store, path)
    return path.read_text(encoding="utf-8")


def _odd_symbol_store() -> FactStore:
    store = FactStore(builtin_registry())
    symbols = [ConceptId(s) for s in ("New York", "it's", "end.", "x.-y", "a..b", 'say "hi"', "plain")]
    domains = [parse_domain(text) for text in ("d", "x.y@z", "a+b@c")]
    for i, subject in enumerate(symbols):
        for j, obj in enumerate(symbols):
            if i != j:
                store.assert_fact(Fact.intra("is_a", subject, obj, domains[(i + j) % 3]))
    store.assert_fact(Fact.fusion("fuses_with", symbols[0], symbols[2], symbols[3], domains[2]))
    return store


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_case_studies_read_like_reference(name):
    assert_reads_like_reference(casestudy_text(name))


def test_saved_synthetic_store_reads_like_reference(tmp_path):
    assert_reads_like_reference(_saved_text(generate_synthetic_store(2000, 20, 0), tmp_path))


def test_saved_odd_symbols_read_like_reference(tmp_path):
    text = _saved_text(_odd_symbol_store(), tmp_path)
    assert "'New York'" in text and "'end.'" in text and " x.-y," in text and "a..b" in text
    assert_reads_like_reference(text)


@pytest.mark.parametrize("text", PINNED)
def test_pinned_inputs_read_like_reference(text):
    assert_reads_like_reference(text)


def test_noise_reads_like_reference():
    @settings(max_examples=300, deadline=None)
    @given(grammar_text())
    @example('is_a(x, y, "a@@b").\nis_a(p, q, "a+").')
    @example(":- dynamic is_a/3, foo/2.\n:- dynamic bar/3.\nbar(a, b, d).")
    def check(text):
        assert_reads_like_reference(text)

    check()
