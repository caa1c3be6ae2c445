"""Differential tests of the index walk and the writers that read it:
``FactStore.facts()``, the ``save_file`` bytes and the ``export_interop``
bytes against ``reference_save.py``, which sorts every fact by
``Fact.sort_key`` and renders each clause on its own."""

from __future__ import annotations

import random

import pytest
import reference_save
from conftest import cross, fusion, intra, random_registry_store

from cdcgraph import (
    CASESTUDY_NAMES,
    FactStore,
    RelationShape,
    RelationSpec,
    builtin_registry,
    export_interop,
    load_casestudy,
    save_file,
)

# symbols the fact file writes bare (upper-case, digit and '_' starts, an
# inner dot) or quotes (a '-' start, a blank, a clause-final dot, a non-ASCII
# letter, and either quote kind), and domains with fusions and levels
SYMBOLS = ("k0", "Apple", "0", "12", "_u", "x.y", "-1", "two words", "x.", "été", "it's", 'say "hi"')
DOMAINS = ("dom0", "dom1", "a+b@c", "Biology@Plant_Taxonomy", "x@y@z")


def assert_matches_reference(store: FactStore, tmp_path) -> None:
    assert store.facts() == reference_save.facts(store)
    for write, reference in ((save_file, reference_save.save_file), (export_interop, reference_save.export_interop)):
        write(store, tmp_path / "walk.out")
        reference(store, tmp_path / "reference.out")
        assert (tmp_path / "walk.out").read_bytes() == (tmp_path / "reference.out").read_bytes(), write.__name__


def with_every_shape(store: FactStore, rng: random.Random) -> FactStore:
    """``store`` with a custom cross and a custom fusion relation, each
    symmetric or not, and symmetric, cross and fusion facts over ``SYMBOLS``
    and ``DOMAINS``; then every fact of one (relation, domain) partition is
    retracted."""
    store.registry.register(RelationSpec("link", RelationShape.CROSS, symmetric=rng.random() < 0.5))
    store.registry.register(RelationSpec("blend", RelationShape.FUSION, symmetric=rng.random() < 0.5))
    pick = rng.choice
    for _ in range(rng.randint(0, 12)):
        store.assert_fact(intra(pick(["contrasts_with", "cause_of"]), pick(SYMBOLS), pick(SYMBOLS), pick(DOMAINS)))
        store.assert_fact(cross(pick(["analogous_to", "link"]), pick(SYMBOLS), pick(SYMBOLS), pick(DOMAINS),
                                pick(DOMAINS)))
        store.assert_fact(fusion(pick(["fuses_with", "blend"]), pick(SYMBOLS), pick(SYMBOLS), pick(SYMBOLS),
                                 pick(DOMAINS)))
    emptied = pick(sorted(store, key=repr))
    for fact in [f for f in store if f.relation == emptied.relation and emptied.domains[0] in f.domains]:
        store.retract_fact(fact)
    return store


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_writers_match_reference_on_case_studies(name, tmp_path):
    store = FactStore(builtin_registry())
    assert load_casestudy(name, store).ok
    assert_matches_reference(store, tmp_path)


def test_writers_match_reference_on_random_registries(tmp_path):
    rng = random.Random(20)
    for _ in range(300):
        assert_matches_reference(with_every_shape(random_registry_store(rng), rng), tmp_path)


def test_writers_match_reference_on_quoted_symbols(tmp_path):
    store = FactStore(builtin_registry())
    for i, subject in enumerate(SYMBOLS):
        for obj in SYMBOLS[i + 1:]:
            store.assert_fact(intra("is_a", subject, obj, DOMAINS[i % len(DOMAINS)]))
            store.assert_fact(cross("analogous_to", subject, obj, DOMAINS[0], DOMAINS[i % len(DOMAINS)]))
    assert_matches_reference(store, tmp_path)
    save_file(store, tmp_path / "kb.cdc")
    text = (tmp_path / "kb.cdc").read_text(encoding="utf-8")
    assert "(x.y, " in text and "'x.'" in text and "\"it's\"" in text and "'say \"hi\"'" in text


def test_walk_skips_partitions_emptied_by_retracts(tmp_path):
    store = FactStore(builtin_registry())
    kept = [intra("is_a", "a", "b", "d2"), cross("analogous_to", "a", "b", "d1", "d2")]
    emptied = [
        intra("is_a", "a", "b", "d1"), intra("is_a", "b", "c", "d1"),  # all of is_a in d1
        intra("cause_of", "a", "b", "d2"),  # all of cause_of
        cross("analogous_to", "a", "c", "d1", "d3"),  # all of analogous_to in d3
        fusion("fuses_with", "a", "b", "ab", "d3"),  # all of fuses_with
    ]
    for fact in kept + emptied:
        store.assert_fact(fact)
    for fact in emptied:
        assert store.retract_fact(fact)
    assert store.facts() == sorted(kept, key=repr)
    assert_matches_reference(store, tmp_path)
