"""Query plans against the evaluator they replaced.

``eval_query`` reads each goal through one reader chosen by its shape and
bound positions and projects the variables from rows that already hold the
goal's constants.  ``reference_query.eval_query`` reads every intra-domain
goal through ``match`` and unifies each row with every argument.  Both must
give equal answers, or raise the same error, for every registered relation,
every star goal and every alias, with each pattern of bound and unbound
arguments (a concept absent from the store, a domain deeper than any held,
a repeated variable and a hand-built constant of the wrong kind included),
in both domain modes, lazily, strictly with a current closure, and strictly
without one.
"""

from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import pytest

from cdcgraph import (
    CASESTUDY_NAMES,
    CdcError,
    ConceptId,
    FactStore,
    QuerySyntaxError,
    RelationShape,
    builtin_registry,
    eval_query,
    load_casestudy,
    load_text,
    materialize,
    parse_domain,
)
from cdcgraph import query as query_module
from cdcgraph.inference import star_label
from cdcgraph.query import EXACT, INHERIT, ConceptConst, DomainConst, Query, Variable
from conftest import random_registry_store
import reference_query

ABSENT = ConceptId("absent_concept")


def outcome(evaluate, query: Query, store: FactStore, closure, strict: bool):
    try:
        return evaluate(query, store, closure, strict)
    except CdcError as exc:
        return type(exc).__name__, str(exc)


def goals(store: FactStore) -> list[tuple[str, RelationShape]]:
    """Every goal the registry resolves, with the shape of its arguments."""
    registry = store.registry
    names = [spec.name for spec in registry] + [star_label(spec.name) for spec in registry if spec.transitive]
    out = []
    for name in dict.fromkeys(names + list(query_module._ALIASES)):
        try:
            star, spec = query_module._resolve_goal(name, registry)
        except QuerySyntaxError:
            continue
        out.append((name, RelationShape.INTRA if star else spec.shape))
    return out


def argument_lists(shape: RelationShape, concepts: list, domains: list, rng: random.Random):
    """For each set of bound positions, arguments with constants drawn at
    those positions and a variable at each other one, then the same with
    each pair of variables made one repeated variable.  One constant in ten
    is of the other kind, as only a hand-built query can hold."""
    arity, domain_positions = shape.arity, shape.domain_positions
    for mask in range(1 << arity):
        bound = [p for p in range(arity) if mask >> p & 1]
        free = [p for p in range(arity) if not mask >> p & 1]
        for _ in range(2 if bound else 1):
            args = [Variable(f"V{p}") for p in range(arity)]
            for p in bound:
                if (p in domain_positions) is not (rng.random() < 0.1):
                    args[p] = DomainConst(rng.choice(domains))
                else:
                    args[p] = ConceptConst(rng.choice(concepts))
            yield tuple(args)
            for i, j in combinations(free, 2):
                yield tuple(args[i] if p == j else arg for p, arg in enumerate(args))


def assert_plans_match_reference(store: FactStore, seed: int) -> int:
    """Returns how many evaluations were compared."""
    rng = random.Random(seed)
    facts = store.facts()
    concepts = sorted({c for fact in facts for c in fact.concepts}, key=str) + [ABSENT]
    held = sorted({d for fact in facts for d in fact.domains}, key=str)
    domains = held + [parse_domain(f"{d.text}@deeper") for d in held[:3]] + [parse_domain("nowhere")]
    current = materialize(store)
    compared = 0
    for goal, shape in goals(store):
        for args in argument_lists(shape, concepts, domains, rng):
            for mode in (EXACT, INHERIT):
                query = Query(goal, args, mode)
                for closure, strict in ((None, False), (current, True), (None, True)):
                    got = outcome(eval_query, query, store, closure, strict)
                    assert got == outcome(reference_query.eval_query, query, store, closure, strict), (query, strict)
                    compared += 1
    return compared


def kb_store(text: str) -> FactStore:
    store = FactStore(builtin_registry())
    assert load_text(text, store).ok
    return store


# nested domains for inherit mode, both orientations and self-loops of
# symmetric facts, and cross and fusion facts whose two sides share concepts
FACTS = """
is_a(a, b, "d").
is_a(b, c, "d").
is_a(x, b, "d@e").
is_a(a, c, "d@e@f").
has_attribute(b, red, "d").
has_attribute(c, round, "d@e").
has_attribute(x, red, "d@e").
has_attribute(red, a, "d").
contrasts_with(a, b, "d").
contrasts_with(c, a, "d").
contrasts_with(a, a, "d@e").
contrasts_with(b, x, "d@e").
conflicts_with(b, x, "d@e").
analogous_to(a, b, "d", "e").
analogous_to(b, c, "e", "d@e").
analogous_to(c, a, "d", "d").
analogous_to(a, a, "d@e", "d").
analogous_to(b, a, "e", "d").
fuses_with(a, b, ab, "d").
fuses_with(b, a, ba, "d@e").
fuses_with(c, c, cc, "d").
"""

EXPLICIT_STORES = {
    "builtin": "",
    "symmetric-inheriting": "@relation has_attribute intra symmetric inherits_via=is_a.\n",
    "symmetric-carrier": "@relation has_attribute intra inherits_via=contrasts_with.\n",
    "inheriting-symmetric-relation": "@relation contrasts_with intra symmetric inherits_via=is_a.\n",
    "cross-and-fusion-not-symmetric": "@relation analogous_to cross.\n@relation fuses_with fusion.\n",
    "cross-as-intra": "@relation analogous_to intra symmetric.\n",
}


@pytest.mark.parametrize("name", EXPLICIT_STORES)
def test_plans_match_reference_on_explicit_stores(name):
    text = EXPLICIT_STORES[name] + "\n".join(
        line for line in FACTS.splitlines() if name != "cross-as-intra" or not line.startswith("analogous_to"))
    if name == "cross-as-intra":
        text += 'analogous_to(a, b, "d").\nanalogous_to(c, a, "d@e").\n'
    assert assert_plans_match_reference(kb_store(text), 5)


@pytest.mark.parametrize("name", CASESTUDY_NAMES)
def test_plans_match_reference_on_case_studies(name):
    store = FactStore(builtin_registry())
    load_casestudy(name, store)
    assert assert_plans_match_reference(store, 11)


def test_plans_match_reference_on_random_registries():
    rng = random.Random(97)
    for seed in range(12):
        store = random_registry_store(random.Random(seed))
        for fact in store.facts():
            # a deeper copy of some facts, for inherit mode
            if len(fact.domains) == 1 and rng.random() < 0.3:
                store.assert_fact(fact._replace(domains=(parse_domain(f"{fact.domain.text}@s{rng.randint(0, 1)}"),)))
        assert assert_plans_match_reference(store, seed)


def test_intra_goals_read_the_index_without_match():
    """Only cross and fusion goals still go through ``FactStore.match``."""
    store = kb_store(FACTS)
    intra = [(goal, shape) for goal, shape in goals(store) if shape is RelationShape.INTRA]
    assert {"is_a", "is_a_star", "has_attribute", "contrasts_with", "all_prerequisites"} <= {g for g, _ in intra}
    rng = random.Random(3)
    concepts = [ConceptId(c) for c in "abcx"]
    domains = [parse_domain("d"), parse_domain("d@e")]
    with mock.patch.object(FactStore, "match", side_effect=AssertionError("match called")):
        for goal, shape in intra:
            for args in argument_lists(shape, concepts, domains, rng):
                for mode in (EXACT, INHERIT):
                    eval_query(Query(goal, args, mode), store)
        with pytest.raises(AssertionError, match="match called"):
            eval_query(Query("analogous_to", tuple(Variable(v) for v in "ABCD")), store)


@pytest.mark.parametrize("goal, n_args", [("is_a", 1), ("is_a", 4), ("is_a_star", 2), ("analogous_to", 3)])
def test_a_hand_built_query_of_the_wrong_arity_is_a_syntax_error(goal, n_args):
    """``parse_query`` checks the arity; a hand-built query gets the same message."""
    store = kb_store(FACTS)
    arity = 4 if goal == "analogous_to" else 3
    with pytest.raises(QuerySyntaxError, match=f"{goal} takes {arity} arguments, got {n_args}"):
        eval_query(Query(goal, tuple(Variable(f"V{i}") for i in range(n_args))), store)


def test_only_bound_inheriting_goals_read_bound_rows(monkeypatch):
    """A bound plain or symmetric goal reads its index entries directly,
    since a ``_bound_rows`` reader costs more to build in each domain than
    that read; a bound inheriting goal reads one ``_bound_rows`` row per
    domain, and a goal with no bound concept none."""
    store = kb_store('is_a(x, y, "d1").\nis_a(x, z, "d2").\ncontrasts_with(x, w, "d1").\n'
                     'has_attribute(y, red, "d1").\nhas_attribute(z, blue, "d2").\nhas_attribute(q, green, "d3").\n')
    calls = []
    read = query_module._bound_rows
    monkeypatch.setattr(query_module, "_bound_rows", lambda *args: calls.append(args) or read(*args))

    def answers(text: str) -> tuple[list[str], int]:
        calls.clear()
        lines = eval_query(query_module.parse_query(text, store.registry), store).render_lines()
        return lines, len(calls)

    assert answers('is_a(x, ?Y, ?D)') == (["?Y = y, ?D = d1", "?Y = z, ?D = d2"], 0)
    assert answers('contrasts_with(x, ?Y, ?D)') == (["?Y = w, ?D = d1"], 0)
    assert answers('contrasts_with(?X, x, ?D)') == (["?X = w, ?D = d1"], 0)
    assert store.relation_domains("has_attribute") == [parse_domain(d) for d in ("d1", "d2", "d3")]
    assert answers('has_attribute(x, ?A, ?D)') == (["?A = blue, ?D = d2", "?A = red, ?D = d1"], 3)
    assert answers('has_attribute(?X, red, ?D)') == (["?X = x, ?D = d1", "?X = y, ?D = d1"], 3)
    assert answers('has_attribute(x, ?A, "d1")') == (["?A = red"], 1)
    assert answers('has_attribute(?X, ?A, "d1")') == (["?X = x, ?A = red", "?X = y, ?A = red"], 0)
