"""Seeded generators for the benchmark's three workloads.

A workload is a KB text plus everything the benchmark drives against it:
the fixed query list, the edit list, the explain sample and the goal of the
CLI call.  Facts are modelled here as plain tuples,
``(relation, concepts, domains)`` with strings only, so the oracles never
touch the program's own types.  All symbols are bare atoms and every
transitive graph is acyclic by construction: inside a domain each node has a
rank (its place in the domain's node list) and edges only go from a lower to
a higher rank.

The generator only chooses inputs; every expected answer is computed by
``oracles.Model``.  The same seed gives byte-identical KB text, query list
and edit list.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from bench_oracles import CROSS, FUSION, SYMMETRIC_INTRA, Model, Query

WORKLOADS = ("closure-deep", "lazy-wide", "edit-readback")

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"


def canonical(relation: str, concepts: tuple, domains: tuple) -> tuple:
    """The one stored orientation of a symmetric fact (the program stores
    each symmetric fact once, in a canonical order)."""
    if relation in CROSS:
        left, right = (concepts[0], domains[0]), (concepts[1], domains[1])
        if right < left:
            return relation, (concepts[1], concepts[0]), (domains[1], domains[0])
    elif relation in SYMMETRIC_INTRA + FUSION and concepts[1] < concepts[0]:
        return relation, (concepts[1], concepts[0]) + concepts[2:], domains
    return relation, concepts, domains


def render_fact(fact: tuple) -> str:
    relation, concepts, domains = fact
    args = list(concepts) + [f'"{d}"' for d in domains]
    return f"{relation}({', '.join(args)})."


@dataclass
class Edit:
    """One edit step: a write, then read-after-write queries on its domain.

    ``kind`` is ``add`` (one clause through ``load_text``), ``retract``
    (``retract_fact``) or ``cycle`` (a clause that closes a cycle; the
    strict store must refuse it with ``CycleError``)."""

    kind: str
    fact: tuple
    reads: list[Query]
    expected: list[list[tuple]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    strict: bool
    use_closure: bool
    facts: list[tuple]
    queries: list[Query]
    edits: list[Edit]
    explain_sample: list[tuple]
    cli_query: Query
    repeat: int  # back-to-back calls of check and of save in one timed section

    @property
    def kb_text(self) -> str:
        return "".join(render_fact(f) + "\n" for f in self.facts)


class Namer:
    """Distinct pronounceable atoms, e.g. ``kalomi``."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int = 3, prefix: str = "") -> str:
        while True:
            w = prefix + "".join(self.rng.choice(CONSONANTS) + self.rng.choice(VOWELS) for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w

    def words(self, n: int, syllables: int = 3, prefix: str = "") -> list[str]:
        return [self.word(syllables, prefix) for _ in range(n)]


def layered_dag(rng: random.Random, nodes: list[str], layers: int, extra: float, reach: int) -> list[tuple[str, str]]:
    """Edges (child, parent) of a layered DAG: the nodes are dealt into
    ``layers`` layers (layer 0 the most specific).  Every node outside the
    top layer gets one parent in the next layer, dealt so that parents get
    equal numbers of children, and a fixed share ``extra`` of each layer
    gets a second parent up to ``reach`` layers higher.  The balance keeps
    the closure's size nearly the same from seed to seed."""
    per = len(nodes) // layers
    rows = [nodes[i * per:(i + 1) * per] for i in range(layers)]
    rows[-1].extend(nodes[layers * per:])
    edges = set()
    for i, row in enumerate(rows[:-1]):
        parents = rng.sample(rows[i + 1], len(rows[i + 1]))
        for k, node in enumerate(row):
            edges.add((node, parents[k % len(parents)]))
        for node in rng.sample(row, round(extra * len(row))):
            upper = rows[min(layers - 1, i + rng.randint(1, reach))]
            edges.add((node, rng.choice([p for p in upper if (node, p) not in edges])))
    return sorted(edges)


def typical(make, size, k: int = 25):
    """Of ``k`` candidates ``make()`` draws, the one whose ``size`` is the
    median.  The program's costs follow the sizes of the closures (star
    pairs, inherited attributes), and a single draw of a random graph varies
    in them by up to a tenth from seed to seed; the median of 25 draws
    varies by a third of that or less, while the graphs still differ."""
    return sorted((make() for _ in range(k)), key=size)[k // 2]


def reachable_pairs(edges) -> int:
    """How many (x, y) pairs a list of edges connects in one or more hops."""
    model = Model(("e", e, ("d",)) for e in edges)
    return sum(len(model.reach("e", "d", x)) for x in model.nodes("e", "d"))


def inherited_pairs(isa_edges, attribute_facts: list[tuple], domain: str) -> int:
    """How many (node, attribute) pairs a domain holds once every node takes
    its ``is_a`` ancestors' attributes."""
    model = Model([("is_a", e, (domain,)) for e in isa_edges] + attribute_facts)
    nodes = model.nodes("is_a", domain) | {f[1][0] for f in attribute_facts}
    return sum(len(model.attributes(domain, x)) for x in nodes)


def ranked_dag(rng: random.Random, nodes: list[str], n_edges: int) -> list[tuple[str, str]]:
    """Random edges (a, b) with a before b in ``nodes``."""
    edges = set()
    while len(edges) < min(n_edges, len(nodes) * (len(nodes) - 1) // 2):
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        edges.add((nodes[i], nodes[j]))
    return sorted(edges)


def stratified(domains: list[str], weights: list[float] | None, n: int) -> list[str]:
    """``n`` domains drawn at evenly spaced points of the weights' cumulative
    distribution, heaviest first: the hot domains get their share of the
    draws, and the sizes drawn are the same for every seed."""
    weights = weights or [1.0] * len(domains)
    ranked = sorted(zip(weights, domains), key=lambda wd: (-wd[0], wd[1]))
    total, out = sum(weights), []
    for i in range(n):
        point, acc = (i + 0.5) / n * total, 0.0
        for w, d in ranked:
            acc += w
            if acc >= point:
                break
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Query lists
# ---------------------------------------------------------------------------

QUERY_CLASSES = (
    "star_subject", "star_object", "relation", "has_attribute",
    "inherited_attributes", "all_prerequisites", "analogy", "inherit_mode",
)


def ranked_pick(nodes, size, k: int) -> str:
    """The node at a fixed quantile of ``size`` for the ``k``-th query (the
    quantiles go round a golden-ratio sequence), ties broken by name.  A
    uniform draw of the subject made the list's middle queries differ in cost
    from seed to seed; this way the ``k``-th query of a class asks about a
    node of the same relative size for every seed."""
    ranked = sorted(nodes, key=lambda n: (size(n), n))
    return ranked[int((k + 1) * 0.6180339887 % 1 * len(ranked))]


def make_query(rng: random.Random, model: Model, cls: str, k: int, domain: str) -> Query:
    """The ``k``-th query of class ``cls``, on ``domain``.  Variants inside a
    class go round by ``k``, so every seed gets the same mix."""
    isa = model.nodes("is_a", domain)
    ancestors = lambda n: len(model.reach("is_a", domain, n))  # noqa: E731
    if cls == "star_subject":
        return Query(cls, f'is_a_star({ranked_pick(isa, ancestors, k)}, ?Y, "{domain}")')
    if cls == "star_object":
        descendants = Counter(y for x in isa for y in model.reach("is_a", domain, x))
        return Query(cls, f'is_a_star(?X, {ranked_pick(isa, descendants.__getitem__, k)}, "{domain}")')
    if cls == "relation":
        variant = k % 3
        if variant == 0:
            return Query(cls, f'is_a({ranked_pick(isa, ancestors, k)}, ?Y, "{domain}")')
        if variant == 1:
            return Query(cls, f'requires(?X, ?Y, "{domain}")')
        return Query(cls, f'contrasts_with(?X, ?Y, "{domain}")')
    if cls in ("has_attribute", "inherited_attributes"):
        attributes = lambda n: len(model.attributes(domain, n))  # noqa: E731
        return Query(cls, f'{cls}({ranked_pick(isa, attributes, k)}, ?A, "{domain}")')
    if cls == "all_prerequisites":
        prerequisites = lambda n: len(model.reach("requires", domain, n))  # noqa: E731
        return Query(cls, f'all_prerequisites({ranked_pick(model.nodes("requires", domain), prerequisites, k)}, '
                          f'?P, "{domain}")')
    if cls == "analogy":
        return Query(cls, f"analogy_search({rng.choice(sorted(model.analogy_concepts()))}, ?C, ?D1, ?D2)")
    goal, variable = ("is_a_star", "?Y") if k % 2 == 0 else ("has_attribute", "?A")
    return Query(cls, f'{goal}({ranked_pick(isa, ancestors, k)}, {variable}, "{domain}")', "inherit")


def query_list(rng, model, per_class: int, domains: list[str], weights) -> list[Query]:
    """``per_class`` queries of every class, in a seeded order.  Nothing in
    the repo says how often each kind of goal is asked, so every class gets
    the same share."""
    out = []
    for cls in QUERY_CLASSES:
        for k, domain in enumerate(stratified(domains, weights, per_class)):
            out.append(make_query(rng, model, cls, k, domain))
    rng.shuffle(out)
    for q in out:
        q.expected = model.answer(q)
    return out


# ---------------------------------------------------------------------------
# Edit lists
# ---------------------------------------------------------------------------

EDIT_CYCLE = ("add is_a", "retract is_a", "add has_attribute", "retract has_attribute", "add is_a", "retract requires")


def edit_list(rng: random.Random, model: Model, n_steps: int, domains: list[str], weights,
              ranks: dict[str, dict[str, int]], attrs: dict[str, list[str]], cycle_every: int) -> list[Edit]:
    """Edits replayed on a copy of ``model`` (the mirror): each step's
    expected read answers are the oracle's answers after that write.  Write
    kinds go round ``EDIT_CYCLE``; every ``cycle_every``-th write instead
    adds an ``is_a`` edge from a node back to one of its descendants."""
    mirror = model.copy()
    edits = []
    for step, domain in enumerate(stratified(domains, weights, n_steps)):
        nodes = sorted(mirror.nodes("is_a", domain))
        action, relation = EDIT_CYCLE[step % len(EDIT_CYCLE)].split()
        if cycle_every and step % cycle_every == cycle_every - 1:
            x = rng.choice([n for n in nodes if mirror.reach("is_a", domain, n)])
            fact = ("is_a", (rng.choice(sorted(mirror.reach("is_a", domain, x))), x), (domain,))
            edit = Edit("cycle", fact, [])
        elif action == "retract":
            edit = Edit("retract", rng.choice(sorted(mirror.relation_facts(relation, domain))), [])
        else:
            while True:
                if relation == "is_a":
                    a, b = sorted(rng.sample(nodes, 2), key=ranks[domain].get)
                    fact = ("is_a", (a, b), (domain,))
                else:
                    fact = ("has_attribute", (rng.choice(nodes), rng.choice(attrs[domain])), (domain,))
                if not mirror.has(fact):
                    break
            edit = Edit("add", fact, [])
        touched = edit.fact[1][1] if edit.kind == "cycle" else edit.fact[1][0]
        if edit.kind == "add":
            mirror.add(edit.fact)
        elif edit.kind == "retract":
            mirror.remove(edit.fact)
        if touched not in mirror.nodes("is_a", domain):
            touched = rng.choice(sorted(mirror.nodes("is_a", domain)))
        reads = [Query("star_subject", f'is_a_star({touched}, ?Y, "{domain}")'),
                 Query("has_attribute", f'has_attribute({touched}, ?A, "{domain}")'),
                 Query("all_prerequisites",
                       f'all_prerequisites({rng.choice(sorted(mirror.nodes("requires", domain)))}, ?P, "{domain}")')]
        edit.reads = reads[: 1 + step % 3]
        edit.expected = [mirror.answer(q) for q in edit.reads]
        edits.append(edit)
    return edits


def explain_sample(rng: random.Random, model: Model, n: int, domains: list[str]) -> list[tuple]:
    """Derived facts chosen from the oracle: multi-hop ``is_a``/``requires``
    pairs and inherited attributes, a third of each kind."""
    pools: dict[str, list[tuple]] = {"is_a": [], "requires": [], "has_attribute": []}
    for domain in domains:
        for rel in ("is_a", "requires"):
            for x in sorted(model.nodes(rel, domain)):
                for z, dist in sorted(model.distances(rel, domain, x).items()):
                    if dist >= 2:
                        pools[rel].append((f"{rel}_star", (x, z), (domain,)))
        for x in sorted(model.nodes("is_a", domain)):
            for a in sorted(model.attributes(domain, x) - model.own_attributes(domain, x)):
                pools["has_attribute"].append(("has_attribute", (x, a), (domain,)))
    return [f for pool in pools.values() for f in rng.sample(pool, min(n // 3, len(pool)))]


def cli_query(rng: random.Random, model: Model, goal: str, variable: str, domain: str) -> Query:
    """A goal for the ``cdc query`` call, with a subject that has answers
    (the CLI exits 1 when there are none)."""
    while True:
        q = Query(goal, f'{goal}({rng.choice(sorted(model.nodes("is_a", domain)))}, {variable}, "{domain}")')
        q.expected = model.answer(q)
        if q.expected:
            return q


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def domain_graphs(rng: random.Random, namer: Namer, facts: set, domain: str, n_nodes: int, layers: int,
                  n_req: int, n_attr_nodes: int, attrs: list[str], n_contrasts: int) -> list[str]:
    """One domain: a layered ``is_a`` DAG over fresh nodes, a layered
    ``requires`` DAG over a sample of them, attributes on ``n_attr_nodes``
    nodes spread evenly over the layers (a fifth of them with two), and
    symmetric ``contrasts_with`` pairs.  Spreading the attributes, and taking
    the ``typical`` of 25 draws of each graph and of the placement, keeps
    the numbers of star pairs and inherited facts nearly the same from seed
    to seed."""
    nodes = namer.words(n_nodes)
    isa = typical(lambda: layered_dag(rng, nodes, layers, extra=0.3, reach=2), reachable_pairs)
    facts.update(("is_a", e, (domain,)) for e in isa)
    req = typical(lambda: layered_dag(rng, rng.sample(nodes, n_req), 6, 0.3, 2), reachable_pairs)
    facts.update(("requires", e, (domain,)) for e in req)
    stride = n_nodes / n_attr_nodes

    def placement() -> list[tuple]:
        out = []
        for k in range(n_attr_nodes):
            node = nodes[int((k + rng.random()) * stride)]
            out.extend(("has_attribute", (node, a), (domain,)) for a in rng.sample(attrs, 2 if k % 5 == 0 else 1))
        return out

    facts.update(typical(placement, lambda placed: inherited_pairs(isa, placed, domain)))
    while sum(1 for f in facts if f[0] == "contrasts_with" and f[2] == (domain,)) < n_contrasts:
        facts.add(canonical("contrasts_with", tuple(rng.sample(nodes, 2)), (domain,)))
    return nodes


def add_analogies(rng: random.Random, facts: set, n: int, domains: list[str], subjects: dict[str, list[str]]) -> None:
    count = len(facts) + n
    while len(facts) < count:
        d1, d2 = rng.sample(domains, 2)
        facts.add(canonical("analogous_to", (rng.choice(subjects[d1]), rng.choice(subjects[d2])), (d1, d2)))


def closure_deep(seed: int) -> Workload:
    """A few domains, each a deep layered ``is_a`` DAG plus a ``requires``
    DAG; queries pass a current closure with ``strict=True``."""
    rng = random.Random(f"closure-deep:{seed}")
    namer = Namer(rng)
    facts: set[tuple] = set()
    domains, ranks, attrs, subjects = [], {}, {}, {}
    for _ in range(3):
        top = namer.word(2, "cd")
        domain = f"{top}@{namer.word(2)}"
        domains.append(domain)
        attrs[domain] = namer.words(24, 2, "at")
        nodes = domain_graphs(rng, namer, facts, domain, 100, 8, 48, 25, attrs[domain], 10)
        ranks[domain] = {n: i for i, n in enumerate(nodes)}
        subjects[domain] = nodes
        # a small general graph at the prefix domain, seen by inherit-mode goals
        general = rng.sample(nodes[-40:], 16)
        facts.update(("is_a", e, (top,)) for e in layered_dag(rng, general, 4, 0.3, 2))
        for node in rng.sample(general, 6):
            facts.add(("has_attribute", (node, rng.choice(attrs[domain])), (top,)))
    add_analogies(rng, facts, 12, domains, subjects)
    model = Model(facts)
    queries = query_list(rng, model, 4, domains, None)
    edits = edit_list(rng, model, 8, domains, None, ranks, attrs, cycle_every=0)
    sample = explain_sample(rng, model, 900, domains)
    cli = cli_query(rng, model, "has_attribute", "?A", domains[0])
    return Workload("closure-deep", False, True, sorted(facts), queries, edits, sample, cli, repeat=16)


def lazy_wide(seed: int) -> Workload:
    """Many small nested ``field@subfield@topic`` domains over a vocabulary
    shared within each field; Zipf-skewed sizes; queries are lazy."""
    rng = random.Random(f"lazy-wide:{seed}")
    namer = Namer(rng)
    facts: set[tuple] = set()
    domains, ranks, attrs, sizes, subjects = [], {}, {}, [], {}
    n_fields, n_sub, n_topic = 3, 4, 4
    zipf = [1.0 / (k + 1) for k in range(n_fields * n_sub * n_topic)]
    rng.shuffle(zipf)
    for _ in range(n_fields):
        field_name = namer.word(2)
        vocab = namer.words(100)
        field_attrs = namer.words(25, 2, "at")
        for _ in range(n_sub):
            sub = f"{field_name}@{namer.word(2)}"
            general = rng.sample(vocab, 12)
            general_isa = typical(lambda: ranked_dag(rng, general, 10), reachable_pairs)
            facts.update(("is_a", e, (sub,)) for e in general_isa)
            facts.update(typical(lambda: [("has_attribute", (node, rng.choice(field_attrs)), (sub,))
                                          for node in rng.sample(general, 4)],
                                 lambda placed: inherited_pairs(general_isa, placed, sub)))
            for _ in range(n_topic):
                domain = f"{sub}@{namer.word(2)}"
                weight = zipf[len(domains)]
                domains.append(domain)
                sizes.append(weight)
                n_nodes = 8 + int(50 * weight)
                nodes = rng.sample(vocab, n_nodes)
                ranks[domain] = {n: i for i, n in enumerate(nodes)}
                attrs[domain] = field_attrs
                isa = typical(lambda: ranked_dag(rng, nodes, int(n_nodes * 1.4)), reachable_pairs)
                facts.update(("is_a", e, (domain,)) for e in isa)
                req = typical(lambda: ranked_dag(rng, nodes[: n_nodes // 2], n_nodes // 2), reachable_pairs)
                facts.update(("requires", e, (domain,)) for e in req)
                # attributes on a quarter of the nodes, drawn from the lower half of the ranks
                facts.update(typical(lambda: [("has_attribute", (node, rng.choice(field_attrs)), (domain,))
                                              for node in rng.sample(nodes[: n_nodes // 2], max(3, n_nodes // 4))],
                                     lambda placed: inherited_pairs(isa, placed, domain)))
                for k in range(1 + n_nodes // 12):
                    facts.add(canonical("contrasts_with", (nodes[2 * k], nodes[2 * k + 1]), (domain,)))
                subjects[domain] = nodes
    add_analogies(rng, facts, 50, domains, subjects)
    for _ in range(10):
        d = rng.choice(domains)
        facts.add(canonical("fuses_with", tuple(rng.sample(subjects[d], 2)) + (namer.word(3, "fu"),), (d,)))
    model = Model(facts)
    queries = query_list(rng, model, 13, domains, sizes)
    edits = edit_list(rng, model, 24, domains, sizes, ranks, attrs, cycle_every=0)
    sample = explain_sample(rng, model, 1200, domains)
    hot = domains[sizes.index(max(sizes))]
    cli = cli_query(rng, model, "is_a_star", "?Y", hot)
    return Workload("lazy-wide", False, False, sorted(facts), queries, edits, sample, cli, repeat=2)


def edit_readback(seed: int) -> Workload:
    """A mid-sized KB in a strict store; each edit step writes one fact and
    reads back lazily on the touched domain.  Every eighth write would close
    a cycle."""
    rng = random.Random(f"edit-readback:{seed}")
    namer = Namer(rng)
    facts: set[tuple] = set()
    domains, ranks, attrs, subjects = [], {}, {}, {}
    for _ in range(6):
        domain = f"{namer.word(2)}@{namer.word(2)}"
        domains.append(domain)
        attrs[domain] = namer.words(15, 2, "at")
        nodes = domain_graphs(rng, namer, facts, domain, 70, 7, 36, 20, attrs[domain], 6)
        ranks[domain] = {n: i for i, n in enumerate(nodes)}
        subjects[domain] = nodes
    add_analogies(rng, facts, 10, domains, subjects)
    model = Model(facts)
    queries = query_list(rng, model, 2, domains, None)
    edits = edit_list(rng, model, 24, domains, None, ranks, attrs, cycle_every=8)
    sample = explain_sample(rng, model, 600, domains)
    cli = cli_query(rng, model, "is_a_star", "?Y", domains[0])
    return Workload("edit-readback", True, False, sorted(facts), queries, edits, sample, cli, repeat=12)


GENERATORS = {"closure-deep": closure_deep, "lazy-wide": lazy_wide, "edit-readback": edit_readback}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
