"""``cdcgraph.inference.explain`` as it was before it read a plain
transitive relation's edge straight from the successor index, kept as the
differential reference for it (``test_inference.py``).  Its one change
since is the engine's refusal of a stale closure: where it would read a
closure's traces, a closure of another store generation raises
``StaleClosureError``.

Its membership test is the store's old ``__contains__``, spelled out here:
the shape check, ``canonicalize_fact`` on every fact, then the index read.

``trace_depth`` is the recursive definition of the derivation depth, the
reference for the engine's stack-based walk, and ``trace_record`` builds by
recursion the nested record ``cdc explain --format json-lines`` writes.
Both recurse once per level, so they are held to the engine only on
derivations shallower than the recursion limit.
"""

from __future__ import annotations

from cdcgraph import inference
from cdcgraph.errors import NotDerivableError, StaleClosureError
from cdcgraph.inference import LEAF, ClosureSet, DerivationTrace
from cdcgraph.relations import star_relation
from cdcgraph.store import Fact, FactStore, canonicalize_fact


def _contains(store: FactStore, fact: Fact) -> bool:
    spec = store._check_shape(fact, "payload")
    return store._holds(canonicalize_fact(fact, spec), spec)


def _traces(closure: ClosureSet, store: FactStore, fact: Fact) -> dict:
    if closure.generation != store.generation:
        raise StaleClosureError(f"explain {fact!r}: the closure is of store generation {closure.generation}, "
                                f"the store is at {store.generation}")
    return closure.traces


def explain(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> DerivationTrace:
    """Leaf trace for asserted facts; recorded minimal-depth derivation for
    derived ones.  A star-named fact whose pair is an edge is that edge, the
    one-hop base case: a leaf if asserted, the edge's trace if derived.  A
    closure of another store generation than the store's raises
    ``StaleClosureError`` wherever its traces would be read."""
    if fact.relation in store.registry and _contains(store, fact):
        return LEAF
    spec = star_relation(store.registry, fact.relation)
    if spec is not None and len(fact.concepts) == 2 and len(fact.domains) == 1:
        edge = Fact(spec.name, fact.concepts, fact.domains)
        if _contains(store, edge):
            return LEAF
        if closure is not None and edge in _traces(closure, store, fact):
            return closure.traces[edge]
    if closure is not None:
        trace = _traces(closure, store, fact).get(fact)
        if trace is not None:
            return trace
    raise NotDerivableError(f"{fact!r} is neither asserted nor derivable")


def trace_depth(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> int:
    """Number of rule applications along the deepest branch of the derivation."""
    trace = inference.explain(fact, store, closure)
    if trace.is_leaf:
        return 0
    return 1 + max(trace_depth(p, store, closure) for p in trace.premises)


def trace_record(fact: Fact, store: FactStore, closure: ClosureSet | None = None) -> dict:
    """The derivation of ``fact`` as one nested record: its clause, rule and
    premise records."""
    trace = inference.explain(fact, store, closure)
    return {
        "type": "trace",
        "fact": repr(fact),
        "rule": trace.rule,
        "premises": [trace_record(premise, store, closure) for premise in trace.premises],
    }
