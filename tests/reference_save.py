"""``save_file`` and ``export_interop`` as they were before they walked the
store's sorted partitions, kept as the differential reference for them
(``test_save_reference.py``): sort every fact by ``Fact.sort_key``, then
render each fact's clause on its own, testing every concept against the
atom pattern each time it occurs.
"""

from __future__ import annotations

from pathlib import Path

from cdcgraph.domains import _ATOM_TOKEN_RE
from cdcgraph.kbfile import _prolog_atom, render_directive
from cdcgraph.relations import builtin_specs, star_label
from cdcgraph.store import ConceptId, Fact, FactStore


def facts(store: FactStore) -> list[Fact]:
    """All facts in ``Fact.sort_key``'s order."""
    return sorted(store, key=Fact.sort_key)


def _render_concept(concept: ConceptId) -> str:
    if _ATOM_TOKEN_RE.fullmatch(concept.symbol):
        return concept.symbol
    if "'" not in concept.symbol:
        return f"'{concept.symbol}'"
    return f'"{concept.symbol}"'


def render_clause(fact: Fact) -> str:
    parts = [_render_concept(c) for c in fact.concepts]
    parts += [f'"{d.text}"' for d in fact.domains]
    return f"{fact.relation}({', '.join(parts)})."


def save_file(store: FactStore, path: str | Path) -> None:
    builtin_by_name = {spec.name: spec for spec in builtin_specs()}
    lines: list[str] = []
    for name in store.registry.names():
        spec = store.registry.lookup(name)
        if builtin_by_name.get(name) != spec:
            lines.append(render_directive(spec))
    for fact in facts(store):
        lines.append(render_clause(fact))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _prolog_fact(fact: Fact) -> str:
    parts = [_prolog_atom(c.symbol) for c in fact.concepts]
    parts += [_prolog_atom(d.text) for d in fact.domains]
    return f"{fact.relation}({', '.join(parts)})."


def export_interop(store: FactStore, path: str | Path) -> None:
    registry = store.registry
    lines: list[str] = []
    for name in registry.names():
        spec = registry.lookup(name)
        lines.append(f":- dynamic {_prolog_atom(name)}/{spec.shape.arity}.")
    lines.append("")
    for fact in facts(store):
        lines.append(_prolog_fact(fact))
    lines.append("")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.transitive:
            star = star_label(name)
            lines.append(f"{star}(X, Y, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain).")
            lines.append(f"{star}(X, Z, Domain) :-")
            lines.append(f"    {name}(X, Y, Domain),")
            lines.append(f"    {star}(Y, Z, Domain).")
    requires = registry.get("requires")
    if requires is not None and requires.transitive:
        lines.append("all_prerequisites(Target, Domain, Prereqs) :-")
        lines.append(f"    findall(P, {star_label('requires')}(Target, P, Domain), Prereqs).")
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.inherits_via is not None:
            lines.append(f"{name}(X, Attr, Domain) :-")
            lines.append(f"    {spec.inherits_via}(X, Y, Domain),")
            lines.append(f"    {name}(Y, Attr, Domain).")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
