"""Command-line front end: load, check, materialize, query, explain,
prereqs, stats, save, export-prolog, bench, and an interactive repl.

Exit status contract: 0 success (for query/prereqs: at least one solution),
1 no solutions / failed check / not derivable, 2 usage, parse, or load
errors.  ``--format json-lines`` emits one JSON record per line with stable
field names for golden-file tests.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .consistency import Lint, check, ensure_acyclic
from .domains import parse_domain
from .errors import CdcError, CycleError, DomainSyntaxError, NotDerivableError, QuerySyntaxError
from .inference import ClosureSet, all_prerequisites, explain, materialize
from .kbfile import (
    CASESTUDY_NAMES,
    LoadResult,
    export_interop,
    load_casestudy,
    load_file,
    load_text,
    parse_fact_text,
    save_file,
)
from .query import BindingSet, eval_query, parse_query
from .relations import builtin_registry
from .store import ConceptId, Fact, FactStore

ENV_KB_PATH = "CDC_KB_PATH"


def _emit(args: argparse.Namespace, record: dict, text: str) -> None:
    if args.format == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _load_session(args: argparse.Namespace) -> tuple[FactStore, LoadResult] | None:
    """Build registry + store and load the KBs named by ``--case``, ``--kb``
    or, failing both, ``CDC_KB_PATH``.  Returns None (after printing
    diagnostics) when loading fails."""
    paths = list(args.kb or [])
    if not paths and args.case is None and os.environ.get(ENV_KB_PATH):
        paths = [os.environ[ENV_KB_PATH]]
    if not paths and args.case is None and args.command != "repl":
        print("error: no knowledge base given (use --kb, --case, or CDC_KB_PATH)", file=sys.stderr)
        return None
    registry = builtin_registry()
    store = FactStore(registry, strict=args.strict)
    combined = LoadResult()
    if args.case is not None:
        combined.merge(load_casestudy(args.case, store))
    for path in paths:
        combined.merge(load_file(path, store))
    registry.freeze()
    for diagnostic in combined.diagnostics:
        print(str(diagnostic), file=sys.stderr)
    if not combined.ok:
        return None
    return store, combined


def _caret_diagnostic(text: str, offset: int, message: str) -> str:
    return f"error: {message}\n  {text}\n  {' ' * offset}^"


# ---------------------------------------------------------------------------
# Commands: each takes the parsed arguments and the loaded store; a CdcError
# or OSError it lets escape becomes "error: ..." and exit 2 in main()
# ---------------------------------------------------------------------------

def cmd_load(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    _emit(
        args,
        {"type": "load", "facts": len(store), "warnings": len(result.warnings)},
        f"loaded {len(store)} facts ({len(result.warnings)} warnings)",
    )
    return 0


def cmd_query(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    try:
        query = parse_query(args.text, store.registry).with_modes(domain_mode=args.domain_mode)
    except QuerySyntaxError as exc:
        print(_caret_diagnostic(args.text, exc.offset, str(exc)), file=sys.stderr)
        return 2
    bindings = eval_query(query, store)
    if args.format == "json-lines":
        for solution in bindings:
            record = {f"?{name}": str(value) for name, value in solution.items()}
            print(json.dumps({"type": "solution", "bindings": record}, sort_keys=True))
    else:
        _print_solutions(bindings)
    return 0 if bindings else 1


def _print_solutions(bindings: BindingSet) -> None:
    for line in bindings.render_lines():
        print(line)
    if not bindings:
        print("no solutions")


def cmd_check(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    report = check(store)
    # the loader's duplicate-fact warnings come first
    warnings = [Lint(kind="duplicate-fact", description=str(d)) for d in result.warnings] + report.warnings
    for kind, relation, domain, description, _ in report.errors:
        record = {"type": "error", "kind": kind, "relation": relation, "domain": domain, "description": description}
        _emit(args, record, f"error [{relation} @ {domain}]: {description}")
    for lint in warnings:
        _emit(args, {"type": "warning", **lint._asdict()}, f"warning [{lint.kind}]: {lint.description}")
    for witness in report.separation_witnesses:
        concept, relation, (object1, domain1), (object2, domain2) = witness
        record = {"type": "witness", "concept": concept.symbol, "relation": relation, "object1": object1.symbol,
                  "domain1": domain1.text, "object2": object2.symbol, "domain2": domain2.text}
        _emit(args, record, f"witness: {witness.describe()}")
    _emit(
        args,
        {
            "type": "summary",
            "errors": len(report.errors),
            "warnings": len(warnings),
            "witnesses": len(report.separation_witnesses),
        },
        f"{len(report.errors)} errors, {len(warnings)} warnings, "
        f"{len(report.separation_witnesses)} separation witnesses",
    )
    return 0 if report.ok else 1


def cmd_materialize(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    closure = materialize(store)
    by_label = {label: len(facts) for label, facts in sorted(closure.derived.items())}
    lines = [f"materialized {closure.size()} derived facts"]
    lines += [f"  {label}: {count}" for label, count in by_label.items()]
    _emit(
        args,
        {"type": "materialize", "derived": closure.size(), "by_relation": by_label},
        "\n".join(lines),
    )
    return 0


def cmd_explain(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    fact = parse_fact_text(args.fact, store.registry, allow_star=True)
    try:  # the whole walk runs first, so a failure prints no partial trace
        try:  # an asserted fact, or a star fact over an asserted edge, reads no closure
            nodes = _trace_nodes(fact, store, None)
        except NotDerivableError:  # materialize checks the KB for cycles first
            nodes = _trace_nodes(fact, store, materialize(store))
        else:  # a cyclic KB fails, whichever fact is asked
            ensure_acyclic(store)
    except NotDerivableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json-lines":
        print(_trace_json(nodes))
    else:
        for depth, text, rule in nodes:
            print(f"{'  ' * depth}{text}   [{rule}]")
    return 0


def _trace_nodes(fact: Fact, store: FactStore, closure: ClosureSet | None) -> list[tuple[int, str, str]]:
    """The derivation of ``fact`` in pre-order, as (depth, fact text, rule).
    A derivation is as deep as its longest chain of rule applications, so the
    walk keeps an explicit stack rather than recurse per level."""
    nodes = []
    stack = [(fact, 0)]
    while stack:
        fact, depth = stack.pop()
        trace = explain(fact, store, closure)
        nodes.append((depth, repr(fact), trace.rule))
        stack.extend((premise, depth + 1) for premise in reversed(trace.premises))
    return nodes


def _trace_json(nodes: list[tuple[int, str, str]]) -> str:
    """The nested trace record, written as ``json.dumps(record,
    sort_keys=True)`` writes it, from the pre-order nodes: each node opens its
    record and premise list, and one at the depth of an open node or above it
    first closes the open nodes down to its own depth.  (``json.dumps``
    recurses per level and fails on a deep trace.)"""
    parts = []
    closings: list[str] = []  # one per open node, outermost first
    for depth, text, rule in nodes:
        if depth < len(closings):
            parts += reversed(closings[depth:])
            del closings[depth:]
            parts.append(", ")
        parts.append(f'{{"fact": {json.dumps(text)}, "premises": [')
        closings.append(f'], "rule": {json.dumps(rule)}, "type": "trace"}}')
    parts += reversed(closings)
    return "".join(parts)


def cmd_prereqs(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    try:
        domain_expr = parse_domain(args.domain)
    except DomainSyntaxError as exc:
        print(_caret_diagnostic(args.domain, exc.offset, str(exc)), file=sys.stderr)
        return 2
    try:
        target = ConceptId(args.concept)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    order = [concept.symbol for concept in all_prerequisites(store, target, domain_expr)]
    _emit(
        args,
        {"type": "prereqs", "concept": args.concept, "domain": domain_expr.text, "order": order},
        "\n".join(order) or "no prerequisites",
    )
    return 0 if order else 1


def cmd_stats(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    stats = store.stats()
    lines = [f"total facts: {stats.total_facts}"]
    lines += [f"  {domain}: {count}" for domain, count in stats.facts_per_domain.items()]
    record = {"type": "stats", "total_facts": stats.total_facts, "facts_per_domain": stats.facts_per_domain}
    _emit(args, record, "\n".join(lines))
    return 0


# command -> (writer, record type, verb)
_WRITERS = {"save": (save_file, "save", "saved"), "export-prolog": (export_interop, "export", "exported")}


def cmd_write(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    write, kind, verb = _WRITERS[args.command]
    write(store, args.out)
    _emit(args, {"type": kind, "path": args.out, "facts": len(store)}, f"{verb} {len(store)} facts to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.n_domains < 1 or args.n_facts < args.n_domains:
        print("error: need n_facts >= n_domains >= 1", file=sys.stderr)
        return 2
    from .synthetic import run_bench  # only the benchmark needs the generator

    report = run_bench(args.n_facts, args.n_domains, args.seed)
    text = "\n".join([
        f"facts={report['n_facts']} domains={report['n_domains']} seed={report['seed']}",
        f"full-scan entries:       {report['scanned_full']}",
        f"domain-filtered entries: {report['scanned_filtered_mean']:.2f} (mean), {report['scanned_filtered_max']} (max)",
        f"reduction factor:        {report['reduction_factor']:.1f}x",
        f"materialize time:        {report['materialize_seconds']:.3f} s",
        f"derived facts:           {report['derived_facts']}",
    ])
    _emit(args, report, text)
    return 0


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------

_REPL_HELP = """\
?- goal(...)          evaluate a query (leading '?-' marks a query)
rel(a, b, "domain").  assert a fact
retract rel(...).     retract a fact
check | stats | quit  housekeeping
"""


def cmd_repl(args: argparse.Namespace, store: FactStore, result: LoadResult) -> int:
    print("cdc repl - 'help' lists commands, 'quit' leaves", file=sys.stderr)
    while True:
        print("cdc> ", end="", file=sys.stderr, flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if line in ("quit", "exit"):
            return 0
        if line == "help":
            print(_REPL_HELP, end="")
            continue
        if line == "check":
            report = check(store)
            print(f"{len(report.errors)} errors, {len(report.warnings)} warnings, "
                  f"{len(report.separation_witnesses)} separation witnesses")
            continue
        if line == "stats":
            stats = store.stats()
            print(f"total facts: {stats.total_facts}")
            continue
        if line.startswith("?-"):
            try:
                query = parse_query(line, store.registry).with_modes(domain_mode=args.domain_mode)
                bindings = eval_query(query, store)
            except CdcError as exc:
                print(f"error: {exc}")
                continue
            _print_solutions(bindings)
            continue
        if line.startswith("retract "):
            try:
                fact = parse_fact_text(line[len("retract "):], store.registry)
            except CdcError as exc:
                print(f"error: {exc}")
                continue
            print("retracted" if store.retract_fact(fact) else "not found")
            continue
        added = load_text(line, store, file="<repl>")
        for diagnostic in added.diagnostics:
            print(str(diagnostic))
        if added.facts:
            print(f"asserted {len(added.facts)} fact(s)")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads: the KB source flags
    (all but bench), --format (all but repl), --domain-mode (query, repl)
    and --seed (bench)."""
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--kb", action="append", metavar="PATH", help="knowledge-base file (repeatable)")
    source.add_argument("--case", choices=CASESTUDY_NAMES, help="bundled case-study KB")
    source.add_argument("--strict", action="store_true", help="reject cycle-creating asserts at load time")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json-lines"), default="text")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--domain-mode", choices=("exact", "inherit"), default="exact", dest="domain_mode")

    parser = argparse.ArgumentParser(prog="cdc", description="domain-contextualized concept graph engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", parents=[source, fmt], help="load KBs and report diagnostics")
    p.set_defaults(func=cmd_load)
    p = sub.add_parser("check", parents=[source, fmt], help="consistency report")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("materialize", parents=[source, fmt], help="compute the deductive closure")
    p.set_defaults(func=cmd_materialize)
    p = sub.add_parser("query", parents=[source, fmt, mode], help="evaluate a DSL query")
    p.add_argument("text", metavar="QUERY")
    p.set_defaults(func=cmd_query)
    p = sub.add_parser("explain", parents=[source, fmt], help="derivation trace for a fact")
    p.add_argument("fact", metavar="FACT")
    p.set_defaults(func=cmd_explain)
    p = sub.add_parser("prereqs", parents=[source, fmt], help="topologically ordered prerequisites")
    p.add_argument("concept")
    p.add_argument("domain")
    p.set_defaults(func=cmd_prereqs)
    p = sub.add_parser("stats", parents=[source, fmt], help="store statistics")
    p.set_defaults(func=cmd_stats)
    p = sub.add_parser("save", parents=[source, fmt], help="write the canonical fact file")
    p.add_argument("out", metavar="OUT")
    p.set_defaults(func=cmd_write)
    p = sub.add_parser("export-prolog", parents=[source, fmt], help="write the ISO-Prolog interop file")
    p.add_argument("out", metavar="OUT")
    p.set_defaults(func=cmd_write)
    p = sub.add_parser("bench", parents=[fmt], help="partition-scan reduction benchmark")
    p.add_argument("n_facts", type=int)
    p.add_argument("n_domains", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    p = sub.add_parser("repl", parents=[source, mode], help="interactive session")
    p.set_defaults(func=cmd_repl)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` reads it and changes nothing
    in it, so every ``main`` call can share it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "kb" not in args:  # bench reads no KB
            return args.func(args)
        loaded = _load_session(args)
        return 2 if loaded is None else args.func(args, *loaded)
    except CycleError as exc:  # a cycle in the KB fails a check, like `cdc check`
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CdcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
