"""Command-line front end: load, check, materialize, query, explain,
prereqs, stats, save, export-prolog, bench, and an interactive repl.

Exit status contract: 0 success (for query/prereqs: at least one solution),
1 no solutions / failed check / not derivable, 2 usage, parse, or load
errors.  ``--format json-lines`` emits one JSON record per line with stable
field names for golden-file tests.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from .consistency import Lint, check
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
    render_clause,
    save_file,
)
from .query import eval_query, parse_query
from .relations import builtin_registry
from .store import ConceptId, Fact, FactPattern, FactStore

ENV_KB_PATH = "CDC_KB_PATH"


@dataclass
class CliConfig:
    kb_paths: list[str] = field(default_factory=list)
    case: str | None = None
    strict: bool = False
    domain_mode: str = "exact"
    fmt: str = "text"
    seed: int = 0


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    kb_paths = list(args.kb or [])
    case = args.case
    if not kb_paths and case is None:
        env_path = os.environ.get(ENV_KB_PATH)
        if env_path:
            kb_paths = [env_path]
    return CliConfig(
        kb_paths=kb_paths,
        case=case,
        strict=args.strict,
        domain_mode=args.domain_mode,
        fmt=args.format,
        seed=args.seed,
    )


def _emit(config: CliConfig, record: dict, text: str) -> None:
    if config.fmt == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _load_session(config: CliConfig, need_kb: bool = True) -> tuple[FactStore, LoadResult] | None:
    """Build registry + store and load the configured KBs.  Returns None
    (after printing diagnostics) when loading fails."""
    if need_kb and not config.kb_paths and config.case is None:
        print("error: no knowledge base given (use --kb, --case, or CDC_KB_PATH)", file=sys.stderr)
        return None
    registry = builtin_registry()
    store = FactStore(registry, strict=config.strict)
    combined = LoadResult()
    try:
        if config.case is not None:
            combined.merge(load_casestudy(config.case, store))
        for path in config.kb_paths:
            combined.merge(load_file(path, store))
    except (OSError, CdcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    registry.freeze()
    for diagnostic in combined.diagnostics:
        print(str(diagnostic), file=sys.stderr)
    if not combined.ok:
        return None
    return store, combined


def _caret_diagnostic(text: str, offset: int, message: str) -> str:
    return f"error: {message}\n  {text}\n  {' ' * offset}^"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_load(config: CliConfig) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, result = loaded
    _emit(
        config,
        {"type": "load", "facts": len(store), "warnings": len(result.warnings)},
        f"loaded {len(store)} facts ({len(result.warnings)} warnings)",
    )
    return 0


def cmd_query(config: CliConfig, text: str) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        query = parse_query(text, store.registry).with_modes(domain_mode=config.domain_mode)
    except QuerySyntaxError as exc:
        print(_caret_diagnostic(text, exc.offset, str(exc)), file=sys.stderr)
        return 2
    try:
        bindings = eval_query(query, store)
    except CdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.fmt == "json-lines":
        for solution in bindings:
            record = {f"?{name}": _plain(value) for name, value in solution.items()}
            print(json.dumps({"type": "solution", "bindings": record}, sort_keys=True))
    else:
        for line in bindings.render_lines():
            print(line)
        if not bindings:
            print("no solutions")
    return 0 if bindings else 1


def _plain(value: object) -> str:
    return getattr(value, "text", None) or str(value)


def cmd_check(config: CliConfig) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, result = loaded
    extra = tuple(
        Lint(kind="duplicate-fact", description=str(d)) for d in result.warnings
    )
    report = check(store, extra_warnings=extra)
    for violation in report.errors:
        _emit(
            config,
            {
                "type": "error",
                "kind": violation.kind,
                "relation": violation.relation,
                "domain": violation.domain,
                "description": violation.description,
            },
            f"error [{violation.relation} @ {violation.domain}]: {violation.description}",
        )
    for lint in report.warnings:
        _emit(
            config,
            {"type": "warning", "kind": lint.kind, "description": lint.description},
            f"warning [{lint.kind}]: {lint.description}",
        )
    for witness in report.separation_witnesses:
        _emit(
            config,
            {
                "type": "witness",
                "concept": witness.concept.symbol,
                "relation": witness.relation,
                "object1": witness.first[0].symbol,
                "domain1": witness.first[1].text,
                "object2": witness.second[0].symbol,
                "domain2": witness.second[1].text,
            },
            f"witness: {witness.describe()}",
        )
    _emit(
        config,
        {
            "type": "summary",
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "witnesses": len(report.separation_witnesses),
        },
        f"{len(report.errors)} errors, {len(report.warnings)} warnings, "
        f"{len(report.separation_witnesses)} separation witnesses",
    )
    return 0 if report.ok else 1


def cmd_materialize(config: CliConfig) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        closure = materialize(store)
    except CycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    by_label = {label: len(facts) for label, facts in sorted(closure.derived.items())}
    lines = [f"materialized {closure.size()} derived facts"]
    lines += [f"  {label}: {count}" for label, count in by_label.items()]
    _emit(
        config,
        {"type": "materialize", "derived": closure.size(), "by_relation": by_label},
        "\n".join(lines),
    )
    return 0


def cmd_explain(config: CliConfig, fact_text: str) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        fact = parse_fact_text(fact_text, store.registry, allow_star=True)
    except CdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        closure = materialize(store)
    except CycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        explain(fact, store, closure)
    except NotDerivableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.fmt == "json-lines":
        print(json.dumps(_trace_record(fact, store, closure), sort_keys=True))
    else:
        for line in _render_trace_lines(fact, store, closure, 0):
            print(line)
    return 0


def _trace_record(fact: Fact, store: FactStore, closure: ClosureSet) -> dict:
    trace = explain(fact, store, closure)
    return {
        "type": "trace",
        "fact": render_clause(fact).rstrip("."),
        "rule": trace.rule,
        "premises": [_trace_record(p, store, closure) for p in trace.premises],
    }


def _render_trace_lines(fact: Fact, store: FactStore, closure: ClosureSet, depth: int) -> list[str]:
    trace = explain(fact, store, closure)
    lines = [f"{'  ' * depth}{render_clause(fact).rstrip('.')}   [{trace.rule}]"]
    for premise in trace.premises:
        lines.extend(_render_trace_lines(premise, store, closure, depth + 1))
    return lines


def cmd_prereqs(config: CliConfig, concept: str, domain: str) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        domain_expr = parse_domain(domain)
    except DomainSyntaxError as exc:
        print(_caret_diagnostic(domain, exc.offset, str(exc)), file=sys.stderr)
        return 2
    try:
        target = ConceptId(concept)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        order = all_prerequisites(store, target, domain_expr)
    except CycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.fmt == "json-lines":
        print(json.dumps(
            {"type": "prereqs", "concept": concept, "domain": domain_expr.text,
             "order": [c.symbol for c in order]},
            sort_keys=True,
        ))
    else:
        for item in order:
            print(item.symbol)
        if not order:
            print("no prerequisites")
    return 0 if order else 1


def cmd_stats(config: CliConfig) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    stats = store.stats()
    lines = [f"total facts: {stats.total_facts}", f"last query scanned: {stats.last_query_scanned}"]
    lines += [f"  {domain}: {count}" for domain, count in stats.facts_per_domain.items()]
    _emit(
        config,
        {
            "type": "stats",
            "total_facts": stats.total_facts,
            "facts_per_domain": stats.facts_per_domain,
            "last_query_scanned": stats.last_query_scanned,
        },
        "\n".join(lines),
    )
    return 0


def cmd_save(config: CliConfig, out: str) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        save_file(store, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(config, {"type": "save", "path": out, "facts": len(store)}, f"saved {len(store)} facts to {out}")
    return 0


def cmd_export_prolog(config: CliConfig, out: str) -> int:
    loaded = _load_session(config)
    if loaded is None:
        return 2
    store, _ = loaded
    try:
        export_interop(store, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(config, {"type": "export", "path": out, "facts": len(store)}, f"exported {len(store)} facts to {out}")
    return 0


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def generate_synthetic_store(n_facts: int, n_domains: int, seed: int) -> FactStore:
    """Uniform random is_a facts over ``n_domains`` domains; each domain's
    edges form a DAG (edges only go from lower- to higher-numbered concepts)
    so materialization is always well-defined."""
    rng = random.Random(seed)
    registry = builtin_registry()
    store = FactStore(registry)
    width = max(2, len(str(n_domains - 1)))
    counts = [0] * n_domains
    for _ in range(n_facts):
        counts[rng.randrange(n_domains)] += 1
    for index, k in enumerate(counts):
        if k == 0:
            continue
        name = f"d{index:0{width}d}"
        domain = parse_domain(name)
        m = 3
        while m * (m - 1) // 2 < 3 * k:
            m += 1
        pairs = rng.sample(list(itertools.combinations(range(m), 2)), k)
        for i, j in pairs:
            store.assert_fact(Fact.intra(
                "is_a",
                ConceptId(f"{name}_n{i:03d}"),
                ConceptId(f"{name}_n{j:03d}"),
                domain,
            ))
    return store


def run_bench(n_facts: int, n_domains: int, seed: int) -> dict:
    """Scan accounting for full-relation vs domain-filtered matching, plus
    materialization wall time, on a synthetic KB."""
    store = generate_synthetic_store(n_facts, n_domains, seed)
    width = max(2, len(str(n_domains - 1)))

    full_pattern = FactPattern("is_a", (None, None), (None,))
    list(store.match(full_pattern))
    scanned_full = store.stats().last_query_scanned

    filtered_scans = []
    for index in range(n_domains):
        domain = parse_domain(f"d{index:0{width}d}")
        list(store.match(FactPattern("is_a", (None, None), (domain,))))
        filtered_scans.append(store.stats().last_query_scanned)
    mean_filtered = sum(filtered_scans) / len(filtered_scans)

    start = time.perf_counter()
    closure = materialize(store)
    elapsed = time.perf_counter() - start

    return {
        "type": "bench",
        "n_facts": n_facts,
        "n_domains": n_domains,
        "seed": seed,
        "scanned_full": scanned_full,
        "scanned_filtered_mean": mean_filtered,
        "scanned_filtered_max": max(filtered_scans),
        "reduction_factor": (scanned_full / mean_filtered) if mean_filtered else 1.0,
        "materialize_seconds": elapsed,
        "derived_facts": closure.size(),
    }


def cmd_bench(config: CliConfig, n_facts: int, n_domains: int) -> int:
    if n_domains < 1 or n_facts < n_domains:
        print("error: need n_facts >= n_domains >= 1", file=sys.stderr)
        return 2
    report = run_bench(n_facts, n_domains, config.seed)
    text = "\n".join([
        f"facts={report['n_facts']} domains={report['n_domains']} seed={report['seed']}",
        f"full-scan entries:       {report['scanned_full']}",
        f"domain-filtered entries: {report['scanned_filtered_mean']:.2f} (mean), {report['scanned_filtered_max']} (max)",
        f"reduction factor:        {report['reduction_factor']:.1f}x",
        f"materialize time:        {report['materialize_seconds']:.3f} s",
        f"derived facts:           {report['derived_facts']}",
    ])
    _emit(config, report, text)
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


def cmd_repl(config: CliConfig, stdin=None, prompt: bool = True) -> int:
    loaded = _load_session(config, need_kb=False)
    if loaded is None:
        return 2
    store, _ = loaded
    stream = stdin or sys.stdin
    if prompt:
        print("cdc repl - 'help' lists commands, 'quit' leaves", file=sys.stderr)
    while True:
        if prompt:
            print("cdc> ", end="", file=sys.stderr, flush=True)
        line = stream.readline()
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
                query = parse_query(line, store.registry).with_modes(domain_mode=config.domain_mode)
                bindings = eval_query(query, store)
            except CdcError as exc:
                print(f"error: {exc}")
                continue
            for rendered in bindings.render_lines():
                print(rendered)
            if not bindings:
                print("no solutions")
            continue
        if line.startswith("retract "):
            try:
                fact = parse_fact_text(line[len("retract "):], store.registry)
            except CdcError as exc:
                print(f"error: {exc}")
                continue
            print("retracted" if store.retract_fact(fact) else "not found")
            continue
        result = load_text(line, store, file="<repl>")
        for diagnostic in result.diagnostics:
            print(str(diagnostic))
        if result.facts:
            print(f"asserted {len(result.facts)} fact(s)")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", action="append", metavar="PATH", help="knowledge-base file (repeatable)")
    common.add_argument("--case", choices=CASESTUDY_NAMES, help="bundled case-study KB")
    common.add_argument("--strict", action="store_true", help="reject cycle-creating asserts at load time")
    common.add_argument("--domain-mode", choices=("exact", "inherit"), default="exact", dest="domain_mode")
    common.add_argument("--format", choices=("text", "json-lines"), default="text")
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(prog="cdc", description="domain-contextualized concept graph engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", parents=[common], help="load KBs and report diagnostics")
    p.set_defaults(func=lambda config, args: cmd_load(config))
    p = sub.add_parser("check", parents=[common], help="consistency report")
    p.set_defaults(func=lambda config, args: cmd_check(config))
    p = sub.add_parser("materialize", parents=[common], help="compute the deductive closure")
    p.set_defaults(func=lambda config, args: cmd_materialize(config))
    p = sub.add_parser("query", parents=[common], help="evaluate a DSL query")
    p.add_argument("text", metavar="QUERY")
    p.set_defaults(func=lambda config, args: cmd_query(config, args.text))
    p = sub.add_parser("explain", parents=[common], help="derivation trace for a fact")
    p.add_argument("fact", metavar="FACT")
    p.set_defaults(func=lambda config, args: cmd_explain(config, args.fact))
    p = sub.add_parser("prereqs", parents=[common], help="topologically ordered prerequisites")
    p.add_argument("concept")
    p.add_argument("domain")
    p.set_defaults(func=lambda config, args: cmd_prereqs(config, args.concept, args.domain))
    p = sub.add_parser("stats", parents=[common], help="store statistics")
    p.set_defaults(func=lambda config, args: cmd_stats(config))
    p = sub.add_parser("save", parents=[common], help="write the canonical fact file")
    p.add_argument("out", metavar="OUT")
    p.set_defaults(func=lambda config, args: cmd_save(config, args.out))
    p = sub.add_parser("export-prolog", parents=[common], help="write the ISO-Prolog interop file")
    p.add_argument("out", metavar="OUT")
    p.set_defaults(func=lambda config, args: cmd_export_prolog(config, args.out))
    p = sub.add_parser("bench", parents=[common], help="partition-scan reduction benchmark")
    p.add_argument("n_facts", type=int)
    p.add_argument("n_domains", type=int)
    p.set_defaults(func=lambda config, args: cmd_bench(config, args.n_facts, args.n_domains))
    p = sub.add_parser("repl", parents=[common], help="interactive session")
    p.set_defaults(func=lambda config, args: cmd_repl(config))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(_config_from_args(args), args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
