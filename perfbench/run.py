#!/usr/bin/env python3
"""The cdcgraph benchmark: one workload per process.

    python3 perfbench/run.py --workload lazy-wide --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and driven only through its public functions and the ``cdc`` CLI
(``python -m cdcgraph``).  A run is one untimed warm-up round, then timed
rounds until ``--seconds`` have passed.  Each round loads the workload's KB
into a fresh store and runs load, check, materialize, explain, the query
list, the edit list, save and one CLI query, so a slow stretch of the host
touches every metric alike; each metric is a median over the timed rounds,
scaled to a reference host speed by a calibration run between the phases
(see ``calibrate.py`` and ``Bench.end_to_end``).  Outputs are checked
against ``bench_oracles`` outside the timed sections; in a timed round each call that raises and each
answer that differs from the oracle counts as one failed operation.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` spans are recorded around every call
into the program (see ``spans.py``) and the result holds the per-layer
metrics.  Spans and full results go to ``perfbench/out/``.  The exit status
is 1 when a check failed (``correct`` false or ``failed`` above 0).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import bench_oracles as oracles  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_ROUNDS = 3
LOADS = 3  # set-ups per round, each into a fresh store; the last is used
FAILED = object()  # what ``Bench.op`` returns for a call that raised
clock = time.perf_counter

END_TO_END = {
    "setup_s": "s", "check_s": "s", "materialize_s": "s", "explain_per_s": "1/s",
    "query_per_s": "1/s", "query_p50_ms": "ms", "edit_per_s": "1/s", "save_s": "s",
    "cli_query_s": "s", "peak_rss_mb": "MB",
}
# the timed phases of a round, in order; a calibration sample sits between
# every two of them
PHASES = ("setup_s", "check_s", "materialize_s", "explain_s", "query_s", "edit_s", "save_s", "cli_query_s")


class NoTracer:
    round = 0
    overhead = 0.0

    def span(self, name):
        return nullcontext()

    def new_group(self):
        pass


def to_tuple(fact) -> tuple:
    return fact.relation, tuple(c.symbol for c in fact.concepts), tuple(d.text for d in fact.domains)


def rendered(bindings) -> list[tuple]:
    return [tuple(str(v) for v in values) for values in bindings.solutions]


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Bench:
    def __init__(self, cdc, workload: workloads.Workload, seed: int, tracer):
        self.cdc, self.wl, self.tr = cdc, workload, tracer
        self.model = oracles.Model(workload.facts)
        self.attempted = self.failed = 0
        self.counting = False
        self.mismatches = 0
        stem = f"{workload.name}-{seed}"
        self.kb = OUT / f"{stem}.cdc"
        self.kb.write_text(workload.kb_text, encoding="utf-8")
        self.saved = OUT / f"{stem}.saved.cdc"
        self.resaved = OUT / f"{stem}.resaved.cdc"
        self.reference: dict = {}
        self.rounds: list[dict] = []
        # inputs built once; the program's values are immutable
        self.explain_facts = [self.fact(f) for f in workload.explain_sample]
        self.explain_expected = [self.model.distances(f[0][: -len("_star")], f[2][0], f[1][0]).get(f[1][1])
                                 if f[0].endswith("_star") else None for f in workload.explain_sample]
        self.edit_inputs = [self.fact(e.fact) if e.kind == "retract" else workloads.render_fact(e.fact)
                            for e in workload.edits]
        self.n_witnesses = oracles.witness_count(workload.facts)
        self.n_lints = oracles.lint_count(self.model.domains())
        self.cal = Calibration()

    def fact(self, t: tuple):
        cdc = self.cdc
        return cdc.Fact(t[0], tuple(cdc.ConceptId(c) for c in t[1]), tuple(cdc.parse_domain(d) for d in t[2]))

    def expect(self, ok: bool, what: str) -> None:
        """One checked outcome.  A mismatch makes the run incorrect and, in a
        timed round, counts as one failed operation."""
        if not ok:
            self.failed += self.counting
            self.mismatches += 1
            if self.mismatches <= 20:
                print(f"mismatch: {what}", file=sys.stderr)

    def op(self, fn):
        """One operation: a call that raises counts as failed and returns
        ``FAILED``; its outcome is then not checked again."""
        self.attempted += self.counting
        try:
            return fn()
        except Exception as exc:  # reported, and the run goes on
            self.expect(False, f"{type(exc).__name__}: {exc}")
            return FAILED

    # -- one round -----------------------------------------------------------

    def run_round(self, first: bool) -> dict:
        cdc, wl, tr = self.cdc, self.wl, self.tr
        r: dict = {}

        # a calibration sample before the first phase, between every two
        # phases and after the last; see ``end_to_end``
        cal = [self.cal.sample()]
        r["setup_s"] = []
        for _ in range(LOADS):
            store = cdc.FactStore(cdc.builtin_registry(), strict=wl.strict)
            gc.collect()
            t = clock()
            loaded = self.op(lambda: cdc.load_file(self.kb, store))
            r["setup_s"].append(clock() - t)
            if loaded is not FAILED:
                self.expect(not loaded.errors and len(store) == len(wl.facts),
                            f"load: {len(store)} facts, expected {len(wl.facts)}")
        if first:
            self.expect({to_tuple(f) for f in store.fact_set()} == set(wl.facts), "load: fact set differs")

        r["check_s"] = []
        cal.append(self.cal.sample())
        gc.collect()
        for _ in range(wl.repeat):
            t = clock()
            report = self.op(lambda: cdc.check(store))
            r["check_s"].append(clock() - t)
        if report is not FAILED:
            counts = (len(report.separation_witnesses), len(report.warnings), len(report.errors))
            self.expect(counts == (self.n_witnesses, self.n_lints, 0),
                        f"check: (witnesses, lints, errors) {counts}, oracle {(self.n_witnesses, self.n_lints, 0)}")
            r["check_counts"] = counts

        cal.append(self.cal.sample())
        gc.collect()
        t = clock()
        closure = self.op(lambda: cdc.materialize(store))
        r["materialize_s"] = clock() - t
        if closure is FAILED:
            closure = None
        else:
            sizes = {label: len(facts) for label, facts in closure.derived.items()}
            if first:
                self.verify_closure(closure)
                self.reference["closure_sizes"] = sizes
                self.reference["redundant_star"] = sum(
                    1 for label, facts in closure.derived.items() if label.endswith("_star")
                    for f in facts if (label[: -len("_star")], *to_tuple(f)[1:]) in self.model.facts)
            self.expect(sizes == self.reference.get("closure_sizes"), "materialize: sizes differ between rounds")

        cal.append(self.cal.sample())
        r.update(self.explain_phase(store, closure))
        cal.append(self.cal.sample())
        r.update(self.query_phase(store, closure))
        cal.append(self.cal.sample())
        r.update(self.edit_phase(store))

        r["save_s"] = []
        cal.append(self.cal.sample())
        gc.collect()
        for _ in range(wl.repeat):
            t = clock()
            saved = self.op(lambda: cdc.save_file(store, self.saved))
            r["save_s"].append(clock() - t)
        if saved is not FAILED:
            data = self.saved.read_bytes()
            if first:
                again = cdc.FactStore(cdc.builtin_registry(), strict=wl.strict)
                reloaded = cdc.load_file(self.saved, again)
                self.expect(reloaded.ok and again.fact_set() == store.fact_set(), "save: reload differs")
                cdc.save_file(again, self.resaved)
                self.expect(self.resaved.read_bytes() == data, "save: second save differs")
                self.reference["saved"] = data
            self.expect(data == self.reference.get("saved"), "save: bytes differ between rounds")

        cal.append(self.cal.sample())
        r["cli_query_s"] = self.cli_phase()
        cal.append(self.cal.sample())
        r["factor"] = {key: 2 * REFERENCE_S / (before + after) for key, before, after in zip(PHASES, cal, cal[1:])}
        if isinstance(self.tr, Tracer):
            r["cli_import_s"] = self.cli_import()
        return r

    def explain_phase(self, store, closure) -> dict:
        cdc, tr = self.cdc, self.tr
        walks = []

        def walk(fact, leaves) -> tuple[int, int]:
            trace = cdc.explain(fact, store, closure)
            if trace.is_leaf:
                leaves.append(fact)
                return 0, 1
            depth = nodes = 0
            for premise in trace.premises:
                d, n = walk(premise, leaves)
                depth, nodes = max(depth, d + 1), nodes + n
            return depth, nodes + 1

        gc.collect()
        t = clock()
        for fact in self.explain_facts:
            tr.new_group()
            with tr.span("bench.explain"):
                leaves = []
                walks.append((self.op(lambda: walk(fact, leaves)), leaves))
        elapsed = clock() - t
        for (done, leaves), fact, want in zip(walks, self.wl.explain_sample, self.explain_expected):
            if done is not FAILED:
                self.verify_trace(fact, [to_tuple(f) for f in leaves], want)
        done = [w for w, _ in walks if w is not FAILED]
        return {"explain_s": elapsed, "trace_depths": [d for d, _ in done],
                "trace_nodes": sum(n for _, n in done)}

    def query_phase(self, store, closure) -> dict:
        cdc, wl, tr = self.cdc, self.wl, self.tr
        closure_arg = closure if wl.use_closure else None
        times, answers = [], []

        def run(q):
            query = cdc.parse_query(q.text, store.registry)
            if q.mode != "exact":
                query = query.with_modes(domain_mode=q.mode)
            return cdc.eval_query(query, store, closure_arg, strict=wl.use_closure)

        gc.collect()
        t = clock()
        for q in wl.queries:
            tr.new_group()
            with tr.span("bench.query"):
                t0, o0 = clock(), tr.overhead
                answers.append(self.op(lambda: run(q)))
                times.append(clock() - t0 - (tr.overhead - o0))
        elapsed = clock() - t
        solutions = 0
        for q, answer in zip(wl.queries, answers):
            if answer is not FAILED:
                got = rendered(answer)
                self.expect(got == q.expected, f"query {q.text} [{q.mode}]: {got!r:.200} != {q.expected!r:.200}")
                solutions += len(got)
        if not self.reference.get("prereq_order_checked"):
            self.reference["prereq_order_checked"] = True
            for q in wl.queries:
                if q.cls == "all_prerequisites":
                    _, args = oracles.parse(q.text)
                    domain = args[2].strip('"')
                    got = cdc.all_prerequisites(store, cdc.ConceptId(args[0]), cdc.parse_domain(domain))
                    want = oracles.prerequisite_order(self.model, domain, args[0])
                    self.expect([c.symbol for c in got] == want, f"all_prerequisites order for {q.text}")
        return {"query_s": elapsed, "query_times": times, "solutions": solutions}

    def edit_phase(self, store) -> dict:
        cdc, wl, tr = self.cdc, self.wl, self.tr
        outcomes, reads, read_times = [], [], []

        def write(edit, payload):
            if edit.kind == "retract":
                return store.retract_fact(payload)
            if edit.kind == "add":
                result = cdc.load_text(payload, store, file="<edit>")
                return result.ok and len(result.facts) == 1 and not result.diagnostics
            before = (len(store), store.generation)
            try:
                store.assert_fact(cdc.parse_fact_text(payload, store.registry))
            except cdc.CycleError:
                return (len(store), store.generation) == before
            return False

        def read(q):
            return cdc.eval_query(cdc.parse_query(q.text, store.registry), store)

        gc.collect()
        t = clock()
        for edit, payload in zip(wl.edits, self.edit_inputs):
            tr.new_group()
            with tr.span("bench.edit"):
                outcomes.append(self.op(lambda: write(edit, payload)))
                for q in edit.reads:
                    with tr.span("bench.read"):
                        t0, o0 = clock(), tr.overhead
                        reads.append(self.op(lambda: read(q)))
                        read_times.append(clock() - t0 - (tr.overhead - o0))
        elapsed = clock() - t
        answers = iter(reads)
        for edit, outcome in zip(wl.edits, outcomes):
            if outcome is not FAILED:
                self.expect(outcome is True, f"edit {edit.kind} {workloads.render_fact(edit.fact)}: unexpected outcome")
            for q, want in zip(edit.reads, edit.expected):
                answer = next(answers)
                if answer is not FAILED:
                    self.expect(rendered(answer) == want,
                                f"read after {edit.kind} {workloads.render_fact(edit.fact)}: {q.text}")
        return {"edit_s": elapsed, "read_times": read_times}

    def cli_phase(self) -> float:
        q = self.wl.cli_query
        cmd = [sys.executable, "-m", "cdcgraph", "query", "--kb", str(self.kb), "--format", "json-lines", q.text]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        gc.collect()
        with self.tr.span("cli.query"):
            t = clock()
            proc = self.op(lambda: subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                                  timeout=120, check=False))
            elapsed = clock() - t
        if proc is not FAILED:
            variables = [a for a in oracles.parse(q.text)[1] if a.startswith("?")]
            try:
                got = [tuple(json.loads(line)["bindings"][v] for v in variables) for line in proc.stdout.splitlines()]
            except (ValueError, KeyError, TypeError):
                got = None
            self.expect(proc.returncode == 0 and got == q.expected,
                        f"cli: exit {proc.returncode}, solutions {got!r:.200}, oracle {q.expected!r:.200}")
        return elapsed

    def cli_import(self) -> float:
        """A child that only imports ``cdcgraph`` (traced runs only)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with self.tr.span("cli.import"):
            t = clock()
            self.op(lambda: subprocess.run([sys.executable, "-c", "import cdcgraph"], env=env, cwd=ROOT,
                                           timeout=120, check=True))
            return clock() - t

    # -- oracle comparisons done once ------------------------------------------

    def verify_closure(self, closure) -> None:
        want = oracles.expected_closure(self.model)
        star: dict = {}
        inherited: dict = {}
        symmetric = set()
        for label, facts in closure.derived.items():
            for relation, concepts, domains in map(to_tuple, facts):
                base = label[: -len("_star")] if label.endswith("_star") else None
                if base in oracles.TRANSITIVE:
                    star.setdefault((base, domains[0]), set()).add(concepts)
                elif label == "has_attribute":
                    inherited.setdefault(domains[0], set()).add(concepts)
                elif label in oracles.SYMMETRIC_INTRA + oracles.CROSS + oracles.FUSION:
                    symmetric.add((relation, concepts, domains))
                else:
                    self.expect(False, f"materialize: unexpected derived label {label}")
        self.expect(set(star) <= set(want["star"]), "materialize: star facts outside their domain")
        for (relation, domain), pairs in want["star"].items():
            got = star.get((relation, domain), set())
            self.expect(got <= pairs and got | self.model.edges(relation, domain) == pairs,
                        f"materialize: {relation}_star in {domain} differs from reachability")
        self.expect(set(inherited) <= set(want["inherited"]), "materialize: inherited facts outside their domain")
        for domain, pairs in want["inherited"].items():
            got = inherited.get(domain, set())
            self.expect(got | self.model.edges("has_attribute", domain) == pairs,
                        f"materialize: has_attribute in {domain} differs from inheritance by ancestors")
        self.expect(symmetric == want["symmetric"], "materialize: symmetric completions differ")

    def verify_trace(self, fact: tuple, leaves: list[tuple], distance: int | None) -> None:
        """Leaves are asserted facts of the fact's domain that chain from its
        subject to its object: edges only for a star fact, in as many steps as
        the shortest path; ``is_a`` edges then one attribute for an inherited one."""
        label, (x, z), (domain,) = fact
        base = label[: -len("_star")] if distance is not None else "is_a"
        wants = [base] * len(leaves)
        if distance is None and leaves:
            wants[-1] = label
        asserted = all((want, concepts, domains) == (relation.removesuffix("_star"), concepts, (domain,))
                       and (want, concepts, domains) in self.model.facts
                       for want, (relation, concepts, domains) in zip(wants, leaves))
        edges = [concepts for _, concepts, _ in leaves]
        chained = bool(edges) and edges[0][0] == x and edges[-1][1] == z and all(
            edges[i][1] == edges[i + 1][0] for i in range(len(edges) - 1))
        self.expect(asserted and chained and (distance is None or len(edges) == distance),
                    f"explain {fact}: leaves {leaves} are not asserted {base} facts of {domain} chaining {x} "
                    f"to {z} (shortest path {distance})")

    # -- the run -----------------------------------------------------------------

    def run(self, seconds: float) -> None:
        # everything the benchmark holds is built by now: the generated
        # workload, the oracle model and the expected answers
        self.harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.run_round(first=True)
        self.counting = True
        start = clock()
        while len(self.rounds) < MIN_ROUNDS or clock() - start < seconds:
            self.tr.round = len(self.rounds) + 1
            self.rounds.append(self.run_round(first=False))

    def medians(self, scaled: bool) -> dict:
        """Each phase's time as the median of its samples over the timed
        rounds: one a round, ``LOADS`` for set-up, ``repeat`` for ``check``
        and ``save``; ``query_p50_s`` is the median over queries of each
        query's median over rounds.  ``scaled`` multiplies every sample by
        its round's factor for that phase (see ``end_to_end``)."""
        rounds, wl = self.rounds, self.wl

        def samples(r, key, factor_key=None):
            k = r["factor"][factor_key or key] if scaled else 1.0
            return [t * k for t in (r[key] if isinstance(r[key], list) else [r[key]])]

        out = {key: statistics.median(t for r in rounds for t in samples(r, key)) for key in PHASES}
        out["query_p50_s"] = statistics.median(
            statistics.median(samples(r, "query_times", "query_s")[i] for r in rounds) for i in range(len(wl.queries)))
        return out

    def end_to_end(self) -> dict:
        """Every time is scaled to the reference host before the median is
        taken: a phase's samples in one round are multiplied by
        ``REFERENCE_S`` over the mean of the two calibration samples taken
        just before and just after that phase.  The host's speed changes
        from round to round and over whole runs (see README), and the
        calibration samples next to a phase ran at the speed the phase ran
        at, so the product reads the same whichever stretch a run falls in."""
        t, wl = self.medians(scaled=True), self.wl
        return {
            "setup_s": t["setup_s"],
            "check_s": t["check_s"],
            "materialize_s": t["materialize_s"],
            "explain_per_s": len(self.explain_facts) / t["explain_s"],
            "query_per_s": len(wl.queries) / t["query_s"],
            "query_p50_ms": t["query_p50_s"] * 1000,
            "edit_per_s": len(wl.edits) / t["edit_s"],
            "save_s": t["save_s"],
            "cli_query_s": t["cli_query_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "kbfile.load_facts_per_s": "1/s", "kbfile.load_bytes": "B", "kbfile.save_bytes": "B",
    "kbfile.write_parse_p50_ms": "ms",
    "store.assert_calls": "count", "store.assert_s": "s", "store.retract_calls": "count",
    "store.write_p50_ms": "ms", "store.match_calls": "count", "store.match_s": "s",
    "store.scanned_entries": "count", "store.scanned_per_solution": "ratio",
    "consistency.domains": "count", "consistency.witnesses": "count", "consistency.lints": "count",
    "consistency.errors": "count",
    "inference.derived_facts": "count", "inference.derived_star": "count", "inference.derived_inherited": "count",
    "inference.derived_symmetric": "count", "inference.redundant_star": "count",
    "inference.explain_calls": "count", "inference.trace_nodes": "count", "inference.trace_depth_mean": "count",
    "inference.star_pairs_calls": "count", "inference.star_pairs_s": "s",
    "inference.reachable_star_calls": "count", "inference.reachable_star_s": "s",
    "inference.derived_facts_for_calls": "count", "inference.derived_facts_for_s": "s",
    "query.parse_s": "s", "query.eval_self_s": "s", "query.solutions": "count",
    "query.read_after_write_p50_ms": "ms",
    **{f"query.{cls}.{stat}": unit for cls in workloads.QUERY_CLASSES
       for stat, unit in (("p50_ms", "ms"), ("p90_ms", "ms"), ("count", "count"))},
    "cli.import_s": "s",
    "process.harness_rss_mb": "MB", "kbfile.load_alloc_peak_mb": "MB", "inference.materialize_alloc_peak_mb": "MB",
}


def instrument(cdc, tracer: Tracer) -> None:
    import cdcgraph.inference
    import cdcgraph.query

    for name, span in (
        ("load_file", "kbfile.load_file"), ("load_text", "kbfile.load_text"),
        ("parse_fact_text", "kbfile.parse_fact_text"), ("save_file", "kbfile.save_file"),
        ("check", "consistency.check"), ("materialize", "inference.materialize"),
        ("explain", "inference.explain"), ("parse_query", "query.parse_query"),
        ("eval_query", "query.eval_query"),
    ):
        tracer.wrap(cdc, name, span)

    def scanned(result, args):
        hits = list(result)
        tracer.count("store.scanned_entries", args[0].stats().last_query_scanned)
        tracer.count("store.matched", len(hits))
        return iter(hits)

    tracer.wrap(cdc.FactStore, "assert_fact", "store.assert_fact")
    tracer.wrap(cdc.FactStore, "retract_fact", "store.retract_fact")
    tracer.wrap(cdc.FactStore, "match", "store.match", after=scanned)
    tracer.wrap(cdc.FactStore, "partition", "store.partition")
    tracer.wrap(cdcgraph.query, "star_pairs", "inference.star_pairs")
    tracer.wrap(cdcgraph.query, "derived_facts_for", "inference.derived_facts_for")
    tracer.wrap(cdcgraph.inference, "reachable_star", "inference.reachable_star")


def per_layer(bench: Bench, tracer: Tracer) -> dict:
    spans, own = tracer.spans, tracer.self_times()
    rounds = range(1, len(bench.rounds) + 1)
    calls = {r: {} for r in rounds}
    total = {r: {} for r in rounds}
    selfs = {r: {} for r in rounds}
    for s, o in zip(spans, own):
        r = s[5]
        if r in calls:
            calls[r][s[0]] = calls[r].get(s[0], 0) + 1
            total[r][s[0]] = total[r].get(s[0], 0) + (s[2] - s[1]) / 1e9
            selfs[r][s[0]] = selfs[r].get(s[0], 0) + o / 1e9

    def med(table, name):
        return statistics.median(table[r].get(name, 0) for r in rounds)

    def inside(names: str, ancestor: str, self_time: bool = False) -> list[float]:
        """Milliseconds of each timed-round span named in ``names`` (``|``-separated)
        that runs under an ``ancestor`` span: its self time or its duration."""
        out = []
        for i, s in enumerate(spans):
            if s[0] in names.split("|") and s[5] in calls:
                p = s[3]
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                if p >= 0:
                    out.append((own[i] if self_time else s[2] - s[1]) / 1e6)
        return out

    wl = bench.wl
    first = bench.rounds[0]
    witnesses, lints, errors = first["check_counts"]
    sizes = bench.reference["closure_sizes"]
    star = sum(n for label, n in sizes.items() if label.endswith("_star"))
    symmetric = sum(n for label, n in sizes.items() if label in oracles.SYMMETRIC_INTRA + oracles.CROSS + oracles.FUSION)
    scanned = statistics.median(tracer.counts[(r, "store.scanned_entries")] for r in rounds)
    matched = statistics.median(tracer.counts[(r, "store.matched")] for r in rounds)
    out = {
        "kbfile.load_facts_per_s": len(wl.facts) * med(calls, "kbfile.load_file") / med(total, "kbfile.load_file"),
        "kbfile.load_bytes": bench.kb.stat().st_size,
        "kbfile.save_bytes": bench.saved.stat().st_size,
        "kbfile.write_parse_p50_ms": statistics.median(
            inside("kbfile.load_text|kbfile.parse_fact_text", "bench.edit", self_time=True)),
        "store.assert_calls": med(calls, "store.assert_fact"),
        "store.assert_s": med(total, "store.assert_fact"),
        "store.retract_calls": med(calls, "store.retract_fact"),
        "store.write_p50_ms": statistics.median(inside("store.assert_fact|store.retract_fact", "bench.edit")),
        "store.match_calls": med(calls, "store.match"),
        "store.match_s": med(total, "store.match"),
        "store.scanned_entries": scanned,
        "store.scanned_per_solution": scanned / matched if matched else 0.0,
        "consistency.domains": len(bench.model.domains()),
        "consistency.witnesses": witnesses,
        "consistency.lints": lints,
        "consistency.errors": errors,
        "inference.derived_facts": sum(sizes.values()),
        "inference.derived_star": star,
        "inference.derived_inherited": sizes.get("has_attribute", 0),
        "inference.derived_symmetric": symmetric,
        "inference.redundant_star": bench.reference["redundant_star"],
        "inference.explain_calls": len(bench.explain_facts),
        "inference.trace_nodes": first["trace_nodes"],
        "inference.trace_depth_mean": statistics.mean(first["trace_depths"]),
        "inference.star_pairs_calls": med(calls, "inference.star_pairs"),
        "inference.star_pairs_s": med(total, "inference.star_pairs"),
        "inference.reachable_star_calls": med(calls, "inference.reachable_star"),
        "inference.reachable_star_s": med(total, "inference.reachable_star"),
        "inference.derived_facts_for_calls": med(calls, "inference.derived_facts_for"),
        "inference.derived_facts_for_s": med(total, "inference.derived_facts_for"),
        "query.parse_s": med(total, "query.parse_query"),
        "query.eval_self_s": med(selfs, "query.eval_query"),
        "query.solutions": first["solutions"],
        "query.read_after_write_p50_ms": statistics.median(t for r in bench.rounds for t in r["read_times"]) * 1000,
        "cli.import_s": statistics.median(r["cli_import_s"] for r in bench.rounds),
        "process.harness_rss_mb": bench.harness_rss_mb,
        **allocation_peaks(bench),
    }
    per_query = [statistics.median(r["query_times"][i] for r in bench.rounds) * 1000 for i in range(len(wl.queries))]
    for cls in workloads.QUERY_CLASSES:
        times = [t for q, t in zip(wl.queries, per_query) if q.cls == cls]
        out[f"query.{cls}.p50_ms"] = pct(times, 0.5) if times else 0.0
        out[f"query.{cls}.p90_ms"] = pct(times, 0.9) if times else 0.0
        out[f"query.{cls}.count"] = len(times)
    return out


def allocation_peaks(bench: Bench) -> dict:
    """How much of ``peak_rss_mb`` the program's own structures take: the
    peak of Python allocations while ``load_file`` fills a fresh store, and
    the further peak while ``materialize`` runs on it.  Measured once after
    the timed rounds, with the wrappers removed, because ``tracemalloc``
    slows every allocation."""
    cdc, mb = bench.cdc, 1024 * 1024
    gc.collect()
    tracemalloc.start()
    try:
        store = cdc.FactStore(cdc.builtin_registry(), strict=bench.wl.strict)
        cdc.load_file(bench.kb, store)
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cdc.materialize(store)
        materialize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return {"kbfile.load_alloc_peak_mb": load_peak / mb, "inference.materialize_alloc_peak_mb": materialize_peak / mb}


# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI children it starts, on one CPU.  The
    other tenants of a shared host load its CPUs unequally, so a calibration
    sample taken on one CPU says little about a phase that ran on another."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdcgraph" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'cdcgraph'}; run from a cdcgraph checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cdcgraph as cdc

    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    workload = workloads.generate(args.workload, args.seed)
    tracer = Tracer() if args.trace else NoTracer()
    if args.trace:
        instrument(cdc, tracer)
    bench = Bench(cdc, workload, args.seed, tracer)
    bench.run(args.seconds)
    e2e = bench.end_to_end()
    metrics = e2e
    units = END_TO_END
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.restore()
        metrics, units = per_layer(bench, tracer), PER_LAYER_UNITS
        tracer.write(OUT / f"{stem}.spans.jsonl")
    result = {
        "correct": not bench.mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    per_round = {key: [r[key] for r in bench.rounds] for key in
                 ("setup_s", "check_s", "materialize_s", "explain_s", "query_s", "edit_s", "save_s", "cli_query_s",
                  "query_times", "factor")}
    (OUT / f"{stem}.json").write_text(json.dumps({
        **result, "end_to_end": e2e, "raw": bench.medians(scaled=False), "calibration_s": bench.cal.times,
        "rounds": len(bench.rounds), "per_round": per_round, "seconds": args.seconds,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
