"""How fast the host runs right now, from a fixed piece of pure-Python work.

The benchmark's host is shared: other tenants slow every instruction for
stretches of seconds to minutes (no time is stolen, so CPU time does not
show it; see ``noise.py`` and the README).  A time measured in one run
therefore says as much about the host as about the program.  ``Calibration``
is work of the same kinds the program does -- lexing with regular
expressions, building frozen dataclasses and hashing them into dict-of-set
indexes, breadth-first search, sorting rendered strings -- on a fixed input
that does not depend on the workload or its seed, and that never calls the
program.  The benchmark runs it before, between and after the timed phases
of every round and scales each phase's time by ``REFERENCE_S`` over the mean
of the two samples beside it: the time as it would read on a host where one
calibration takes ``REFERENCE_S``.  A change to the program moves the phase
times and not the calibration, so it shows in full.

    python3 perfbench/calibrate.py     # prints the median of 200 calibrations
"""

from __future__ import annotations

import random
import re
import statistics
import time
from collections import deque
from dataclasses import dataclass

# a nominal calibration time: single samples took 3.3-9 ms on the 2-vCPU
# Xeon VM of the README's figures (CPython 3.11), with a median of 5-6 ms
# while other tenants loaded it
REFERENCE_S = 0.0040

_CLAUSE_RE = re.compile(r"([a-z_]+)\(([^)]*)\)\.")
_ATOM_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*|\"[^\"]*\"")


@dataclass(frozen=True)
class _Concept:
    symbol: str


@dataclass(frozen=True)
class _Fact:
    relation: str
    concepts: tuple
    domain: str


def _text(seed: int = 0, domains: int = 4, nodes: int = 40, edges: int = 70) -> str:
    rng = random.Random(f"calibration:{seed}")
    lines = []
    for d in range(domains):
        names = [f"n{d}_{i}" for i in range(nodes)]
        for _ in range(edges):
            a, b = sorted(rng.sample(range(nodes), 2))
            lines.append(f'is_a({names[a]}, {names[b]}, "f{d}@s{d}").')
        for i in range(0, nodes, 3):
            lines.append(f'has_attribute({names[i]}, at{rng.randrange(9)}, "f{d}@s{d}").')
    return "\n".join(lines) + "\n"


class Calibration:
    def __init__(self):
        self.text = _text()
        self.times: list[float] = []

    def work(self) -> int:
        index: dict[tuple[str, str], dict[_Concept, set[_Concept]]] = {}
        facts = set()
        for match in _CLAUSE_RE.finditer(self.text):
            args = _ATOM_RE.findall(match.group(2))
            fact = _Fact(match.group(1), tuple(_Concept(a) for a in args[:-1]), args[-1].strip('"'))
            if fact in facts:
                continue
            facts.add(fact)
            index.setdefault((fact.relation, fact.domain), {}).setdefault(fact.concepts[0], set()).add(fact.concepts[1])
        out = []
        for (relation, domain), adj in index.items():
            if relation != "is_a":
                continue
            for start in adj:
                seen, todo = {start}, deque([start])
                while todo:
                    for nxt in adj.get(todo.popleft(), ()):
                        if nxt not in seen:
                            seen.add(nxt)
                            todo.append(nxt)
                out.extend(f"{relation}_star({start.symbol}, {c.symbol}, \"{domain}\")" for c in seen if c != start)
        out.sort()
        return len(out)

    def sample(self) -> float:
        """Run the work once, record its time and return it."""
        t = time.perf_counter()
        self.work()
        elapsed = time.perf_counter() - t
        self.times.append(elapsed)
        return elapsed


if __name__ == "__main__":
    cal = Calibration()
    for _ in range(200):
        cal.sample()
    print(f"median {statistics.median(cal.times) * 1000:.3f} ms over {len(cal.times)} calibrations "
          f"(reference {REFERENCE_S * 1000:.3f} ms)")
