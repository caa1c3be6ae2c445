"""In-memory spans for the traced run.

A span is ``[name, start_ns, end_ns, parent, group, round]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``group`` ties together
the spans of one query, edit step or explain walk.  Spans stay in a list
while the benchmark runs and are written out as JSON lines at the end.

Functions are wrapped at the name their caller looks up: a call from
``cdcgraph.query`` to ``star_pairs`` goes through ``cdcgraph.query.star_pairs``,
so that is the attribute replaced.  ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.group = 0
        self.round = 0
        self.overhead = 0.0  # seconds spent in ``after`` hooks
        self._originals: list[tuple[object, str, object]] = []

    def start(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.group, self.round])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        finally:
            self.end(index)

    def new_group(self) -> None:
        self.group += 1

    def count(self, name: str, n: int) -> None:
        self.counts[(self.round, name)] += n

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a function that records a span around
        each call.  ``after(result, args)`` runs once the span has ended,
        inside a ``trace.overhead`` span so that its cost is no layer's self
        time; it may replace the result."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.start(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                index = tracer.start("trace.overhead")
                try:
                    result = after(result, args)
                finally:
                    tracer.end(index)
                    span = tracer.spans[index]
                    tracer.overhead += (span[2] - span[1]) / 1e9
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, group, rnd) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "group": group, "round": rnd}) + "\n")
