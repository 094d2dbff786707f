"""Spans recorded from outside the package, kept in memory, written at the end.

A span times one call into a layer: its name, the operation it belongs to,
its parent span, start and end. Calls too frequent to keep one span each
(the dictionary's per-iteration ``correlate`` and ``atom_flat``) are folded
into their parent span as ``{name: [calls, seconds]}``, which is all a self
time needs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, op, parent, start, end, {child name: [calls, seconds]}].
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.op, parent, perf_counter(), 0.0, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def child(self, name: str, seconds: float) -> None:
        """Fold one short call into the innermost open span."""
        entry = self.spans[self._stack[-1]][5].setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.named(name))

    def child_total(self, span_name: str, child: str) -> tuple[int, float]:
        """``(calls, seconds)`` of ``child`` summed over spans called ``span_name``."""
        calls, seconds = 0, 0.0
        for s in self.named(span_name):
            c = s[5].get(child)
            if c:
                calls += c[0]
                seconds += c[1]
        return calls, seconds

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        wanted = {i for i, s in enumerate(self.spans) if s[0] == name}
        covered = sum(s[4] - s[3] for s in self.spans if s[2] in wanted)
        covered += sum(seconds for i in wanted for _, seconds in self.spans[i][5].values())
        return self.total(name) - covered

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "op": op, "parent": parent, "start": start, "end": end, "children": children}
            for n, op, parent, start, end, children in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")))


class TracedDictionary:
    """Forwards to a ``Dictionary2D`` and times ``correlate``, ``atom_flat`` and
    ``reconstruct``; every other attribute is the wrapped dictionary's."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def correlate(self, block):
        t0 = perf_counter()
        out = self._inner.correlate(block)
        self._tracer.child("dictionary.correlate", perf_counter() - t0)
        return out

    def atom_flat(self, flat):
        t0 = perf_counter()
        out = self._inner.atom_flat(flat)
        self._tracer.child("dictionary.atom_flat", perf_counter() - t0)
        return out

    def reconstruct(self, entries):
        t0 = perf_counter()
        out = self._inner.reconstruct(entries)
        self._tracer.child("dictionary.reconstruct", perf_counter() - t0)
        return out
