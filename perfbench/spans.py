"""Outside-in span tracing of texcas, installed from the benchmark's files.

Each wrapper replaces one public function at the module binding its callers
actually look up, records a span (name, start, end, parent, item) in flat
arrays kept in memory, and optionally measures the result (IR sizes,
verdicts) inside a ``trace.measure`` span so that work is accounted as
tracing overhead rather than as the caller's self time.  Nothing is added
inside ``src/``.

Self time of a span is its duration minus the durations of its direct
children (spans nest strictly: one thread, one caller).
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict

MEASURE = "trace.measure"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.current_item = -1
        self.totals = defaultdict(int)  # measured quantities, e.g. scan leaves
        self._installed: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def wrap(self, name: str, fn, measure=None):
        """A function that records a span around ``fn``; ``measure(result,
        totals)`` runs after it, inside a trace.measure span."""
        nid, mid = self._id(name), self._id(MEASURE)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if measure is not None:
                m = tracer._open(mid)
                t2 = clock()
                measure(result, tracer.totals)
                t3 = clock()
                tracer.stack.pop()
                tracer.start[m] = t2
                tracer.end[m] = t3
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name: str, measure=None, recursive=False):
        """Replace ``owner.attr``.  For a function that recurses through that
        same binding, the original is put back for the duration of the
        outermost call, so only the outermost span is recorded and the
        recursion runs at full speed."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, measure)
        if recursive:
            def outer(*args, **kwargs):
                setattr(owner, attr, original)
                try:
                    return traced(*args, **kwargs)
                finally:
                    setattr(owner, attr, outer)
            replacement = outer
        else:
            replacement = traced
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- aggregation ------------------------------------------------------------------

    def summary(self):
        """Per name: calls and self ns; plus the total of root-span durations.
        Raises ValueError if a span is not nested inside its parent."""
        n = len(self.name)
        child_ns = [0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                if self.start[idx] < self.start[p] or self.end[idx] > self.end[p]:
                    raise ValueError(f"span {idx} escapes its parent {p}")
                child_ns[p] += self.end[idx] - self.start[idx]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        root_ns = 0
        for idx in range(n):
            name = self.names[self.name[idx]]
            dur = self.end[idx] - self.start[idx]
            calls[name] += 1
            self_ns[name] += dur - child_ns[idx]
            if self.parent[idx] < 0:
                root_ns += dur
        return dict(calls), dict(self_ns), root_ns

    def roots_outside(self, starts, latencies) -> int:
        """Root spans not inside the timed interval of their item, given
        each item's start and duration in ns."""
        return sum(
            1 for idx in range(len(self.name))
            if self.parent[idx] < 0 and (self.item[idx] < 0 or not (
                starts[self.item[idx]] <= self.start[idx]
                and self.end[idx] <= starts[self.item[idx]] + latencies[self.item[idx]])))

    def calls_before(self, item: int) -> dict:
        """Span counts per name over the timed items numbered below ``item``."""
        calls = defaultdict(int)
        for idx in range(len(self.name)):
            if self.item[idx] < item:
                calls[self.names[self.name[idx]]] += 1
        return dict(calls)

    def write(self, directory: str) -> None:
        """Spans as raw arrays plus a JSON index (names, columns, units)."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent, "item": self.item,
                   "start_ns": self.start, "end_ns": self.end}
        for col, arr in columns.items():
            with open(os.path.join(directory, f"{col}.{arr.typecode}"), "wb") as fh:
                arr.tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump({"names": self.names, "count": len(self.name),
                       "columns": {c: f"{c}.{a.typecode}" for c, a in columns.items()},
                       "note": "array typecodes i=int32, q=int64; parent -1 is a root;"
                               " item is the timed item index"}, fh, indent=1)
