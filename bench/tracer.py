"""Span tracer that wraps public slidecal functions from outside.

Each traced function is replaced by a wrapper on its module, so every call
that resolves through module globals (cross-module and intra-module alike)
records a span: function id, start, end and the span that was open when it
began.  Spans stay in memory in flat arrays until ``write`` is called.

A probe attached to a function turns the call's arguments and result into
exact counts (triangles evaluated, bytes written, iterations run), so the
counts are taken where the work happens, without touching the package.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, targets):
        """``targets`` is a list of (module, function name, probe or None);
        the span name of each is ``<module short name>.<function name>``."""
        self.targets = list(targets)
        self.names = [f"{m.__name__.rsplit('.', 1)[-1]}.{fn}" for m, fn, _ in self.targets]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = []

    # -- installation ---------------------------------------------------

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for i, (module, fname, probe) in enumerate(self.targets):
            original = getattr(module, fname)
            self._originals.append((module, fname, original))
            setattr(module, fname, self._wrap(i, original, probe))

    def uninstall(self):
        for module, fname, original in reversed(self._originals):
            setattr(module, fname, original)
        self._originals.clear()

    def _wrap(self, i, fn, probe):
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fid)
            fid.append(i)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    # -- phases -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans between two marks form a phase."""
        return len(self.fid)

    def phase_stats(self, lo: int, hi: int) -> dict:
        """Per-function calls, busy seconds and self seconds over spans
        [lo, hi).  Busy time counts only the outermost span of a function,
        so a function that reaches itself again is not counted twice; self
        time subtracts the time covered by direct children."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        selft = [0.0] * n
        child = defaultdict(float)
        for k in range(lo, hi):
            if self.parent[k] >= lo:
                child[self.parent[k]] += self.end[k] - self.start[k]
        for k in range(lo, hi):
            f = self.fid[k]
            d = self.end[k] - self.start[k]
            calls[f] += 1
            selft[f] += d - child.get(k, 0.0)
            p = self.parent[k]
            while p >= lo and self.fid[p] != f:
                p = self.parent[p]
            if p < lo:
                busy[f] += d
        return {name: {"calls": calls[i], "s": busy[i], "self_s": selft[i]}
                for i, name in enumerate(self.names)}

    # -- output -----------------------------------------------------------

    def write(self, path) -> int:
        """Write every recorded span as gzipped CSV; returns the span count."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for k in range(len(self.fid)):
                fh.write(f"{k},{self.names[self.fid[k]]},{self.start[k]!r},"
                         f"{self.end[k]!r},{self.parent[k]}\n")
        return len(self.fid)

