"""In-memory span recorder and a counting adjacency for the traced run.

Spans are recorded only in the benchmark's own files, around calls into the
package's public functions; the package itself is not instrumented.
A span is (name, start, end, parent, trial id), with times from
time.perf_counter. A layer's self time is the span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from scipy.sparse import csr_matrix


class CountingCSR(csr_matrix):
    """CSR matrix that counts `self @ Y` calls and their computed flops.

    The flop count is 2 * nnz * (columns of Y) per call: computed from the
    operand shapes, not read from a hardware counter.
    """

    calls = 0
    flops = 0

    @classmethod
    def wrap(cls, a: csr_matrix) -> "CountingCSR":
        return cls((a.data, a.indices, a.indptr), shape=a.shape)

    def __matmul__(self, other):
        self.calls += 1
        self.flops += 2 * self.nnz * (other.shape[1] if other.ndim == 2 else 1)
        return super().__matmul__(other)


class Tracer:
    """Collects spans in memory; nothing is written until `dump`."""

    def __init__(self):
        self.spans = []      # index -> (name, start, end, parent index, trial id)
        self._stack = []
        self.trial_id = None
        self.counts = defaultdict(list)   # counter name -> one value per event

    def record(self, name: str, value) -> None:
        self.counts[name].append(value)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.trial_id)

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
