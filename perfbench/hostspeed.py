"""Host speed, measured by a fixed reference kernel that the package does not run.

The benchmark's host is a few cores of a shared machine whose speed changes
by up to 1.3x for stretches that outlast a run (see README.md). Wall times
are therefore reported at a reference host speed: a time measured while the
kernel below took `k` ms is scaled by REF_MS / k. The kernel is plain
numpy/scipy on fixed inputs, shaped like the solver's inner loop (a sparse
n=300 adjacency times a dense 300x25 factor, then row-wise products and
norms), so a host slowdown slows it as it slows a trial, while no change to
the package can change its time.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# the kernel's median time on the 2-vCPU host the benchmark was tuned on;
# a constant, so that scaled times keep their meaning across commits
REF_MS = 38.0

_N, _RANK, _DEGREE, _ITERS = 300, 25, 6, 300


def _inputs():
    rng = np.random.default_rng(20210202)
    m = _N * _DEGREE // 2
    a = sp.coo_matrix((np.ones(m), (rng.integers(0, _N, m), rng.integers(0, _N, m))),
                      shape=(_N, _N))
    y = rng.standard_normal((_N, _RANK))
    return (a + a.T).tocsr(), y / np.linalg.norm(y, axis=1, keepdims=True)


_ADJ, _Y0 = _inputs()


def kernel_ms() -> float:
    """Wall time in ms of one run of the reference kernel."""
    y = _Y0
    t0 = time.perf_counter()
    for _ in range(_ITERS):
        ay = _ADJ @ y
        d = ay - np.sum(ay * y, axis=1, keepdims=True) * y
        c = y + 0.01 * d
        y = c / np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1e-300)
    return (time.perf_counter() - t0) * 1e3


def timed(fn):
    """Run fn() between two kernel runs; return (its result, the factor
    REF_MS / mean kernel time that scales its wall times to reference speed)."""
    before = kernel_ms()
    out = fn()
    after = kernel_ms()
    return out, 2 * REF_MS / (before + after)
