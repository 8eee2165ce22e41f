"""Sketch-solve-vote pipeline and the deterministic Monte Carlo harness.

Trial seeds are split from a master seed by (cell index tuple, trial index),
so every trial's result is a pure function of (inputs, master seed): sweep
tables do not depend on worker count or completion order.

The on-disk schemas come from the record dataclasses. A trial-log line holds
the fields of `TrialRecord` (nested `SbmParams` and `Certificate` fields
included); `TIMING_FIELDS` names the one field, `wall_time`, that
`canonical_dict` leaves out and `json_dict` adds back. A sweep CSV row holds
the fields of `CellStats` followed by `master_seed`.

`run_sweep(jobs=k)` with k > 1 needs `os.fork` (POSIX) and a caller with no
other threads running. Task i of the sweep runs in worker i mod k: worker 0 is
the calling process itself, and each other worker is a child forked at the
start of the call that pickles its results into its own pipe and leaves
through `os._exit`. The caller takes results in
task order, so the trial log keeps (cell, trial) order. If a child's pipe
ends before its next result arrives whole, that task and every later one is
recorded as failed with a "BrokenProcessPool" tag; every child is killed and
reaped before `run_sweep` returns or raises.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import signal
import time
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analytics import lambda_star
from .errors import ParameterError
from .rng import RngSeed, STREAM_TIEBREAK, rng_for, seed_fingerprint, seed_sequence
from .sbm import (Graph, SbmParams, induced_subgraph, partitions_equal, require_nonempty,
                  sample_sbm, subsample_nodes)
from .sdp import (Certificate, SdpConfig, SdpSolution, require_multiplier,
                  solve_lagrangian_sdp)
from .vote import VoteOutcome, majority_vote

@dataclass(frozen=True)
class SketchConfig:
    """Pipeline knobs: sampling rate, multiplier, Lagrangian solver, tie policy."""

    gamma: float
    lam: Optional[float] = None     # None -> lambda_star(p, q) of the model rates
    sdp: SdpConfig = SdpConfig()    # lam must stay 0: `lam` sets the multiplier;
                                    # seed is replaced by the trial seed
    tie_mode: str = "strict"        # "strict" | "coin"

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.lam is not None:
            require_multiplier(self.lam)
        if self.tie_mode not in ("strict", "coin"):
            raise ParameterError(f"unknown tie_mode {self.tie_mode!r}")
        if self.sdp.lam:
            raise ParameterError("set the pipeline multiplier with lam, not sdp.lam")


@dataclass(eq=False)
class SketchResult:
    """Labels plus per-stage diagnostics for one pipeline run; `kept` holds
    the sorted kept indices, and `solution` is None for a degenerate sample."""

    labels: np.ndarray
    kept: np.ndarray
    solution: Optional[SdpSolution]
    vote: Optional[VoteOutcome]
    lambda_used: Optional[float]
    tie_flips: int


TIMING_FIELDS = ("wall_time",)   # the TrialRecord fields that vary between equal runs


@dataclass(eq=False)
class TrialRecord:
    params: SbmParams
    gamma: float
    seed: tuple
    sample_size: int
    sdp_certificate: Optional[Certificate]
    subgraph_success: bool
    vote_ties: int
    overall_success: bool
    wall_time: float
    error: Optional[str] = None
    restarts_used: Optional[int] = None      # solver counters; None without a solve
    iterations_total: Optional[int] = None

    def canonical_dict(self) -> dict:
        """Every field but the TIMING_FIELDS; the seed fingerprint as reprs."""
        d = {k: v for k, v in vars(self).items() if k not in TIMING_FIELDS}
        d["params"] = dict(vars(self.params))
        if self.sdp_certificate is not None:
            d["sdp_certificate"] = dict(vars(self.sdp_certificate))
        d["seed"] = list(map(repr, self.seed))
        return d

    def json_dict(self) -> dict:
        d = self.canonical_dict()
        for k in TIMING_FIELDS:
            d[k] = getattr(self, k)
        return d


@dataclass(eq=False)
class CellStats:
    n: int
    alpha: float
    beta: float
    gamma: float
    trials: int
    successes: int
    success_rate: float
    subgraph_success_rate: float
    mean_sample_size: float
    mean_tie_count: float
    mean_wall_ms: float


# (name, type) of each sweep CSV column: the CellStats fields, then master_seed;
# f.type is the annotation's string, as annotations are postponed in this module
_CSV_COLUMNS = tuple((f.name, int if f.type == "int" else float)
                     for f in dataclasses.fields(CellStats)) + (("master_seed", int),)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


_AXIS_COLUMNS = ("alpha", "beta", "gamma")  # written losslessly: the model must parse back


def _csv_text(kind: type, value, exact: bool = False) -> str:
    """int as str; float as .6g, or its shortest round-trip repr when exact
    and .6g would change the value."""
    if kind is int:
        return str(value)
    text = format(float(value), ".6g")
    return repr(float(value)) if exact and float(text) != value else text


@dataclass(eq=False)
class SweepTable:
    n_values: tuple
    alpha_values: tuple
    beta_values: tuple
    gamma_values: tuple
    trials_per_cell: int
    master_seed: int
    cells: list

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for c in self.cells:
            row = {**vars(c), "master_seed": self.master_seed}
            lines.append(",".join(_csv_text(kind, row[name], name in _AXIS_COLUMNS)
                                  for name, kind in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def sketch_and_recover(g: Graph, p: float, q: float, cfg: SketchConfig,
                       seed: RngSeed) -> SketchResult:
    """Subsample nodes, solve the relaxation on the kept subgraph, vote out.

    The multiplier is cfg.lam, or lambda_star(p, q) of the model rates when
    that is None; the same value is correct on the subgraph because the
    parametrization is invariant to its size. The solve is seeded by `seed`.
    A sample of at most one node short-circuits to a degenerate failure (all
    labels unassigned).
    """
    require_nonempty(g)
    if not (0.0 <= q < p <= 1.0):
        raise ParameterError(f"pipeline needs 0 <= q < p <= 1, got p={p}, q={q}")
    kept = subsample_nodes(g.n, cfg.gamma, seed)
    if kept.size <= 1:
        return SketchResult(labels=np.zeros(g.n, dtype=np.int8), kept=kept,
                            solution=None, vote=None, lambda_used=None, tie_flips=0)
    sub, _ = induced_subgraph(g, kept)
    lam = lambda_star(p, q) if cfg.lam is None else cfg.lam
    sdp_cfg = dataclasses.replace(cfg.sdp, lam=lam, seed=seed)
    sol = solve_lagrangian_sdp(sub, sdp_cfg)
    outcome = majority_vote(g, kept, sol.rounded)
    labels = outcome.labels.copy()
    tie_flips = 0
    if cfg.tie_mode == "coin" and outcome.tie_count:
        tied = np.flatnonzero(labels == 0)
        coin = rng_for(seed, STREAM_TIEBREAK)
        labels[tied] = (2 * coin.integers(0, 2, size=tied.size) - 1).astype(np.int8)
        tie_flips = int(tied.size)
    return SketchResult(labels=labels, kept=kept, solution=sol, vote=outcome,
                        lambda_used=lam, tie_flips=tie_flips)


def run_trial(params: SbmParams, cfg: SketchConfig, seed: RngSeed) -> TrialRecord:
    """Fresh graph, one pipeline pass, success bookkeeping."""
    t0 = time.perf_counter()
    g = sample_sbm(params, seed)
    res = sketch_and_recover(g, params.p, params.q, cfg, seed)
    sub_ok = (res.solution is not None
              and partitions_equal(res.solution.rounded, g.truth[res.kept]))
    overall = partitions_equal(res.labels, g.truth)
    wall = time.perf_counter() - t0
    diag = res.solution.diagnostics if res.solution else None
    return TrialRecord(
        params=params,
        gamma=cfg.gamma,
        seed=seed_fingerprint(seed),
        sample_size=res.kept.size,
        sdp_certificate=res.solution.certificate if res.solution else None,
        subgraph_success=sub_ok,
        vote_ties=res.vote.tie_count if res.vote else 0,
        overall_success=overall,
        wall_time=wall,
        error="degenerate-sample" if res.solution is None else None,
        restarts_used=diag.restarts_used if diag else None,
        iterations_total=diag.iterations_total if diag else None,
    )


def _failed_trial(params: SbmParams, cfg: SketchConfig, seed, wall_time: float,
                  exc: BaseException) -> TrialRecord:
    return TrialRecord(params=params, gamma=cfg.gamma, seed=seed_fingerprint(seed),
                       sample_size=0, sdp_certificate=None, subgraph_success=False,
                       vote_ties=0, overall_success=False, wall_time=wall_time,
                       error=f"{type(exc).__name__}: {exc}")


def _trial_task(args):
    params, cfg, master_seed, cell, t = args
    seed = seed_sequence(master_seed, *cell, t)
    t0 = time.perf_counter()
    try:
        rec = run_trial(params, cfg, seed)
    except Exception as exc:  # one bad trial must not sink the sweep
        rec = _failed_trial(params, cfg, seed, time.perf_counter() - t0, exc)
    return cell, t, rec


class BrokenProcessPool(Exception):
    """A forked sweep worker ended before returning all of its results."""


def _start_worker(tasks: list, w: int, k: int, readers: list) -> int:
    """Fork worker w of k, which runs tasks w, w + k, ... and pickles each
    result into a new pipe, flushing after each one; append the pipe's read
    end to `readers` and return the child's pid. The child closes every read
    end it inherits, so its pipe ends when it does, and it leaves only through
    os._exit, never returning into the caller's stack."""
    r, wfd = os.pipe()
    readers.append(os.fdopen(r, "rb"))
    with os.fdopen(wfd, "wb") as out:  # the caller's copy closes after the fork
        pid = os.fork()
        if pid == 0:
            try:
                for f in readers:
                    f.close()
                for task in tasks[w::k]:
                    pickle.dump(_trial_task(task), out)
                    out.flush()
            finally:
                os._exit(0)
    return pid


def run_sweep(n_values: Sequence[int], alpha_values: Sequence[float],
              beta_values: Sequence[float], gamma_values: Sequence[float],
              trials: int, master_seed: int, *, config: Optional[SketchConfig] = None,
              jobs: int = 1, trial_log=None) -> SweepTable:
    """Full product sweep over (n, alpha, beta, gamma) with `trials` per cell.

    The per-cell gamma overrides the template config's. An exception of any
    type inside a trial is recorded as a failed trial with an error tag
    rather than aborting the sweep.
    `jobs` only sets the worker count; results are identical for any value
    because trial seeds depend on cell and trial indices alone. With
    k = min(jobs, number of trials) > 1, task i runs in worker i mod k, where
    worker 0 is the calling process and the others are `os.fork`ed children
    (so jobs > 1 needs POSIX, and a caller with no other threads running);
    they are started per call and killed and reaped before this returns or
    raises. When a child's results stop short
    (it died, or its last record is truncated), the first missing task and
    every later one is recorded as failed with a "BrokenProcessPool" tag.
    Each `trial_log` JSONL line is written as its trial's result arrives, in
    (cell, trial) order.
    """
    for name, ax in (("n", n_values), ("alpha", alpha_values),
                     ("beta", beta_values), ("gamma", gamma_values)):
        if len(ax) == 0:
            raise ParameterError(f"axis {name} must be non-empty")
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if jobs < 1:
        raise ParameterError("jobs must be at least 1")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ParameterError("jobs > 1 needs os.fork (POSIX)")
    seed_sequence(master_seed)  # a negative seed fails here, before any trial
    template = config if config is not None else SketchConfig(gamma=1.0)

    tasks = []
    cell_axes = []
    for (i_n, n), (i_a, a), (i_b, b), (i_g, gm) in product(
            enumerate(n_values), enumerate(alpha_values),
            enumerate(beta_values), enumerate(gamma_values)):
        params = SbmParams.from_rates(int(n), float(a), float(b))
        cfg = dataclasses.replace(template, gamma=float(gm))
        cell = (i_n, i_a, i_b, i_g)
        cell_axes.append((cell, int(n), float(a), float(b), float(gm)))
        for t in range(trials):
            tasks.append((params, cfg, master_seed, cell, t))

    by_cell = {}
    with ExitStack() as stack:
        log = stack.enter_context(Path(trial_log).open("w")) if trial_log is not None else None

        def record(cell, rec):
            by_cell.setdefault(cell, []).append(rec)
            if log is not None:
                log.write(json.dumps(rec.json_dict(), sort_keys=True) + "\n")
                log.flush()

        k = min(jobs, len(tasks))
        pids, readers = [], []
        try:
            for w in range(1, k):
                pids.append(_start_worker(tasks, w, k, readers))
            for i, task in enumerate(tasks):
                w = i % k
                if w == 0:
                    cell, _, rec = _trial_task(task)
                else:
                    try:
                        cell, _, rec = pickle.load(readers[w - 1])
                    except (EOFError, pickle.UnpicklingError):
                        # a worker died: no later result is trusted
                        exc = BrokenProcessPool(f"worker {w} ended before returning task {i}")
                        for params, cfg, _, cell, t in tasks[i:]:
                            seed = seed_sequence(master_seed, *cell, t)
                            record(cell, _failed_trial(params, cfg, seed, 0.0, exc))
                        break
                record(cell, rec)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for f in readers:
                f.close()

    cells = []
    for cell, n, a, b, gm in cell_axes:
        recs = by_cell[cell]
        successes = sum(r.overall_success for r in recs)
        sub = sum(r.subgraph_success for r in recs)
        cells.append(CellStats(
            n=n, alpha=a, beta=b, gamma=gm, trials=trials,
            successes=int(successes),
            success_rate=successes / trials,
            subgraph_success_rate=sub / trials,
            mean_sample_size=float(np.mean([r.sample_size for r in recs])),
            mean_tie_count=float(np.mean([r.vote_ties for r in recs])),
            mean_wall_ms=float(np.mean([r.wall_time for r in recs])) * 1e3,
        ))
    return SweepTable(
        n_values=tuple(int(v) for v in n_values),
        alpha_values=tuple(float(v) for v in alpha_values),
        beta_values=tuple(float(v) for v in beta_values),
        gamma_values=tuple(float(v) for v in gamma_values),
        trials_per_cell=trials,
        master_seed=int(master_seed),
        cells=cells,
    )


def _check_csv_row(row: dict) -> None:
    """Raise ParameterError unless run_sweep could have written this row: the
    model and gamma pass run_sweep's own checks, 0 <= successes <= trials,
    rates lie in [0, 1], and means are finite and non-negative, with the
    mean sample size at most n as written (.6g rounding keeps the order)."""
    SbmParams.from_rates(row["n"], row["alpha"], row["beta"])
    SketchConfig(gamma=row["gamma"])
    if row["trials"] < 1 or not 0 <= row["successes"] <= row["trials"]:
        raise ParameterError("need trials >= 1 and 0 <= successes <= trials")
    if not all(0.0 <= row[k] <= 1.0 for k in ("success_rate", "subgraph_success_rate")):
        raise ParameterError("success rates must lie in [0, 1]")
    if not all(0.0 <= row[k] < math.inf
               for k in ("mean_sample_size", "mean_tie_count", "mean_wall_ms")):
        raise ParameterError("means must be finite and non-negative")
    if row["mean_sample_size"] > float(_csv_text(float, row["n"])):
        raise ParameterError("mean sample size exceeds n")
    if row["master_seed"] < 0:
        raise ParameterError("negative master_seed")


def parse_sweep_csv(text: str) -> SweepTable:
    """Parse a sweep CSV; to_csv() of the result reproduces the input bytes."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError("unrecognized sweep CSV header")
    cells = []
    seeds = set()
    trials_seen = set()
    axes = {"n": [], "alpha": [], "beta": [], "gamma": []}
    for i, ln in enumerate(lines[1:], 1):
        try:
            row = {name: kind(v) for (name, kind), v
                   in zip(_CSV_COLUMNS, ln.split(","), strict=True)}
            _check_csv_row(row)
        except ValueError as exc:  # ParameterError is a ValueError
            raise ParameterError(f"bad sweep CSV row {i} ({exc}): {ln!r}") from None
        seeds.add(row.pop("master_seed"))
        cells.append(CellStats(**row))
        trials_seen.add(row["trials"])
        for key, vals in axes.items():
            if row[key] not in vals:
                vals.append(row[key])
    if len(seeds) > 1 or len(trials_seen) > 1:
        raise ParameterError("inconsistent master_seed or trials across rows")
    return SweepTable(
        n_values=tuple(axes["n"]), alpha_values=tuple(axes["alpha"]),
        beta_values=tuple(axes["beta"]), gamma_values=tuple(axes["gamma"]),
        trials_per_cell=trials_seen.pop() if trials_seen else 0,
        master_seed=seeds.pop() if seeds else 0,
        cells=cells,
    )
