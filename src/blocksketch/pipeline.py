"""Sketch-solve-vote pipeline and the deterministic Monte Carlo harness.

Trial seeds are split from a master seed by (cell index tuple, trial index),
so every trial's result is a pure function of (inputs, master seed): sweep
tables do not depend on worker count or completion order.
"""
from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analytics import lambda_star
from .errors import ParameterError
from .rng import RngSeed, STREAM_TIEBREAK, rng_for, seed_fingerprint, seed_sequence
from .sbm import (Graph, SampleMask, SbmParams, induced_subgraph, is_complete,
                  partitions_equal, require_nonempty, sample_sbm, subsample_nodes)
from .sdp import (Certificate, SdpConfig, SdpSolution, require_multiplier,
                  solve_lagrangian_sdp)
from .vote import VoteOutcome, majority_vote

CSV_HEADER = ("n,alpha,beta,gamma,trials,successes,success_rate,"
              "subgraph_success_rate,mean_sample_size,mean_tie_count,"
              "mean_wall_ms,master_seed")


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
    """Labels plus per-stage diagnostics for one pipeline run."""

    labels: np.ndarray
    mask: SampleMask
    solution: Optional[SdpSolution]
    vote: Optional[VoteOutcome]
    degenerate: bool
    lambda_used: Optional[float]
    tie_flips: int


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
        """Deterministic content; wall_time is the documented exemption."""
        cert = None
        if self.sdp_certificate is not None:
            cert = {"tight": self.sdp_certificate.tight, "gap": self.sdp_certificate.gap}
        return {
            "params": {
                "n1": self.params.n1, "n2": self.params.n2,
                "p": self.params.p, "q": self.params.q,
                "alpha": self.params.alpha, "beta": self.params.beta,
                "balanced": self.params.balanced,
            },
            "gamma": self.gamma,
            "seed": list(map(repr, self.seed)),
            "sample_size": self.sample_size,
            "sdp_certificate": cert,
            "subgraph_success": self.subgraph_success,
            "vote_ties": self.vote_ties,
            "overall_success": self.overall_success,
            "error": self.error,
            "restarts_used": self.restarts_used,
            "iterations_total": self.iterations_total,
        }

    def json_dict(self) -> dict:
        d = self.canonical_dict()
        d["wall_time"] = self.wall_time
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
            lines.append(",".join([
                str(c.n), _fmt(c.alpha), _fmt(c.beta), _fmt(c.gamma),
                str(c.trials), str(c.successes), _fmt(c.success_rate),
                _fmt(c.subgraph_success_rate), _fmt(c.mean_sample_size),
                _fmt(c.mean_tie_count), _fmt(c.mean_wall_ms),
                str(self.master_seed),
            ]))
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


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
    mask = subsample_nodes(g.n, cfg.gamma, seed)
    if mask.size <= 1:
        return SketchResult(labels=np.zeros(g.n, dtype=np.int8), mask=mask,
                            solution=None, vote=None, degenerate=True,
                            lambda_used=None, tie_flips=0)
    sub, _ = induced_subgraph(g, mask)
    lam = lambda_star(p, q) if cfg.lam is None else cfg.lam
    sdp_cfg = dataclasses.replace(cfg.sdp, lam=lam, seed=seed)
    sol = solve_lagrangian_sdp(sub, sdp_cfg)
    outcome = majority_vote(g, mask, sol.rounded)
    labels = outcome.labels.copy()
    tie_flips = 0
    if cfg.tie_mode == "coin" and outcome.tie_count:
        tied = np.flatnonzero(labels == 0)
        coin = rng_for(seed, STREAM_TIEBREAK)
        labels[tied] = (2 * coin.integers(0, 2, size=tied.size) - 1).astype(np.int8)
        tie_flips = int(tied.size)
    return SketchResult(labels=labels, mask=mask, solution=sol, vote=outcome,
                        degenerate=False, lambda_used=lam, tie_flips=tie_flips)


def run_trial(params: SbmParams, cfg: SketchConfig, seed: RngSeed) -> TrialRecord:
    """Fresh graph, one pipeline pass, success bookkeeping."""
    t0 = time.perf_counter()
    g = sample_sbm(params, seed)
    res = sketch_and_recover(g, params.p, params.q, cfg, seed)
    truth = g.truth
    if res.degenerate:
        sub_ok = False
        overall = False
    else:
        sub_ok = partitions_equal(res.solution.rounded, truth[res.mask.kept])
        overall = is_complete(res.labels) and partitions_equal(res.labels, truth)
    wall = time.perf_counter() - t0
    diag = res.solution.diagnostics if res.solution else None
    return TrialRecord(
        params=params,
        gamma=cfg.gamma,
        seed=seed_fingerprint(seed),
        sample_size=res.mask.size,
        sdp_certificate=res.solution.certificate if res.solution else None,
        subgraph_success=bool(sub_ok),
        vote_ties=res.vote.tie_count if res.vote else 0,
        overall_success=bool(overall),
        wall_time=wall,
        error="degenerate-sample" if res.degenerate else None,
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


def run_sweep(n_values: Sequence[int], alpha_values: Sequence[float],
              beta_values: Sequence[float], gamma_values: Sequence[float],
              trials: int, master_seed: int, *, config: Optional[SketchConfig] = None,
              jobs: int = 1, trial_log=None) -> SweepTable:
    """Full product sweep over (n, alpha, beta, gamma) with `trials` per cell.

    The per-cell gamma overrides the template config's. An exception of any
    type inside a trial is recorded as a failed trial with an error tag
    rather than aborting the sweep. When a worker process dies, every trial
    the pool did not return is recorded as failed with a "BrokenProcessPool"
    tag.
    `jobs` only sets the worker count; results are identical for any value
    because trial seeds depend on cell and trial indices alone. Each
    `trial_log` JSONL line is written as its trial's result arrives, in
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

        if jobs == 1:
            results = map(_trial_task, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_trial_task, tasks, chunksize=max(1, len(tasks) // (jobs * 4)))
        # tasks are in (cell, t) order and both maps yield in task order
        done = 0
        try:
            for cell, _, rec in results:
                record(cell, rec)
                done += 1
        except BrokenProcessPool as exc:  # a worker died: no later result arrives
            for params, cfg, _, cell, t in tasks[done:]:
                seed = seed_sequence(master_seed, *cell, t)
                record(cell, _failed_trial(params, cfg, seed, 0.0, exc))

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


def parse_sweep_csv(text: str) -> SweepTable:
    """Parse a sweep CSV; to_csv() of the result reproduces the input bytes."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError("unrecognized sweep CSV header")
    cells = []
    seeds = set()
    trials_seen = set()
    axes = {"n": [], "alpha": [], "beta": [], "gamma": []}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise ParameterError(f"bad sweep CSV row: {ln!r}")
        (n, alpha, beta, gamma, trials, successes, rate, sub_rate,
         mss, mtc, mwm, seed) = parts
        cell = CellStats(
            n=int(n), alpha=float(alpha), beta=float(beta), gamma=float(gamma),
            trials=int(trials), successes=int(successes),
            success_rate=float(rate), subgraph_success_rate=float(sub_rate),
            mean_sample_size=float(mss), mean_tie_count=float(mtc),
            mean_wall_ms=float(mwm),
        )
        cells.append(cell)
        seeds.add(int(seed))
        trials_seen.add(cell.trials)
        for key, val in (("n", cell.n), ("alpha", cell.alpha),
                         ("beta", cell.beta), ("gamma", cell.gamma)):
            if val not in axes[key]:
                axes[key].append(val)
    if len(seeds) > 1 or len(trials_seen) > 1:
        raise ParameterError("inconsistent master_seed or trials across rows")
    return SweepTable(
        n_values=tuple(axes["n"]), alpha_values=tuple(axes["alpha"]),
        beta_values=tuple(axes["beta"]), gamma_values=tuple(axes["gamma"]),
        trials_per_cell=trials_seen.pop() if trials_seen else 0,
        master_seed=seeds.pop() if seeds else 0,
        cells=cells,
    )
