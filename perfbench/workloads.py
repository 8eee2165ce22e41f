"""The workloads: inputs from the workload seed, closed-loop steps, checks.

Every step is driven through the package's public API. A step ("unit") is
one `run_sweep` call. Unit i of a run always gets the same inputs, whichever
pass (jobs=1, jobs=2, a repeat, traced) runs it, so the passes can be
compared unit by unit.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blocksketch as bs
from hostspeed import timed
from tracing import CountingCSR, Tracer

GAMMA_STAR = bs.gamma_star(30.0, 2.0)


def unit_seed(seed: int, i: int) -> int:
    """Master seed of unit i; a pure function of the workload seed."""
    return seed * 1_000_000 + i


@dataclass
class Unit:
    """Result of one closed-loop step."""

    index: int
    wall_s: float            # summed trial time for traced units
    trial_ms: list
    failed: int
    outcomes: dict           # gamma -> [successes, trials]
    fingerprint: str = None  # masked sweep CSV, compared across jobs; None when traced
    scale: float = 1.0       # scales wall_s and trial_ms to reference host speed

    @property
    def trials(self) -> int:
        return len(self.trial_ms)


def closed_loop(step, budget_s: float) -> list:
    """Run step(0), step(1), ... back to back while the next step, at the
    mean length of the steps so far, is expected to end within the budget."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(step(len(units)))
        spent = time.perf_counter() - t0
        if spent * (len(units) + 1) / len(units) > budget_s:
            return units


def _masked_csv(csv: str) -> str:
    """Sweep CSV with the mean_wall_ms column blanked (the timing exemption)."""
    col = bs.CSV_HEADER.split(",").index("mean_wall_ms")
    rows = [ln.split(",") for ln in csv.splitlines()]
    for r in rows[1:]:
        r[col] = "-"
    return "\n".join(",".join(r) for r in rows)


def traced_sketch(tr: Tracer, g, p: float, q: float, cfg, seed):
    """sketch_and_recover composed from layer calls, one span per call.

    Returns (labels, solution); solution is None for a degenerate sample.
    Solver counters are read from outside: the subgraph's adjacency is
    swapped for a CountingCSR before the solve.
    """
    with tr.span("pipeline.subsample"):
        mask = bs.subsample_nodes(g.n, cfg.gamma, seed)
    if mask.size <= 1:
        return np.zeros(g.n, dtype=np.int8), None
    with tr.span("sbm.induce"):
        sub, _ = bs.induced_subgraph(g, mask)
    with tr.span("sbm.adjacency_build"):
        adj = sub.adjacency
    counting = CountingCSR.wrap(adj)
    sub.adjacency = counting
    lam = bs.lambda_star(p, q)
    sdp_cfg = dataclasses.replace(cfg.sdp, lam=lam, seed=seed)
    with tr.span("sdp.solve"):
        sol = bs.solve_lagrangian_sdp(sub, sdp_cfg)
    with tr.span("sbm.adjacency_build"):
        g.adjacency
    with tr.span("vote.majority_vote"):
        vote = bs.majority_vote(g, mask, sol.rounded)

    d = sol.diagnostics
    objs = np.asarray(d.restart_objectives)
    best = float(objs.max())
    tol = 1e-6 * (1.0 + abs(best))  # the certificate's default gap tolerance
    tr.record("sdp.iterations", d.iterations_total)
    tr.record("sdp.restarts_used", d.restarts_used)
    tr.record("sdp.restarts_agree", int((best - objs <= tol).sum()))
    tr.record("sdp.cap_hit", not d.converged)
    tr.record("sdp.tight", sol.certificate.tight)
    tr.record("sdp.spmm_calls", counting.calls)
    tr.record("sdp.spmm_flops", counting.flops)
    tr.record("vote.ties", vote.tie_count)
    return vote.labels, sol


def traced_round(tr: Tracer, sol) -> None:
    """Re-run rounding on the returned factor, outside the trial span."""
    with tr.span("sdp.round"):
        _, _, iters = bs.leading_eigenvector(sol.factor)
    tr.record("sdp.power_iters", iters)


def traced_file_round_trip(tr: Tracer, g, path: Path) -> bool:
    """write_graph then read_graph on a workload graph, outside the trial span;
    True when the edges and truth come back unchanged."""
    with tr.span("sbm.write_graph"):
        bs.write_graph(g, path)
    with tr.span("sbm.read_graph"):
        g2 = bs.read_graph(path)
    tr.record("sbm.file_bytes", path.stat().st_size)
    path.unlink()
    return g2.n == g.n and np.array_equal(g2.edges, g.edges) \
        and np.array_equal(g2.truth, g.truth)


class SweepWorkload:
    """A closed loop of run_sweep calls, `trials_per_cell` trials per cell."""

    def __init__(self, n, alpha, beta, gammas, trials_per_cell, tail_pct, check):
        self.n, self.alpha, self.beta = n, alpha, beta
        self.gammas = list(gammas)
        self.trials_per_cell = trials_per_cell
        self.tail_pct = tail_pct  # percentile reported as trial_ms_tail
        self.check = check  # outcomes summed over a run -> list of failed checks

    def run_unit(self, seed: int, i: int, jobs: int, tmp: Path) -> Unit:
        log = tmp / f"trials-j{jobs}-{i}.jsonl"

        def sweep():
            t0 = time.perf_counter()
            table = bs.run_sweep([self.n], [self.alpha], [self.beta], self.gammas,
                                 self.trials_per_cell, unit_seed(seed, i),
                                 jobs=jobs, trial_log=log)
            return table, time.perf_counter() - t0

        (table, wall), scale = timed(sweep)
        recs = [json.loads(ln) for ln in log.read_text().splitlines()]
        log.unlink()
        # a trial fails on an error tag, a degenerate sample, or a full
        # recovery whose own sampled labels were wrong
        failed = sum(1 for r in recs if r["error"] is not None or r["sample_size"] < 2
                     or (r["overall_success"] and not r["subgraph_success"]))
        outcomes = {c.gamma: [c.successes, c.trials] for c in table.cells}
        return Unit(i, wall, [r["wall_time"] * 1e3 for r in recs], failed, outcomes,
                    _masked_csv(table.to_csv()), scale)

    def closed_loop(self, seed: int, jobs: int, budget_s: float, tmp: Path) -> list:
        return closed_loop(lambda i: self.run_unit(seed, i, jobs, tmp), budget_s)

    def rerun(self, seed: int, units: list, jobs: int, tmp: Path) -> list:
        """Run the units of an earlier pass again, same inputs, same order."""
        return [self.run_unit(seed, u.index, jobs, tmp) for u in units]

    def traced_unit(self, seed: int, i: int, tr: Tracer, tmp: Path,
                    check_labels: bool) -> Unit:
        params = bs.SbmParams.from_rates(self.n, self.alpha, self.beta)
        trial_ms, failed, outcomes = [], 0, {}
        for ig, gm in enumerate(self.gammas):
            cfg = bs.SketchConfig(gamma=gm)
            wins = 0
            for t in range(self.trials_per_cell):
                # the seed run_sweep gives trial t of cell (0, 0, 0, ig)
                trial_seed = bs.seed_sequence(unit_seed(seed, i), 0, 0, 0, ig, t)
                tr.trial_id = f"{i}/{ig}/{t}"
                t0 = time.perf_counter()
                with tr.span("pipeline.trial"):
                    with tr.span("sbm.sample"):
                        g = bs.sample_sbm(params, trial_seed)
                    labels, sol = traced_sketch(tr, g, params.p, params.q, cfg, trial_seed)
                    ok = sol is not None and bs.is_complete(labels) \
                        and bs.partitions_equal(labels, g.truth)
                trial_ms.append((time.perf_counter() - t0) * 1e3)
                tr.record("sbm.edges", g.m)
                wins += ok
                if sol is None:
                    failed += 1
                    continue
                traced_round(tr, sol)
                if ig == 0 and t == 0:
                    failed += not traced_file_round_trip(tr, g, tmp / f"graph-{i}.txt")
                if check_labels and t == 0:
                    ref = bs.sketch_and_recover(g, params.p, params.q, cfg, trial_seed)
                    failed += not np.array_equal(ref.labels, labels)
            outcomes[gm] = [wins, self.trials_per_cell]
        return Unit(i, sum(trial_ms) / 1e3, trial_ms, failed, outcomes)


def _threshold_shape(outcomes: dict) -> list:
    """Criterion 5: rise from 0.5 gamma* to 3 gamma* >= 0.4, rate at gamma=1 >= 0.85."""
    rate = {g: s / t for g, (s, t) in outcomes.items()}
    rise = rate[3 * GAMMA_STAR] - rate[0.5 * GAMMA_STAR]
    errors = []
    if rise < 0.4:
        errors.append(f"success rise from 0.5 to 3 gamma* is {rise:.3f} < 0.4")
    if rate[1.0] < 0.85:
        errors.append(f"success rate at gamma=1 is {rate[1.0]:.3f} < 0.85")
    return errors


def _control_low(outcomes: dict) -> list:
    (s, t), = outcomes.values()
    return [] if s / t <= 0.2 else [f"control success rate {s / t:.3f} > 0.2"]


WORKLOADS = {
    # the paper's experiment: many small sketched solves plus full n=400 solves
    "threshold-sweep": SweepWorkload(
        400, 30.0, 2.0, [0.5 * GAMMA_STAR, GAMMA_STAR, 2 * GAMMA_STAR, 3 * GAMMA_STAR, 1.0],
        trials_per_cell=4, tail_pct=90, check=_threshold_shape),
    # below the exact-recovery threshold: ascents run to their iteration cap;
    # too few trials fit for a tail with ten samples beyond it, so the median
    "control-sweep": SweepWorkload(300, 3.0, 1.0, [1.0], trials_per_cell=2,
                                   tail_pct=50, check=_control_low),
}
