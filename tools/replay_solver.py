"""Replay a fixed battery of seeded SDP solves; print one line per cell.

    PYTHONPATH=src python tools/replay_solver.py    # about 15 s on a 2-vCPU host
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/replay_solver.py --expect FILE

With --expect FILE, each printed line is compared with the same line of FILE,
and the exit status is 1 on any difference, which is then named on stderr.
With FILE = tools/replay_solver.expected this is the solver's replay gate.
That file is the output recorded with one BLAS thread
(OPENBLAS_NUM_THREADS=1) on numpy 2.4.6 with its bundled OpenBLAS 0.3.31,
which picks its kernels for the CPU at run time. The digests depend on that
numpy/OpenBLAS build and CPU: another may round a product or an eigensolve
differently, so there a change is compared with its parent commit's output
recorded on the same host, not with this file.

Cells: 300 sketched subgraphs of n = 400 graphs (alpha 30, beta 2) at half the
threshold rate, every third even-sized one also on the balanced program; 10 at
n = 5000; 60 full n = 300 graphs below the threshold (alpha 3, beta 1) on both
programs; 200 more such control graphs, seeded seed_sequence(555000, i), on the
Lagrangian program, the set that sized _STEP_TOL and _RANK_TOL. A line gives
solves, ascents, tight verdicts, a restarts_used histogram, total iterations,
and four SHA-256 digests, so that two commits' outputs can be diffed:
- sha256 over every (partition with node 0 labelled +1, tight, restarts_used):
  the same results in the same number of restarts;
- bits_sha256 over every solve's restart_objectives bytes and iterations_total:
  the same bits along the way;
- returned_sha256 over every solve's returned objective, iterations and
  certificate gap: which restart a solve returned;
- results_sha256 over every (partition with node 0 labelled +1, tight): the same
  results, however many restarts they took.
"""
import argparse
import collections
import hashlib
import itertools
import struct
import sys
from pathlib import Path

import blocksketch as bs

SEED = 20261020  # fixed before any result was read
HALF = 0.5 * bs.gamma_star(30.0, 2.0)


def keyed_seeds(count: int, *key: int):
    """seed_sequence(*key, i) for i < count."""
    return (bs.seed_sequence(*key, i) for i in range(count))


def graphs(n: int, alpha: float, beta: float, gamma: float, seeds):
    """(graph, lambda_star, seed) for each seed's draw, sketched when gamma < 1."""
    params = bs.SbmParams.from_rates(n, alpha, beta)
    lam = bs.lambda_star(params.p, params.q)
    for seed in seeds:
        g = bs.sample_sbm(params, seed)
        if gamma < 1.0:
            g, _ = bs.induced_subgraph(g, bs.subsample_nodes(n, gamma, seed))
        if g.n >= 2:  # the pipeline solves no smaller sample
            yield g, lam, seed


def battery():
    """Yield (cell name, solution) for every solve, in a fixed order."""
    lagrangian, balanced = bs.solve_lagrangian_sdp, bs.solve_balanced_sdp
    even = 0
    for g, lam, seed in graphs(400, 30.0, 2.0, HALF, keyed_seeds(300, SEED, 0)):
        yield "n400-half lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
        if g.n % 2 == 0:
            if even % 3 == 0:
                yield "n400-half balanced", balanced(g, bs.SdpConfig(seed=seed))
            even += 1
    for g, lam, seed in graphs(5000, 30.0, 2.0, HALF, keyed_seeds(10, SEED, 1)):
        yield "n5000-half lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
    for g, lam, seed in graphs(300, 3.0, 1.0, 1.0, keyed_seeds(60, SEED, 2)):
        yield "control lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
        yield "control balanced", balanced(g, bs.SdpConfig(seed=seed))
    for g, lam, seed in graphs(300, 3.0, 1.0, 1.0, keyed_seeds(200, 555000)):
        yield "control-555000 lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))


def cell_lines():
    """One line per cell of the battery, in battery order."""
    cells = collections.defaultdict(list)
    for name, sol in battery():
        d = sol.diagnostics
        cells[name].append((sol.rounded * sol.rounded[0], sol.certificate.tight,
                            d.restarts_used, d.iterations_total,
                            d.restart_objectives.tobytes(),
                            struct.pack("<dqd", sol.objective, sol.iterations,
                                        sol.certificate.gap)))
    for name, rows in cells.items():
        labels, tight, restarts, iters, objectives, returned = zip(*rows)
        digest = hashlib.sha256(b"".join(x.tobytes() + bytes([t, r])
                                         for x, t, r in zip(labels, tight, restarts)))
        bits = hashlib.sha256(b"".join(o + i.to_bytes(8, "little")
                                       for o, i in zip(objectives, iters)))
        returned_digest = hashlib.sha256(b"".join(returned))
        results = hashlib.sha256(b"".join(x.tobytes() + bytes([t])
                                          for x, t in zip(labels, tight)))
        histogram = dict(sorted(collections.Counter(restarts).items()))
        yield (f"{name}: solves={len(rows)} ascents={sum(r > 0 for r in restarts)} "
               f"tight={sum(tight)} restarts={histogram} iterations={sum(iters)} "
               f"sha256={digest.hexdigest()} bits_sha256={bits.hexdigest()} "
               f"returned_sha256={returned_digest.hexdigest()} "
               f"results_sha256={results.hexdigest()}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="recorded output; exit 1 unless every line equals its own")
    args = ap.parse_args()
    lines = list(cell_lines())
    print("\n".join(lines))
    if args.expect is not None:
        want = args.expect.read_text().splitlines()
        differ = [(i, got, exp) for i, (got, exp)
                  in enumerate(itertools.zip_longest(lines, want), 1) if got != exp]
        for i, got, exp in differ:
            print(f"line {i} differs:\n  got      {got}\n  expected {exp}", file=sys.stderr)
        sys.exit(1 if differ else 0)
