"""Replay a fixed battery of seeded SDP solves; print one line per cell.

    PYTHONPATH=src python tools/replay_solver.py    # about 15 s on a 2-vCPU host

Cells: 300 sketched subgraphs of n = 400 graphs (alpha 30, beta 2) at half the
threshold rate, every third even-sized one also on the balanced program; 10 at
n = 5000; 60 full n = 300 graphs below the threshold (alpha 3, beta 1) on both
programs. A line gives solves, ascents, tight verdicts, a restarts_used histogram,
total iterations, a SHA-256 over every (partition with node 0 labelled +1,
tight, restarts_used), a second SHA-256 over every solve's restart_objectives
bytes and iterations_total, and a third over every solve's returned objective,
iterations and certificate gap, so that two commits' outputs can be diffed: the
first for the same results, the second for the same bits along the way, the third
for which restart a solve returned.
"""
import collections
import hashlib
import struct

import blocksketch as bs

SEED = 20261020  # fixed before any result was read
HALF = 0.5 * bs.gamma_star(30.0, 2.0)


def graphs(cell: int, n: int, alpha: float, beta: float, gamma: float, count: int):
    """(graph, lambda_star, seed) for `count` seeded draws, sketched when gamma < 1."""
    params = bs.SbmParams.from_rates(n, alpha, beta)
    lam = bs.lambda_star(params.p, params.q)
    for i in range(count):
        seed = bs.seed_sequence(SEED, cell, i)
        g = bs.sample_sbm(params, seed)
        if gamma < 1.0:
            g, _ = bs.induced_subgraph(g, bs.subsample_nodes(n, gamma, seed))
        if g.n >= 2:  # the pipeline solves no smaller sample
            yield g, lam, seed


def battery():
    """Yield (cell name, solution) for every solve, in a fixed order."""
    lagrangian, balanced = bs.solve_lagrangian_sdp, bs.solve_balanced_sdp
    even = 0
    for g, lam, seed in graphs(0, 400, 30.0, 2.0, HALF, 300):
        yield "n400-half lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
        if g.n % 2 == 0:
            if even % 3 == 0:
                yield "n400-half balanced", balanced(g, bs.SdpConfig(seed=seed))
            even += 1
    for g, lam, seed in graphs(1, 5000, 30.0, 2.0, HALF, 10):
        yield "n5000-half lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
    for g, lam, seed in graphs(2, 300, 3.0, 1.0, 1.0, 60):
        yield "control lagrangian", lagrangian(g, bs.SdpConfig(lam=lam, seed=seed))
        yield "control balanced", balanced(g, bs.SdpConfig(seed=seed))


if __name__ == "__main__":
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
        histogram = dict(sorted(collections.Counter(restarts).items()))
        print(f"{name}: solves={len(rows)} ascents={sum(r > 0 for r in restarts)} "
              f"tight={sum(tight)} restarts={histogram} iterations={sum(iters)} "
              f"sha256={digest.hexdigest()} bits_sha256={bits.hexdigest()} "
              f"returned_sha256={returned_digest.hexdigest()}")
