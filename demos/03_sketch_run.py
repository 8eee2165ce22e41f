"""One sketched recovery, narrated stage by stage.

The pipeline never solves the SDP on the full graph: it keeps each node
with probability gamma, solves only on the kept subgraph, and labels the
rest by counting sampled neighbors on each side. Here gamma=0.6 is about
five times the conjectured threshold for this regime, so the run should
succeed comfortably while solving a problem of roughly 0.6 n nodes.
"""
import math

import blocksketch as bs
from blocksketch.pipeline import SketchConfig, sketch_and_recover

N, ALPHA, BETA, GAMMA, SEED = 400, 30.0, 2.0, 0.6, 1

params = bs.SbmParams.from_rates(N, ALPHA, BETA)
print(f"model: n={N}, alpha={ALPHA}, beta={BETA} "
      f"-> p={params.p:.4f}, q={params.q:.4f}")
print(f"thresholds: gamma*={bs.gamma_star(ALPHA, BETA):.4f}, "
      f"sampling at gamma={GAMMA}")

g = bs.sample_sbm(params, SEED)
print(f"sampled graph: {g.m} edges")

res = sketch_and_recover(g, params.p, params.q, SketchConfig(gamma=GAMMA), SEED)
sol = res.solution
print(f"stage 1  subsample: kept {res.mask.size}/{N} nodes")
if sol.diagnostics.restarts_used:
    path = f"{sol.diagnostics.restarts_used} restarts, best {sol.iterations} iterations"
else:
    path = "spectral labels certified, no ascent"
print(f"stage 2  SDP on subgraph: lambda={res.lambda_used:.5f}, "
      f"{path}, certificate={sol.certificate}")
sub_ok = bs.partitions_equal(sol.rounded, g.truth[res.mask.kept])
print(f"         subgraph labels correct: {sub_ok}")
print(f"stage 3  majority vote on the other {N - res.mask.size} nodes: "
      f"{res.vote.tie_count} ties")

ok = bs.is_complete(res.labels) and bs.partitions_equal(res.labels, g.truth)
print(f"overall exact recovery: {ok}")

# the same run through the CLI:
print()
print("equivalent CLI session:")
print(f"  blocksketch gen --n {N} --alpha {ALPHA:g} --beta {BETA:g} "
      f"--seed {SEED} --out graph.txt")
print(f"  blocksketch sketch --in graph.txt --gamma {GAMMA} "
      f"--alpha {ALPHA:g} --beta {BETA:g} --seed {SEED}")
