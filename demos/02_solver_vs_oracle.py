"""Is the relaxation trustworthy? Check it against exhaustive search.

At n <= 22 the exact maximum-likelihood partition is computable by brute
force, so the low-rank solver can be validated instance by instance: a
tight certificate means the rounded labels carry a dual certificate, which
proves they are the exact optimum.
Instances without a tight certificate are reported honestly; the relaxation
sometimes has a real gap.
"""
import blocksketch as bs

P, Q = 0.9, 0.1
LAM = bs.lambda_star(P, Q)

print(f"n=10 instances, p={P}, q={Q}, lambda*={LAM:.4f}")
print(f"{'seed':>4} {'certificate':>14} {'gap':>10} {'matches oracle':>15}")
tight = 0
for seed in range(12):
    g = bs.sample_sbm(bs.SbmParams.explicit(5, 5, P, Q), seed)
    sol = bs.solve_lagrangian_sdp(g, bs.SdpConfig(lam=LAM, seed=seed))
    mle, mle_obj = bs.brute_force_mle(g, lam=LAM)
    same = bs.partitions_equal(sol.rounded, mle)
    cert = "tight" if sol.certificate.tight else "not-tight"
    tight += sol.certificate.tight
    if sol.certificate.tight:
        assert same  # the certificate's whole point
    print(f"{seed:4d} {cert:>14} {sol.certificate.gap:10.2e} {str(same):>15}")
print(f"{tight}/12 tight; every tight instance matched the oracle")

print()
print("balanced mode on two disjoint 5-cliques (the easiest instance):")
g = bs.sample_sbm(bs.SbmParams.explicit(5, 5, 1.0, 0.0), 0)
sol = bs.solve_balanced_sdp(g, bs.SdpConfig(seed=0))
print(f"  objective={sol.objective:.6f} rounded={sol.rounded_objective}"
      f" certificate={sol.certificate} recovered="
      f"{bs.partitions_equal(sol.rounded, g.truth)}")
