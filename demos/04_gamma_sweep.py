"""The phase transition in one picture (well, one text bar chart).

Success probability as a function of the sampling rate gamma, at fixed
n=400, alpha=30, beta=2. The conjectured threshold gamma* is around 0.12;
the empirical curve should be near zero well below it and near one a few
multiples above it. Twenty trials per cell keeps this quick; the sweep is
deterministic given the master seed, so the numbers reproduce exactly.
"""
import blocksketch as bs
from blocksketch.pipeline import run_sweep

ALPHA, BETA, N = 30.0, 2.0, 400
TRIALS, MASTER_SEED = 20, 404

gs = bs.gamma_star(ALPHA, BETA)
gammas = [round(0.5 * k * gs, 4) for k in range(1, 9)] + [1.0]
print(f"gamma* = {gs:.4f}; sweeping {len(gammas)} cells, "
      f"{TRIALS} trials each (a few seconds)")

tab = run_sweep([N], [ALPHA], [BETA], gammas,
                trials=TRIALS, master_seed=MASTER_SEED)

print()
print(f"{'gamma':>8} {'gamma/gamma*':>12} {'success':>8}  ")
for cell in tab.cells:
    bar = "#" * round(40 * cell.success_rate)
    print(f"{cell.gamma:8.4f} {cell.gamma / gs:12.2f} "
          f"{cell.success_rate:8.2f}  {bar}")

print()
print("CSV (feed to any plotting tool):")
print(tab.to_csv(), end="")
