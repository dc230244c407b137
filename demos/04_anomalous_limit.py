"""The anomalous regime: sub-ballistic scaling, no extra normalizer.

With run-length tail index below 1 the walk has no mean run length; the
rescaled process S_{ut}/u converges to a 1-Lipschitz, non-Markovian
limit built from a labelled stable subordinator.  This demo touches
the three descriptions the package keeps of that limit:

  1. the closed-form marginal density f_t(x),
  2. direct simulation of the limit process (labelled subordinator),
  3. the discrete occupation-time recursion converging to the same law.
"""

import numpy as np

from combwalk import (cdf_f, density_f, ks_distance, lamperti_recursion,
                      power_comb, sample_anomalous_ensemble, walk_marginals)

alpha, b = 0.5, 0.0

# 1. the density at t=1 reduces to the arcsine law for b=0
x = np.linspace(-0.95, 0.95, 5)
print("marginal density at t=1 (b=0) vs arcsine closed form:")
for xi in x:
    print(f"  f({xi:+.2f}) = {density_f(alpha, b, 1.0, xi):.6f}"
          f"   1/(pi*sqrt(1-x^2)) = {1 / (np.pi * np.sqrt(1 - xi**2)):.6f}")

# 2. simulate the limit process directly and compare marginals
S, age, exc = sample_anomalous_ensemble(alpha, b, 10_000, seed=2)
ks = ks_distance(S, lambda v: cdf_f(alpha, b, 1.0, v))
print(f"\nlimit-process ensemble, 10^4 paths: KS vs density = {ks:.4f}")
print(f"  age/excess straddle fraction: {(age > 0).mean():.3f}")

# 3. the pre-limit walk, rescaled, lands on the same curve
u = 20_000
S = walk_marginals(power_comb(alpha), [u], 4_000, seed=3, threads=2)
ks = ks_distance(S[:, 0] / u, lambda v: cdf_f(alpha, b, 1.0, v))
print(f"walk at u={u}, 4000 replicas:  KS vs density = {ks:.4f}")

# 4. occupation-time recursion: fraction of up steps -> arcsine
p = lamperti_recursion(power_comb(alpha), 400)
grid = np.arange(401) / 400.0
F_arc = 2.0 / np.pi * np.arcsin(np.sqrt(grid))
dev = np.max(np.abs(np.cumsum(p[400]) - F_arc))
print(f"occupation law at n=400:       sup dev vs arcsine = {dev:.4f}")

np.savetxt("occupation_law.csv",
           np.column_stack([grid, p[400]]), delimiter=",",
           header="fraction_up,probability", comments="")
print("\nwrote occupation_law.csv (plot-ready)")
