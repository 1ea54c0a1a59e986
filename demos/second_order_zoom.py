"""Watch every divergence collapse onto its quadratic form under small noise.

For a smooth classifier, D(f(x + t * eps), f(x)) divided by t^2 approaches a
generator-weighted Jacobian form as t shrinks. The weight is g''(1): KL and
RKL share one curve, SHL runs at half of it, JSD at a quarter.

Run with: python3 demos/second_order_zoom.py
"""

import numpy as np

from pdrlab import GENERATORS, RandomSource, f_divergence, init_mlp, posterior, quadratic_penalty

rng = RandomSource(7)
model = init_mlp((3, 8, 4), rng)
x = rng.split(1).generator().standard_normal(3)
eps = rng.split(2).generator().standard_normal(3)
eps /= np.linalg.norm(eps)

p = posterior(model, x)
print("clean posterior:", np.round(p, 4))
print()
print(f"{'t':>8s}" + "".join(f"{k:>12s}" for k in GENERATORS) + "   (D(t eps) / t^2)")
for t in (1e-1, 1e-2, 1e-3, 1e-4):
    row = [f_divergence(gen, posterior(model, x + t * eps), p) / t ** 2
           for gen in GENERATORS.values()]
    print(f"{t:8.0e}" + "".join(f"{v:12.6f}" for v in row))

print(f"{'limit':>8s}" + "".join(
    f"{quadratic_penalty(model, x, gen, eps):12.6f}" for gen in GENERATORS.values())
    + "   (curvature-weighted Jacobian form)")

q_kl = quadratic_penalty(model, x, GENERATORS["KL"], eps)
print()
print("ratios of the limits, KL as the yardstick:")
for kind, gen in GENERATORS.items():
    r = quadratic_penalty(model, x, gen, eps) / q_kl
    print(f"  {kind:4s} {r:.4f}   (g''(1) = {gen.curvature_at_one})")
print()
print("so to leading order the four penalties differ only by the constant g''(1).")
print("Their common form weights each class row of J by 1/p, so it is not")
print("jr's unweighted ||J||_F^2: a row whose class is unlikely counts for more.")
