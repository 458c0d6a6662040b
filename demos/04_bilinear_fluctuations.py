"""Fluctuation layer: bilinear forms, GOE spike matrix, eigenvector statistics.

Three short studies on one page:

1. A single resolvent bilinear form, centered at its deterministic
   equivalent and scaled by sqrt(p), has variance given by the closed-form
   kernel combination; checked at a complex point for two radius laws.
2. The K x K centered spike matrix converges to a GOE-like limit with a
   two-parameter covariance profile (sigma11^2 on the diagonal pattern,
   sigma12^2 on paired patterns, zero otherwise).
3. The linear eigenvector statistic sqrt(p) (pi' f(S) pi - reference) has
   variance equal to a double contour integral of the kernel varpi, which
   the harness evaluates by nested-rectangle quadrature.
"""

import numpy as np

from elliprmt import (DiscreteMeasure, ExperimentConfig, cov_m_diagonal,
                      eigvec_stat_cov, run_experiment)

D1 = DiscreteMeasure.point_mass(1.0)
H2_HEAVY = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]), np.array([0.5, 0.5]))

print("== 1. bilinear-form CLT at z = 1.5 + i (p=120, n=240) ==")
for rule, h2 in (("0", D1), ("p^2", H2_HEAVY)):
    cfg = ExperimentConfig.from_dict({
        "kind": "bilinear-clt", "p": 120, "n": 240, "reps": 800, "seed": 5,
        "radius": {"nu_rule": rule},
        "population": {"spikes": [], "bulk": "ones"},
        "z_points": [[1.5, 1.0]], "pi": "e1",
    })
    entry = run_experiment(cfg, jobs=4).summary["per_z"][0]
    pi = np.zeros(120); pi[0] = 1.0
    theory = cov_m_diagonal(0.5, D1, h2, np.eye(120), (pi, pi, pi, pi), 1.5 + 1j)
    print(f"nu_p = {rule:4s}: empirical/theory variance ratio "
          f"{entry['var_ratio_m1']:.3f} (theory {theory:.4f})")

print("\n== 2. GOE profile of the spike matrix (spikes 8 and 5) ==")
cfg = ExperimentConfig.from_dict({
    "kind": "goe-entries", "p": 120, "n": 240, "reps": 800, "seed": 6,
    "radius": {"nu_rule": "0"},
    "population": {"spikes": [8.0, 5.0], "bulk": "uniform"},
})
res = run_experiment(cfg, jobs=4)
ent, th = res.summary["entries"], res.theory
print(f"evaluation point z = {th['z']:.4f} (the mapped location of the top spike)")
print(f"Var(O_11) = {ent['O_11']['var']:.3f} vs sigma11^2 = {th['sigma11_sq']:.3f}")
print(f"Var(O_12) = {ent['O_12']['var']:.3f} vs sigma12^2 = {th['sigma12_sq']:.3f}")
print(f"Cov(O_11, O_12) = {ent['cov_O11_O12']['value']:+.4f} "
      f"(theory 0, z-score {ent['cov_O11_O12']['z']:+.2f})")

print("\n== 3. eigenvector statistic zeta(x) = x (p=160, n=320) ==")
cfg = ExperimentConfig.from_dict({
    "kind": "vesd", "p": 160, "n": 320, "reps": 800, "seed": 7,
    "radius": {"nu_rule": "0"},
    "population": {"spikes": [], "bulk": "ones"}, "pi": "e1",
})
res = run_experiment(cfg, jobs=4)
print(f"empirical variance {res.summary['var'][0]:.4f} vs contour quadrature "
      f"{res.theory['cov']['x_x']:.4f} (ratio {res.summary['var_ratio'][0]:.3f})")
pi = np.zeros(8); pi[0] = 1.0
exact = eigvec_stat_cov(0.5, D1, D1, np.eye(8), pi, [lambda z: z])[0, 0]
print(f"dimension-free theory value {exact:.4f} "
      f"(= 2c exactly in this isotropic light-tail case)")
