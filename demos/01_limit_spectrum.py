"""Solve the coupled spectral system and recover limiting densities.

Walks through the first layer of the library: point evaluation of
(m, g1, g2), the companion identities that certify a solution, density
recovery by Stieltjes inversion, and bulk edge detection.  Compares the
light-tail case (degenerate normalized radius) with the maximally heavy
two-point radius law, whose squared radius is 0 or 2p with equal odds.
"""

import numpy as np

from elliprmt import DiscreteMeasure, find_bulk_edges, solve_lsd, stieltjes_invert

c = 0.5
h1 = DiscreteMeasure.point_mass(1.0)           # identity population
h2_light = DiscreteMeasure.point_mass(1.0)     # nu_p = o(p^2)
h2_heavy = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]),
                           np.array([0.5, 0.5]))  # nu_p = p^2

print("== point evaluation at z = 1 + i ==")
for name, h2 in (("light tail", h2_light), ("heavy tail", h2_heavy)):
    sol = solve_lsd(c, h1, h2, 1 + 1j)
    print(f"{name}: m = {sol.m:.6f}, g1 = {sol.g1:.6f}, g2 = {sol.g2:.6f} "
          f"({sol.iterations} iterations, residual {sol.residual:.1e})")
    print(f"  companion checks: |mu + 1/z + g1 g2| = "
          f"{abs(sol.m_under - (-1/sol.z - sol.g1*sol.g2)):.1e}, "
          f"|mu + (1-c)/z - c m| = "
          f"{abs(sol.m_under - (-(1-c)/sol.z + c*sol.m)):.1e}")

print("\n== light tail: the law collapses to the classical single-input case ==")
sol = solve_lsd(c, h1, h2_light, 2 + 0.5j)
print(f"|m_under - g2| = {abs(sol.m_under - sol.g2):.1e}  (identically zero in theory)")

print("\n== densities and bulk edges ==")
grid = np.linspace(1e-3, 4.5, 500)
for name, h2 in (("light", h2_light), ("heavy", h2_heavy)):
    law = stieltjes_invert(c, h1, h2, grid, eps=1e-4)
    lo, hi = find_bulk_edges(c, h1, h2)
    print(f"{name}: support [{lo:.4f}, {hi:.4f}], total mass {law.total_mass:.4f}")
    law.write_csv(f"density_{name}.csv")
    print(f"  wrote density_{name}.csv")
print(f"light-tail closed-form edges: "
      f"[{(1-np.sqrt(c))**2:.4f}, {(1+np.sqrt(c))**2:.4f}]")

print("\n== the real axis outside the bulk ==")
x = 60 / 7
sol = solve_lsd(c, h1, h2_light, x)
print(f"x = 60/7: g2(x) = {sol.g2.real:.8f} "
      f"(equals -1/8: this is where a spike of size 8 lands)")
