"""Fixed-point solver for the coupled spectral-limit system.

For aspect ratio c and input laws H1 (population spectrum) and H2
(normalized squared radius), the pair (g1, g2) solves

    z g1(z) = -c * int x / (1 + g2(z) x) dH1(x)
    z g2(z) =     -int y / (1 + g1(z) y) dH2(y)

and the Stieltjes transform of the limit law follows as
``m(z) = -z^{-1} int (1 + g2(z) x)^{-1} dH1(x)`` with companion
``m_under(z) = -(1-c)/z + c m(z) = -1/z - g1 g2``.  The solver iterates a
damped alternation (globally stable for Im z bounded away from 0) and falls
back to Newton on the 2x2 complex system; real-axis values outside the bulk
are reached through a shrinking imaginary-offset ladder with extrapolation
and a final real Newton polish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .measures import DiscreteMeasure

__all__ = [
    "LsdSolution",
    "LsdDerivatives",
    "solve_lsd",
    "solve_lsd_real",
    "solve_lsd_point",
    "derivatives",
    "stieltjes_invert",
    "InvertedLaw",
    "find_bulk_edges",
    "outer_support_bracket",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
_DAMPING = 0.5
_NEWTON_AFTER = 200
_EPS_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


@dataclass(frozen=True)
class LsdSolution:
    """Solution of the coupled system at one point z."""

    z: complex
    g1: complex
    g2: complex
    m: complex
    m_under: complex
    iterations: int
    residual: float
    trivial: bool = False

    def to_dict(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "g1": [self.g1.real, self.g1.imag],
            "g2": [self.g2.real, self.g2.imag],
            "m": [self.m.real, self.m.imag],
            "m_under": [self.m_under.real, self.m_under.imag],
            "iterations": self.iterations,
            "residual": self.residual,
            "trivial": self.trivial,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class LsdDerivatives:
    """First z-derivatives of a solution plus the composite expressions."""

    g1p: complex
    g2p: complex
    m_under_p: complex
    zg2_p: complex        # (z g2)'
    zmu_p: complex        # (z m_under)'
    mu_over_g2_p: complex  # (m_under / g2)'


def _check_law(mu: DiscreteMeasure, name: str) -> None:
    if float(mu.atoms[0]) < 0:
        raise DomainError(f"{name} must be supported on [0, inf); "
                          f"smallest atom is {float(mu.atoms[0])!r}")


def _h1_mean_inv(h1: DiscreteMeasure, g2: complex) -> complex:
    return complex(np.sum(h1.weights / (1.0 + g2 * h1.atoms)))


def _int_x(h1: DiscreteMeasure, g2: complex) -> complex:
    return complex(np.sum(h1.weights * h1.atoms / (1.0 + g2 * h1.atoms)))


def _int_y(h2: DiscreteMeasure, g1: complex) -> complex:
    return complex(np.sum(h2.weights * h2.atoms / (1.0 + g1 * h2.atoms)))


def _int_x2(h1: DiscreteMeasure, g2: complex) -> complex:
    return complex(np.sum(h1.weights * h1.atoms ** 2 / (1.0 + g2 * h1.atoms) ** 2))


def _int_y2(h2: DiscreteMeasure, g1: complex) -> complex:
    return complex(np.sum(h2.weights * h2.atoms ** 2 / (1.0 + g1 * h2.atoms) ** 2))


def _residual(c, h1, h2, z, g1, g2) -> float:
    r1 = z * g1 + c * _int_x(h1, g2)
    r2 = z * g2 + _int_y(h2, g1)
    return max(abs(r1), abs(r2))


def _finish(c, h1, h2, z, g1, g2, iterations, residual, trivial=False) -> LsdSolution:
    m = -_h1_mean_inv(h1, g2) / z
    m_under = -(1.0 - c) / z + c * m
    return LsdSolution(z=complex(z), g1=complex(g1), g2=complex(g2), m=complex(m),
                       m_under=complex(m_under), iterations=iterations,
                       residual=float(residual), trivial=trivial)


def _newton_step(c, h1, h2, z, g1, g2):
    """One guarded Newton step on F = (z g1 + c A(g2), z g2 + B(g1))."""
    f1 = z * g1 + c * _int_x(h1, g2)
    f2 = z * g2 + _int_y(h2, g1)
    i1 = _int_x2(h1, g2)
    i2 = _int_y2(h2, g1)
    det = z * z - c * i1 * i2
    if abs(det) < 1e-300:
        return None
    # J = [[z, -c i1], [-i2, z]]; solve J delta = -F
    d1 = (-f1 * z - c * i1 * f2) / det
    d2 = (-f2 * z - i2 * f1) / det
    return g1 + d1, g2 + d2


def solve_lsd(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, z: complex,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              init: tuple[complex, complex] | None = None) -> LsdSolution:
    """Solve the coupled system at a point z with Im z > 0.

    Damped alternation (damping 0.5) initialized at g1 = g2 = -1/z, with a
    Newton fallback on the 2x2 system once the alternation has had 200
    iterations (immediately when a warm start ``init`` is supplied).  The
    degenerate inputs H1 = delta_0 or H2 = delta_0 short-circuit to the
    point-mass law with m = -1/z.
    """
    if not (0 < tol <= 1e-6):
        raise DomainError("tol must lie in (0, 1e-6]")
    if c <= 0:
        raise DomainError("aspect ratio c must be positive")
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("solve_lsd needs Im z > 0; use solve_lsd_real on the real axis")
    _check_law(h1, "H1")
    _check_law(h2, "H2")

    if h1.is_point_mass_at(0.0) or h2.is_point_mass_at(0.0):
        if h1.is_point_mass_at(0.0):
            g1 = 0.0 + 0.0j
            g2 = -_int_y(h2, g1) / z
        else:
            g2 = 0.0 + 0.0j
            g1 = -c * _int_x(h1, g2) / z
        return _finish(c, h1, h2, z, g1, g2, iterations=0, residual=0.0, trivial=True)

    for attempt in range(2):
        if init is None or attempt == 1:
            g1 = g2 = -1.0 / z
            newton_after = _NEWTON_AFTER
        else:
            g1, g2 = complex(init[0]), complex(init[1])
            newton_after = 5
        res = _residual(c, h1, h2, z, g1, g2)
        sol = None
        for it in range(1, max_iter + 1):
            if res < tol:
                sol = _finish(c, h1, h2, z, g1, g2, iterations=it - 1, residual=res)
                break
            if it > newton_after:
                step = _newton_step(c, h1, h2, z, g1, g2)
                if step is not None:
                    n1, n2 = step
                    if np.isfinite(n1) and np.isfinite(n2):
                        new_res = _residual(c, h1, h2, z, n1, n2)
                        if new_res < res:
                            g1, g2, res = n1, n2, new_res
                            continue
            g1 = (1 - _DAMPING) * g1 + _DAMPING * (-c * _int_x(h1, g2) / z)
            g2 = (1 - _DAMPING) * g2 + _DAMPING * (-_int_y(h2, g1) / z)
            res = _residual(c, h1, h2, z, g1, g2)
        if sol is None:
            raise ConvergenceError(
                f"fixed-point iteration did not reach tol={tol} at z={z} "
                f"(last residual {res:.3e})", residual=res, iterations=max_iter)
        if _in_uniqueness_set(sol):
            return sol
        if init is None:
            break  # cold start already landed outside U; no second chance
    raise ConvergenceError(
        f"converged to a point outside the uniqueness set at z={z} "
        f"(m={sol.m!r}, g2={sol.g2!r})", residual=sol.residual,
        iterations=sol.iterations)


def _in_uniqueness_set(sol: LsdSolution) -> bool:
    """Membership in U = {Im m > 0, Im(z g1) > 0, Im g2 > 0} with slack.

    A warm start can drag Newton onto a spurious branch of the system; only
    the branch inside U is the Stieltjes solution.  The slack tolerates
    roundoff at Im z near 0 where the strict inequalities become marginal.
    """
    slack = -1e-9
    return (sol.m.imag > slack * max(1.0, abs(sol.m))
            and (sol.z * sol.g1).imag > slack * max(1.0, abs(sol.z * sol.g1))
            and sol.g2.imag > slack * max(1.0, abs(sol.g2)))


def _neville_at_zero(ts: np.ndarray, fs: np.ndarray) -> complex:
    """Polynomial extrapolation of f(t) to t = 0 (Neville's scheme)."""
    vals = np.array(fs, dtype=np.complex128)
    k = len(vals)
    for j in range(1, k):
        for i in range(k - j):
            vals[i] = ((0.0 - ts[i + j]) * vals[i] + (ts[i] - 0.0) * vals[i + 1]) \
                / (ts[i] - ts[i + j])
    return complex(vals[0])


def solve_lsd_real(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, x: float,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> LsdSolution:
    """Solve on the real axis at a point x strictly outside the bulk support.

    Values are continued down the ladder z = x + i eps, eps in
    {1e-3, ..., 1e-8}, Richardson-extrapolated to eps = 0, then polished by
    real Newton iteration.  A non-vanishing extrapolated imaginary part
    (> 1e-7) means x sits inside the bulk and raises :class:`DomainError`.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("x = 0 is never outside the bulk closure")
    _check_law(h1, "H1")
    _check_law(h2, "H2")
    if h1.is_point_mass_at(0.0) or h2.is_point_mass_at(0.0):
        sol = solve_lsd(c, h1, h2, complex(x, 1e-8), tol=tol, max_iter=max_iter)
        return _finish(c, h1, h2, complex(x), sol.g1.real, sol.g2.real,
                       iterations=0, residual=0.0, trivial=True)

    total_iters = 0
    init = None
    g1s, g2s = [], []
    for eps in _EPS_LADDER:
        sol = solve_lsd(c, h1, h2, complex(x, eps), tol=tol, max_iter=max_iter, init=init)
        init = (sol.g1, sol.g2)
        total_iters += sol.iterations
        g1s.append(sol.g1)
        g2s.append(sol.g2)
    ts = np.array(_EPS_LADDER)
    g1_ext = _neville_at_zero(ts, g1s)
    g2_ext = _neville_at_zero(ts, g2s)
    if max(abs(g1_ext.imag), abs(g2_ext.imag)) > 1e-7:
        raise DomainError(
            f"x={x} lies inside the bulk support (extrapolated imaginary part "
            f"{max(abs(g1_ext.imag), abs(g2_ext.imag)):.3e})")

    g1, g2 = g1_ext.real, g2_ext.real
    res = _residual(c, h1, h2, x, g1, g2)
    for _ in range(100):
        if res < tol:
            break
        if np.any(np.abs(1.0 + g2 * h1.atoms) < 1e-12) or \
           np.any(np.abs(1.0 + g1 * h2.atoms) < 1e-12):
            raise PoleError(f"real-axis continuation hit a pole at x={x}")
        step = _newton_step(c, h1, h2, float(x), g1, g2)
        if step is None:
            break
        n1, n2 = float(step[0].real), float(step[1].real)
        new_res = _residual(c, h1, h2, x, n1, n2)
        if not np.isfinite(new_res) or new_res >= res:
            break
        g1, g2, res = n1, n2, new_res
        total_iters += 1
    if res > max(tol, 1e-10):
        raise ConvergenceError(
            f"real-axis polish stalled at x={x} (residual {res:.3e})",
            residual=float(res), iterations=total_iters)
    return _finish(c, h1, h2, complex(x), complex(g1), complex(g2),
                   iterations=total_iters, residual=res)


def solve_lsd_point(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, z: complex,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    init: tuple[complex, complex] | None = None) -> LsdSolution:
    """Solve anywhere off the bulk: upper half plane, lower (by conjugation),
    or the real axis outside the support."""
    z = complex(z)
    if z.imag > 0:
        return solve_lsd(c, h1, h2, z, tol=tol, max_iter=max_iter, init=init)
    if z.imag < 0:
        conj_init = None if init is None else (init[0].conjugate(), init[1].conjugate())
        sol = solve_lsd(c, h1, h2, z.conjugate(), tol=tol, max_iter=max_iter, init=conj_init)
        return LsdSolution(z=z, g1=sol.g1.conjugate(), g2=sol.g2.conjugate(),
                           m=sol.m.conjugate(), m_under=sol.m_under.conjugate(),
                           iterations=sol.iterations, residual=sol.residual,
                           trivial=sol.trivial)
    return solve_lsd_real(c, h1, h2, z.real, tol=tol, max_iter=max_iter)


def derivatives(sol: LsdSolution, c: float, h1: DiscreteMeasure,
                h2: DiscreteMeasure) -> LsdDerivatives:
    """Exact first derivatives at a converged solution.

    Differentiating the coupled system in z gives the linear system
    [[z, -c I1], [-I2, z]] (g1', g2')^T = (-g1, -g2)^T with
    I1 = int x^2/(1+g2 x)^2 dH1 and I2 = int y^2/(1+g1 y)^2 dH2; the
    composite expressions follow by product and quotient rules.
    """
    z, g1, g2 = sol.z, sol.g1, sol.g2
    i1 = _int_x2(h1, g2)
    i2 = _int_y2(h2, g1)
    det = z * z - c * i1 * i2
    if abs(det) < 1e-14 * max(1.0, abs(z) ** 2):
        raise DomainError(f"derivative system is singular at z={z} (det={det!r})")
    g1p = (-g1 * z - c * i1 * g2) / det
    g2p = (-g2 * z - i2 * g1) / det
    mu_p = 1.0 / (z * z) - g1p * g2 - g1 * g2p
    mu = sol.m_under
    if abs(g2) < 1e-300:
        raise DomainError("g2 vanishes; quotient derivative undefined")
    return LsdDerivatives(
        g1p=g1p,
        g2p=g2p,
        m_under_p=mu_p,
        zg2_p=g2 + z * g2p,
        zmu_p=mu + z * mu_p,
        mu_over_g2_p=(mu_p * g2 - mu * g2p) / (g2 * g2),
    )


def outer_support_bracket(c: float, h1: DiscreteMeasure,
                          h2: DiscreteMeasure) -> tuple[float, float]:
    """Closed-form outer bracket guaranteed to contain the bulk support."""
    a, b = h2.support
    lo1, hi1 = h1.support
    hi = b * hi1 * (1.0 + np.sqrt(c)) ** 2
    lo = a * lo1 * (1.0 - np.sqrt(c)) ** 2 if c < 1 else 0.0
    return float(lo), float(hi)


@dataclass(frozen=True)
class InvertedLaw:
    """Density and CDF of a spectral law recovered by Stieltjes inversion."""

    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    zero_mass: float
    total_mass: float

    def to_csv(self) -> str:
        lines = ["x,density,cdf"]
        for x, d, f in zip(self.grid, self.density, self.cdf):
            lines.append(f"{float(x)!r},{float(d)!r},{float(f)!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def stieltjes_invert(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                     grid: np.ndarray, eps: float = 1e-4,
                     sigma_eig: tuple[np.ndarray, np.ndarray] | None = None,
                     pi: np.ndarray | None = None) -> InvertedLaw:
    """Recover density and CDF on a grid via density(x) = Im m(x + i eps)/pi.

    With ``sigma_eig = (eigenvalues, eigenvectors)`` and a unit vector
    ``pi`` supplied, the anisotropic law is inverted instead, using its
    transform -z^{-1} pi^T (I + g2(z) Sigma)^{-1} pi.  The CDF accumulates
    by trapezoid and carries the point mass 1 - 1/c at zero when c > 1.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be a strictly ascending 1-D array")
    if not (1e-5 <= eps <= 1e-2):
        raise DomainError("eps must lie in [1e-5, 1e-2]")
    weights = None
    evals = None
    if (sigma_eig is None) != (pi is None):
        raise DomainError("supply sigma_eig and pi together or not at all")
    if sigma_eig is not None:
        evals, evecs = sigma_eig
        proj = evecs.T @ np.asarray(pi, dtype=np.float64)
        weights = proj ** 2

    zero_mass = 0.0
    degenerate = h1.is_point_mass_at(0.0) or h2.is_point_mass_at(0.0)
    if c > 1 or degenerate:
        probe = solve_lsd(c, h1, h2, 1e-6j)
        if weights is None:
            zero_mass = float((-1e-6j * probe.m).real)
        else:
            zero_mass = float(np.sum(weights / (1.0 + probe.g2 * evals)).real)
        zero_mass = min(max(zero_mass, 0.0), 1.0)

    density = np.empty(grid.size)
    init = None
    for k, x in enumerate(grid):
        z = complex(x, eps)
        try:
            sol = solve_lsd(c, h1, h2, z, init=init)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"inversion failed at grid point x={x}: {exc}",
                residual=exc.residual, iterations=exc.iterations) from exc
        init = (sol.g1, sol.g2)
        if weights is None:
            density[k] = sol.m.imag / np.pi
        else:
            s = -np.sum(weights / (1.0 + sol.g2 * evals)) / z
            density[k] = s.imag / np.pi
    if zero_mass > 0.0:
        # remove the Poisson-kernel leakage of the point mass at zero
        density -= zero_mass * (eps / np.pi) / (grid ** 2 + eps ** 2)
    density = np.clip(density, 0.0, None)
    cdf = zero_mass + np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return InvertedLaw(grid=grid, density=density, cdf=cdf,
                       zero_mass=zero_mass, total_mass=float(cdf[-1]))


def _im_g2_at(c, h1, h2, x: float, eps: float, init=None) -> tuple[float, tuple]:
    try:
        sol = solve_lsd(c, h1, h2, complex(x, eps), init=init)
    except ConvergenceError:
        return np.inf, init  # treat non-convergence as "inside the bulk"
    return sol.g2.imag, (sol.g1, sol.g2)


def find_bulk_edges(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                    scan_points: int = 600) -> tuple[float, float]:
    """Locate the lower and upper edges of the continuous bulk.

    Scans the inverted density at eps = 1e-4 inside the closed-form outer
    bracket, then refines each edge by bisection on the indicator
    Im g2(x + i 1e-6) > 1e-4, using the bracket itself as the certified
    outside point.
    """
    lo0, hi0 = outer_support_bracket(c, h1, h2)
    if hi0 <= 0:
        raise DomainError("degenerate inputs: bulk support has empty interior")
    start = max(lo0, 0.0) + 1e-6 * hi0
    grid = np.linspace(start, hi0, scan_points)
    law = stieltjes_invert(c, h1, h2, grid, eps=1e-4)
    if not (law.density > 1e-6).any():
        raise DomainError("no bulk detected: density below threshold everywhere")
    # interior seeds: well above the eps-tail floor that leaks past the edge
    interior = law.density > max(1e-6, 0.05 * float(law.density.max()))
    idx_hi = int(np.nonzero(interior)[0][-1])
    idx_lo = int(np.nonzero(interior)[0][0])

    def _bisect(inside_x: float, outside_x: float) -> float:
        init = None
        for _ in range(48):
            mid = 0.5 * (inside_x + outside_x)
            val, init = _im_g2_at(c, h1, h2, mid, 1e-6, init=init)
            if val > 1e-4:
                inside_x = mid
            else:
                outside_x = mid
        return 0.5 * (inside_x + outside_x)

    hi_out = 1.05 * hi0
    val, _ = _im_g2_at(c, h1, h2, hi_out, 1e-6)
    while val > 1e-4:  # paranoia: bracket should already certify "outside"
        hi_out *= 1.2
        val, _ = _im_g2_at(c, h1, h2, hi_out, 1e-6)
    upper = _bisect(float(grid[idx_hi]), hi_out)
    if idx_lo == 0:
        lower = float(grid[0])
    else:
        lo_out = 0.95 * lo0 if lo0 > float(grid[0]) else float(grid[0])
        lower = _bisect(float(grid[idx_lo]), lo_out)
    return float(lower), float(upper)
