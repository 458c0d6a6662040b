"""Solvers for the coupled spectral-limit system, off and on the real axis.

For aspect ratio c and input laws H1 (population spectrum) and H2
(normalized squared radius), the pair (g1, g2) solves

    z g1(z) = -c * int x / (1 + g2(z) x) dH1(x)
    z g2(z) =     -int y / (1 + g1(z) y) dH2(y)

and the Stieltjes transform of the limit law follows as
``m(z) = -z^{-1} int (1 + g2(z) x)^{-1} dH1(x)`` with companion
``m_under(z) = -(1-c)/z + c m(z) = -1/z - g1 g2``.  Off the real axis the
solver iterates a damped alternation (globally stable for Im z bounded away
from 0) and falls back to Newton on the 2x2 complex system.

On the real axis outside the bulk the system inverts along one coordinate
(Silverstein & Choi 1995; Couillet & Hachem 2014 for separable models such
as this one, with D = diag(rho^2)).  Fixing g2 = s gives g1 = -c A(s)/z with
A(s) = int x/(1 + s x) dH1, and z is the one root of
-s = int y/(z - c A(s) y) dH2 above c A(s) max H2.  Spike locations are
z(-1/alpha); bulk edges are the turning points of z(s), and the
detectability threshold is -1/s* at the upper one.  ``solve_lsd_real``
keeps the imaginary-offset ladder for a real point given by its x.
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
    "solve_lsd_inverse",
    "upper_edge_g2",
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


class _InverseMap:
    """z as a function of one coordinate held fixed at a real value s.

    With g2 = s (g1 = s when ``swap`` exchanges the equations) the other
    coordinate is -K(s)/z, K(s) = int x/(1 + s x) dU, and z solves
    -s = int y/(z - K(s) y) dV; c rides on the weights of H1, atoms at zero
    drop out.  With z = K y0 + w, y0 the largest positive atom of V if K > 0
    and the smallest if K < 0, f(w) = int y/(w + K (y0 - y)) dV + s is
    convex and falls from +inf to s < 0 on w > 0, so Newton's method
    started where f > 0 climbs to the root without overshooting it.
    """

    def __init__(self, c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, swap=False):
        _check_law(h1, "H1")
        _check_law(h2, "H2")
        if not (h1.atoms[-1] > 0 and h2.atoms[-1] > 0):
            raise DomainError("degenerate inputs: bulk support has empty interior")
        (u, ku), (v, kv) = ((h2, 1.0), (h1, c)) if swap else ((h1, c), (h2, 1.0))
        self.ux, self.uw = u.atoms[u.atoms > 0], ku * u.weights[u.atoms > 0]
        self.vy, self.vw = v.atoms[v.atoms > 0], kv * v.weights[v.atoms > 0]

    def point(self, s: float) -> tuple[float, float, float]:
        """(z, K, slope) at s; slope = 1 + K' int y^2/(z - K y)^2 dV has the sign of dz/ds."""
        d = 1.0 + s * self.ux
        k = float(np.sum(self.uw * self.ux / d))
        i = -1 if k > 0 else 0
        gap, num = k * (self.vy[i] - self.vy), self.vw * self.vy
        w = max(num[i], num.sum() + s * gap.max()) / -s  # two lower bounds of the root
        for _ in range(200):
            step = (float(np.sum(num / (w + gap))) + s) / float(np.sum(num / (w + gap) ** 2))
            w += step
            if step <= _RTOL * w:
                break
        else:
            raise ConvergenceError(f"inverse map did not converge at s={s!r}")
        slope = 1.0 - float(np.sum(self.uw * (self.ux / d) ** 2)) \
            * float(np.sum(num * self.vy / (w + gap) ** 2))
        return float(k * self.vy[i] + w), k, slope

    def turning_point(self, upper: bool) -> float:
        """s where the slope changes sign on s = -1/r, for r from the pole
        r = max U up to 2^64 max U, or from r = min+ U down to 2^-64 min+ U:
        the slope is negative at the pole and positive far from it."""
        pole, sign = (float(self.ux[-1]), 1) if upper else (float(self.ux[0]), -1)
        near, far = pole * (1.0 + sign * _ETA), pole * 2.0 ** (64 * sign)

        def slope(r):
            return self.point(-1.0 / r)[2]

        if not slope(near) < 0 < slope(far):
            raise ConvergenceError(f"no sign change of the inverse-map slope beyond r={pole!r}")
        lo, hi = min(near, far), max(near, far)
        while hi > lo * (1.0 + _RTOL):  # bisect in log r; slope(lo) < 0 iff upper
            mid = float(np.sqrt(lo * hi))
            lo, hi = (mid, hi) if (slope(mid) < 0) == upper else (lo, mid)
        return -2.0 / (lo + hi)


_RTOL, _ETA = 4.0 * float(np.finfo(float).eps), 2.0 ** -40


def solve_lsd_inverse(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                      g2: float) -> LsdSolution:
    """Exact real-axis solution with g2 = s in (-1/max H1, 0), at z above
    the bulk: z is the one root of -s = int y/(z - c A(s) y) dH2 above
    c A(s) max H2, A(s) = int x/(1 + s x) dH1, and g1 = -c A(s)/z.  It is
    on the Stieltjes branch only for s above ``upper_edge_g2``."""
    if not -1.0 / float(h1.atoms[-1]) < g2 < 0.0:
        raise DomainError(f"g2={g2!r} outside (-1/max H1, 0)")
    z, k, _ = _InverseMap(c, h1, h2).point(g2)
    return _finish(c, h1, h2, complex(z), complex(-k / z), complex(g2), iterations=0,
                   residual=_residual(c, h1, h2, z, -k / z, g2))


def upper_edge_g2(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure) -> float:
    """g2 = s* at the upper bulk edge, where dz/ds changes sign on
    (-1/max H1, 0); the detectability threshold of a spike is -1/s*."""
    return _InverseMap(c, h1, h2).turning_point(upper=True)


def find_bulk_edges(c: float, h1: DiscreteMeasure,
                    h2: DiscreteMeasure) -> tuple[float, float]:
    """Lower and upper edges of the hull of the continuous bulk.

    Both are turning points of the inverse map z(s).  The upper edge is its
    minimum over g2 = s in (-1/max H1, 0).  The lower edge is its maximum
    below the smallest positive pole: over g2 = s < -1/min+ H1 when
    c H1(0, inf) < H2(0, inf), over g1 = t < -1/min+ H2 when
    c H1(0, inf) > H2(0, inf) (the point mass at zero is not in the hull),
    and 0 when the two are equal.  Interior gaps are not reported.
    """
    by_g2 = _InverseMap(c, h1, h2)
    upper = by_g2.point(by_g2.turning_point(upper=True))[0]
    a, b = float(by_g2.uw.sum()), float(by_g2.vw.sum())
    if abs(a - b) <= 1e-12 * max(a, b):
        return 0.0, upper
    lower_map = by_g2 if a < b else _InverseMap(c, h1, h2, swap=True)
    return lower_map.point(lower_map.turning_point(upper=False))[0], upper
