"""Solvers for the coupled spectral-limit system, off and on the real axis.

For aspect ratio c and input laws H1 (population spectrum) and H2
(normalized squared radius), the pair (g1, g2) solves

    z g1(z) = -c * int x / (1 + g2(z) x) dH1(x)
    z g2(z) =     -int y / (1 + g1(z) y) dH2(y)

and the Stieltjes transform of the limit law follows as
``m(z) = -z^{-1} int (1 + g2(z) x)^{-1} dH1(x)`` with companion
``m_under(z) = -(1-c)/z + c m(z) = -1/z - g1 g2``.  ``solve_lsd`` is the
one solver by z, for one z or an array.  Off the real axis it iterates a
damped alternation (globally stable for Im z bounded away from 0) and falls
back to Newton on the 2x2 complex system.  Every node runs the same
iteration under its own convergence mask, the integrals over the atoms of
H1 and H2 become (nodes, atoms) array operations, and a node in the lower
half plane is solved at its conjugate (Dobriban 2015 and Ledoit & Wolf's
QuEST 2017 vectorise the limit-spectrum solve over the evaluation grid the
same way).  Contours and inversion grids are therefore one call each.

On the real axis outside the bulk the system inverts along one coordinate
(Silverstein & Choi 1995; Couillet & Hachem 2014 for separable models such
as this one, with D = diag(rho^2)).  Fixing g2 = s gives g1 = -c A(s)/z with
A(s) = int x/(1 + s x) dH1, and z is the one root of
-s = int y/(z - c A(s) y) dH2 above c A(s) max H2.  Spike locations are
z(-1/alpha) (``solve_lsd_inverse``); bulk edges are the turning points of
z(s), and the detectability threshold is -1/s* at the upper one.  A real
node x of ``solve_lsd`` is the root of z(s) = x, by safeguarded Newton, on
the branch of the map that holds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, _unit_vector
from .measures import DiscreteMeasure

__all__ = [
    "LsdSolution",
    "LsdDerivatives",
    "solve_lsd",
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


@dataclass(frozen=True)
class LsdSolution:
    """Solution of the coupled system at one point z, or at an array of z.

    For an array z the complex fields are arrays of its shape,
    ``iterations`` is the total over the nodes and ``residual`` the largest.
    """

    z: complex | np.ndarray
    g1: complex | np.ndarray
    g2: complex | np.ndarray
    m: complex | np.ndarray
    m_under: complex | np.ndarray
    iterations: int
    residual: float
    trivial: bool = False

    def to_dict(self) -> dict:
        def pair(v):
            v = np.asarray(v)
            return [v.real.tolist(), v.imag.tolist()]

        return {
            "z": pair(self.z),
            "g1": pair(self.g1),
            "g2": pair(self.g2),
            "m": pair(self.m),
            "m_under": pair(self.m_under),
            "iterations": self.iterations,
            "residual": self.residual,
            "trivial": self.trivial,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class LsdDerivatives:
    """First z-derivatives of a solution plus the composite expressions
    (arrays when the solution holds an array of z)."""

    g1p: complex | np.ndarray
    g2p: complex | np.ndarray
    m_under_p: complex | np.ndarray
    zg2_p: complex | np.ndarray        # (z g2)'
    zmu_p: complex | np.ndarray        # (z m_under)'
    mu_over_g2_p: complex | np.ndarray  # (m_under / g2)'


def _check_law(mu: DiscreteMeasure, name: str) -> None:
    if float(mu.atoms[0]) < 0:
        raise DomainError(f"{name} must be supported on [0, inf); "
                          f"smallest atom is {float(mu.atoms[0])!r}")


def _int(mu: DiscreteMeasure, g, power: int = 1):
    """int t^power / (1 + g t)^power dmu(t), elementwise in g; the sum over
    the atoms runs along the last axis of a (g.shape, atoms) array.  One g
    gives a Python number, so scalar callers keep Python arithmetic."""
    d = 1.0 + np.multiply.outer(g, mu.atoms)
    if power == 1:
        total = (mu.weights * mu.atoms / d).sum(axis=-1)
    else:
        total = (mu.weights * mu.atoms ** 2 / d ** 2).sum(axis=-1)
    return total if total.ndim else total.item()


def _mean_inv(mu: DiscreteMeasure, g):
    """int 1 / (1 + g t) dmu(t), elementwise in g, like ``_int``."""
    total = (mu.weights / (1.0 + np.multiply.outer(g, mu.atoms))).sum(axis=-1)
    return total if total.ndim else total.item()


def _first(mask) -> int | None:
    """Index of the first true entry of a flag or flag array, or None."""
    if isinstance(mask, bool):
        return 0 if mask else None
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _state(c, h1, z, g1, g2, iy):
    """A = int x/(1 + g2 x) dH1, the residuals r1 = z g1 + c A and
    r2 = z g2 + iy, and max(|r1|, |r2|), given iy = int y/(1 + g1 y) dH2."""
    ix = _int(h1, g2)
    r1, r2 = z * g1 + c * ix, z * g2 + iy
    return ix, r1, r2, np.maximum(abs(r1), abs(r2))


def _residual(c, h1, h2, z, g1, g2):
    return _state(c, h1, z, g1, g2, _int(h2, g1))[3]


def _finish(c, h1, z, g1, g2, iterations, residual, trivial=False) -> LsdSolution:
    """The solution at (z, g1, g2); one z gives complex fields."""
    m = -_mean_inv(h1, g2) / z
    m_under = -(1.0 - c) / z + c * m
    if not isinstance(z, np.ndarray):
        z, g1, g2, m, m_under = map(complex, (z, g1, g2, m, m_under))
    return LsdSolution(z=z, g1=g1, g2=g2, m=m, m_under=m_under,
                       iterations=int(iterations), residual=float(residual),
                       trivial=trivial)


def _newton_step(c, h1, h2, z, g1, g2, r1, r2):
    """One Newton step on F = (z g1 + c A(g2), z g2 + B(g1)) = (r1, r2), NaN
    where the Jacobian [[z, -c I1], [-I2, z]] is numerically singular."""
    i1 = _int(h1, g2, 2)
    i2 = _int(h2, g1, 2)
    det = z * z - c * i1 * i2
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    return g1 + (-r1 * z - c * i1 * r2) / det, g2 + (-r2 * z - i2 * r1) / det


def _iterate(c, h1, h2, z, tol, max_iter):
    """Damped alternation with guarded Newton at every node of a 1-D z with
    Im z > 0, from g1 = g2 = -1/z.  A node leaves the working set once its
    residual is below ``tol``; Newton is tried once a node has run
    ``_NEWTON_AFTER`` iterations and kept only where it lowers the residual.
    Returns final (g1, g2, residual, iterations) per node, with
    iterations = -1 where ``max_iter`` ran out first.
    """
    out_g1, out_g2 = np.empty_like(z), np.empty_like(z)
    out_res, out_it = np.empty(z.size), np.full(z.size, -1)
    idx = np.arange(z.size)
    g1 = g2 = -1.0 / z
    ix, r1, r2, res = _state(c, h1, z, g1, g2, _int(h2, g1))
    for it in range(1, max_iter + 1):
        done = res < tol
        if done.any():
            k = idx[done]
            out_g1[k], out_g2[k], out_res[k], out_it[k] = g1[done], g2[done], res[done], it - 1
            idx, z, g1, g2, ix, r1, r2, res = (
                a[~done] for a in (idx, z, g1, g2, ix, r1, r2, res))
        if idx.size == 0:
            break
        n1 = (1 - _DAMPING) * g1 + _DAMPING * (-c * ix / z)
        iy = _int(h2, n1)
        n2 = (1 - _DAMPING) * g2 + _DAMPING * (-iy / z)
        new = (n1, n2, *_state(c, h1, z, n1, n2, iy))
        if it > _NEWTON_AFTER:
            t1, t2 = _newton_step(c, h1, h2, z, g1, g2, r1, r2)
            newton = (t1, t2, *_state(c, h1, z, t1, t2, _int(h2, t1)))
            take = np.isfinite(t1) & np.isfinite(t2) & (newton[-1] < res)
            new = tuple(np.where(take, a, b) for a, b in zip(newton, new))
        g1, g2, ix, r1, r2, res = new
    out_g1[idx], out_g2[idx], out_res[idx] = g1, g2, res
    return out_g1, out_g2, out_res, out_it


def _in_uniqueness_set(z, g1, g2, m):
    """Membership in U = {Im m > 0, Im(z g1) > 0, Im g2 > 0} with slack, per node.

    Newton can land on a spurious branch of the system; only the branch
    inside U is the Stieltjes solution.  The slack tolerates
    roundoff at Im z near 0 where the strict inequalities become marginal.
    """
    slack = -1e-9
    zg1 = z * g1
    return ((m.imag > slack * np.maximum(1.0, np.abs(m)))
            & (zg1.imag > slack * np.maximum(1.0, np.abs(zg1)))
            & (g2.imag > slack * np.maximum(1.0, np.abs(g2))))


def _node(z: np.ndarray, scalar: bool, i: int) -> str:
    return f"z={complex(z[i])}" + ("" if scalar else f" (node {i} of {z.size})")


def solve_lsd(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, z,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> LsdSolution:
    """Solve the coupled system at one z or at every z of an array, z != 0.

    A node off the real axis runs a damped alternation (damping 0.5) from
    g1 = g2 = -1/z with a Newton fallback on the 2x2 system after 200
    iterations; a node with Im z < 0 is solved at its conjugate and
    conjugated back, and one that converges outside the uniqueness set
    raises.  A real node x is the exact root of the inverse map on the
    branch that holds it (:class:`_Branches`, no iterations), and raises
    :class:`ConvergenceError` if its residual exceeds max(tol, 1e-10); x
    inside the hull [lower, upper] of the bulk raises :class:`DomainError`.
    A :class:`ConvergenceError` names the first node that failed in its
    message and ``index``.  The degenerate inputs H1 = delta_0 or
    H2 = delta_0 short-circuit to the point-mass law with m = -1/z.
    """
    if not (0 < tol <= 1e-6):
        raise DomainError("tol must lie in (0, 1e-6]")
    if c <= 0:
        raise DomainError("aspect ratio c must be positive")
    scalar = np.ndim(z) == 0
    shape = np.shape(z)
    z = np.asarray(z, dtype=np.complex128).ravel()
    i = _first(z == 0)
    if i is not None:
        raise DomainError(f"solve_lsd needs z != 0 ({_node(z, scalar, i)})")
    _check_law(h1, "H1")
    _check_law(h2, "H2")
    lower = z.imag < 0
    zu = np.where(lower, z.conj(), z)

    def flip(v):
        return np.where(lower, np.conj(v), v)

    trivial = h1.is_point_mass_at(0.0) or h2.is_point_mass_at(0.0)
    its, res = np.zeros(z.size, dtype=int), np.zeros(z.size)
    with np.errstate(all="ignore"):
        if trivial:
            g1, g2 = -c * _int(h1, 0.0) / zu, -_int(h2, 0.0) / zu
        else:
            g1, g2 = np.empty_like(zu), np.empty_like(zu)
            on, off = np.flatnonzero(zu.imag == 0), np.flatnonzero(zu.imag != 0)
            if on.size:
                branches = _Branches(c, h1, h2)
                for k in on:
                    g1[k], g2[k] = branches.solve(zu[k].real, _node(z, scalar, k))
                res[on] = _residual(c, h1, h2, zu[on], g1[on], g2[on])
            if off.size:
                g1[off], g2[off], res[off], its[off] = _iterate(c, h1, h2, zu[off], tol, max_iter)
            # a complex node out of iterations, or a real one off by more than roundoff
            i = _first((its < 0) | (res > max(tol, 1e-10)))
            if i is not None:
                raise ConvergenceError(
                    f"no solution to tol={tol} at {_node(z, scalar, i)} (residual {res[i]:.3e})",
                    residual=float(res[i]), iterations=max_iter if its[i] < 0 else 0, index=i)
            m = -_mean_inv(h1, g2) / zu  # real nodes pass the test of U
            i = _first(~_in_uniqueness_set(zu, g1, g2, m))
            if i is not None:
                raise ConvergenceError(
                    "converged to a point outside the uniqueness set at "
                    f"{_node(z, scalar, i)} (m={complex(flip(m)[i])!r}, "
                    f"g2={complex(flip(g2)[i])!r})",
                    residual=float(res[i]), iterations=int(its[i]), index=i)
        # conjugation commutes with every operation of _finish, so it works at z itself
        z, g1, g2 = (complex(v[0]) if scalar else v.reshape(shape) for v in (z, flip(g1), flip(g2)))
        return _finish(c, h1, z, g1, g2, its.sum(), res.max(initial=0.0), trivial)


def derivatives(sol: LsdSolution, c: float, h1: DiscreteMeasure,
                h2: DiscreteMeasure) -> LsdDerivatives:
    """Exact first derivatives at a converged solution, node by node.

    Differentiating the coupled system in z gives the linear system
    [[z, -c I1], [-I2, z]] (g1', g2')^T = (-g1, -g2)^T with
    I1 = int x^2/(1+g2 x)^2 dH1 and I2 = int y^2/(1+g1 y)^2 dH2; the
    composite expressions follow by product and quotient rules.
    """
    z, g1, g2, mu = sol.z, sol.g1, sol.g2, sol.m_under
    i1 = _int(h1, g2, 2)
    i2 = _int(h2, g1, 2)
    det = z * z - c * i1 * i2
    i = _first((abs(det) < 1e-14) | (abs(det) < 1e-14 * abs(z) ** 2))
    if i is not None:
        raise DomainError(f"derivative system is singular at z={complex(np.ravel(z)[i])} "
                          f"(det={complex(np.ravel(det)[i])!r})")
    g1p = (-g1 * z - c * i1 * g2) / det
    g2p = (-g2 * z - i2 * g1) / det
    mu_p = 1.0 / (z * z) - g1p * g2 - g1 * g2p
    if _first(abs(g2) < 1e-300) is not None:
        raise DomainError("g2 vanishes; quotient derivative undefined")
    out = (g1p, g2p, mu_p, g2 + z * g2p, mu + z * mu_p, (mu_p * g2 - mu * g2p) / (g2 * g2))
    if not isinstance(sol.z, np.ndarray):
        out = map(complex, out)
    return LsdDerivatives(*out)


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
    ``pi`` supplied (``DomainError`` for any other pi), the anisotropic law
    is inverted instead, using its transform
    -z^{-1} pi^T (I + g2(z) Sigma)^{-1} pi.  The CDF accumulates by
    trapezoid and carries the point mass 1 - 1/c at zero when c > 1.
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
        proj = evecs.T @ _unit_vector(pi)
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

    z = grid + 1j * eps
    try:
        sol = solve_lsd(c, h1, h2, z)
    except ConvergenceError as exc:
        x = grid[0 if exc.index is None else exc.index]
        raise ConvergenceError(
            f"inversion failed at grid point x={x}: {exc}", residual=exc.residual,
            iterations=exc.iterations, index=exc.index) from exc
    if weights is None:
        density = sol.m.imag / np.pi
    else:
        s = -np.sum(weights / (1.0 + sol.g2[:, None] * evals), axis=1) / z
        density = s.imag / np.pi
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
    drop out.  For s < 0 write z = K y0 + w, y0 the largest positive atom of
    V if K > 0 and the smallest if K < 0: f(w) = int y/(w + K (y0 - y)) dV + s
    is convex and falls from +inf to s on w > 0.  For s > 0 write z = -w:
    f(w) = int y/(w + K y) dV - s is convex and falls to -s, from
    V(0, inf)/K - s > 0 when U(0, inf) <= V(0, inf).  Either way Newton's
    method started where f > 0 climbs to the root without overshooting it.
    """

    def __init__(self, c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, swap=False):
        _check_law(h1, "H1")
        _check_law(h2, "H2")
        if not (h1.atoms[-1] > 0 and h2.atoms[-1] > 0):
            raise DomainError("degenerate inputs: bulk support has empty interior")
        (u, ku), (v, kv) = ((h2, 1.0), (h1, c)) if swap else ((h1, c), (h2, 1.0))
        self.swap = swap
        self.ux, self.uw = u.atoms[u.atoms > 0], ku * u.weights[u.atoms > 0]
        self.vy, self.vw = v.atoms[v.atoms > 0], kv * v.weights[v.atoms > 0]

    def point(self, s: float) -> tuple[float, float, float]:
        """(z, K, slope) at s; slope = 1 + K' int y^2/(z - K y)^2 dV has the sign of dz/ds."""
        d = 1.0 + s * self.ux
        k = float(np.sum(self.uw * self.ux / d))
        num = self.vw * self.vy
        if s < 0:
            i = -1 if k > 0 else 0
            base, gap = k * self.vy[i], k * (self.vy[i] - self.vy)
            w = max(num[i], num.sum() + s * gap.max()) / -s  # two lower bounds of the root
        else:
            gap = k * self.vy
            w = max(0.0, num.sum() / s - gap.max())
        for _ in range(200):
            step = (float(np.sum(num / (w + gap))) - abs(s)) / float(np.sum(num / (w + gap) ** 2))
            w += step
            if step <= _RTOL * w:
                break
        else:
            raise ConvergenceError(f"inverse map did not converge at s={s!r}")
        slope = 1.0 - float(np.sum(self.uw * (self.ux / d) ** 2)) \
            * float(np.sum(num * self.vy / (w + gap) ** 2))
        return (float(base + w) if s < 0 else -w), k, slope

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
        while hi > lo * (1.0 + _RTOL):  # bisection in log r; slope(lo) < 0 iff upper
            mid = float(np.sqrt(lo * hi))
            lo, hi = (mid, hi) if (slope(mid) < 0) == upper else (lo, mid)
        return -2.0 / (lo + hi)

    def root(self, x: float, sign: int, lo: float, hi: float) -> float:
        """s with z(s) = x on r = -1/s = sign t, t in (lo, hi), where z rises
        with r: Newton's method in t from the middle of the bracket, which
        every step narrows, with a bisection step in log t wherever Newton
        would leave it.  The caller checks the residual."""
        t = float(np.sqrt(lo * hi))
        for _ in range(200):
            z, k, slope = self.point(-1.0 / (sign * t))
            if z == x:
                return -1.0 / (sign * t)
            lo, hi = (t, hi) if (z < x) == (sign > 0) else (lo, t)
            # dz/ds = slope / int y/(z - K y)^2 dV, and dz/dt = sign dz/ds / t^2
            dzds = slope / np.sum(self.vw * self.vy / (z - k * self.vy) ** 2)
            new = t - (z - x) * sign * t * t / dzds
            if not lo < new < hi:
                new = float(np.sqrt(lo * hi))
            if abs(new - t) <= _RTOL * t:
                return -1.0 / (sign * new)
            t = new
        raise ConvergenceError(f"inverse-map root for x={x!r} did not converge")


_RTOL, _ETA = 4.0 * float(np.finfo(float).eps), 2.0 ** -40


class _Branches:
    """Where the Stieltjes solution lies on the real axis outside the bulk:
    above the upper edge on the g2 map at r = -1/s in (r*, inf), r* = -1/s*;
    below the lower edge on ``lower_map`` (g2 = s when c H1(0, inf) <=
    H2(0, inf), else g1 = s) at r in (-inf, r_lo), where z rises from -inf
    through z = 0 at r = 0 to the lower edge, so negative x and the gap above
    a point mass at zero are on it.  Each edge is found on first use.
    """

    def __init__(self, c: float, h1: DiscreteMeasure, h2: DiscreteMeasure):
        self.by_g2 = _InverseMap(c, h1, h2)
        a, b = float(self.by_g2.uw.sum()), float(self.by_g2.vw.sum())
        self.lower_map = self.by_g2 if a <= b else _InverseMap(c, h1, h2, swap=True)
        self.flat = abs(a - b) <= 1e-12 * max(a, b)  # the lower edge is 0

    @cached_property
    def upper_edge(self) -> tuple[float, float]:
        """(s*, upper edge)."""
        s_star = self.by_g2.turning_point(upper=True)
        return s_star, self.by_g2.point(s_star)[0]

    @cached_property
    def lower_edge(self) -> tuple[float, float]:
        """(r_lo, lower edge)."""
        if self.flat:
            return 0.0, 0.0
        s_lo = self.lower_map.turning_point(upper=False)
        return -1.0 / s_lo, self.lower_map.point(s_lo)[0]

    def solve(self, x: float, where: str) -> tuple[float, float]:
        """(g1, g2) at a real x != 0 outside [lower, upper]; x < 0 needs no edge."""
        inv = self.lower_map
        pole = float(inv.ux[0])
        if x < 0:
            s = inv.root(x, -1, pole * 2.0 ** -64, pole * 2.0 ** 64)
        elif x > self.upper_edge[1]:
            inv = self.by_g2
            s = inv.root(x, 1, -1.0 / self.upper_edge[0], float(inv.ux[-1]) * 2.0 ** 64)
        else:
            r_lo, lower = self.lower_edge
            if x >= lower:
                raise DomainError(
                    f"{where} lies inside the bulk hull [{lower!r}, {self.upper_edge[1]!r}]")
            s = inv.root(x, 1, pole * 2.0 ** -64, r_lo)
        other = -inv.point(s)[1] / x
        return (s, other) if inv.swap else (other, s)


def solve_lsd_inverse(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                      g2: float) -> LsdSolution:
    """Exact real-axis solution with g2 = s in (-1/max H1, 0), at z above
    the bulk: z is the one root of -s = int y/(z - c A(s) y) dH2 above
    c A(s) max H2, A(s) = int x/(1 + s x) dH1, and g1 = -c A(s)/z.  It is
    on the Stieltjes branch only for s above ``upper_edge_g2``."""
    if not -1.0 / float(h1.atoms[-1]) < g2 < 0.0:
        raise DomainError(f"g2={g2!r} outside (-1/max H1, 0)")
    z, k, _ = _InverseMap(c, h1, h2).point(g2)
    return _finish(c, h1, complex(z), complex(-k / z), complex(g2), iterations=0,
                   residual=_residual(c, h1, h2, z, -k / z, g2))


def upper_edge_g2(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure) -> float:
    """g2 = s* at the upper bulk edge, where dz/ds changes sign on
    (-1/max H1, 0); the detectability threshold of a spike is -1/s*."""
    return _Branches(c, h1, h2).upper_edge[0]


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
    branches = _Branches(c, h1, h2)
    return branches.lower_edge[1], branches.upper_edge[1]
