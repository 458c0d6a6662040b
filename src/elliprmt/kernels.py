"""Fluctuation kernels and covariance functionals for resolvent bilinear forms.

The centered bilinear form sqrt(p) (pi_a^T (S - z)^{-1} pi_b + z^{-1}
pi_a^T (I + g2 Sigma)^{-1} pi_b) converges to a Gaussian process whose
covariance factorizes through three scalar kernels (h1, h2 and the mixing
factor d) times population-side functionals of (I + g2 Sigma)^{-1}.  h1 is
the light-tail kernel and h2 the radius-fluctuation kernel, which vanishes
when H2 = delta_1.  The kernels are written in two functions only:

- ``_pair_kernels`` at distinct points, for ``kernels``, ``cov_m`` and the
  node grid of ``eigvec_stat_cov``;
- ``_diagonal_kernels`` at coincident points, for ``kernels_diagonal``,
  ``cov_m_diagonal`` and sigma_Delta^2 in ``spikes.predict_spike``.

The contour quadratures solve all of their nodes in one call of the
batched solver and evaluate the test functions zeta once on the node
array, so a zeta must accept an array of z.  ``eigvec_stat_cov`` takes K
test functions and returns their K x K covariance matrix from one solve
per contour; it builds the varpi kernel in blocks of rows of the inner
node grid and contracts each block against every test function at once,
so the whole node grid is never held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PoleError, _unit_vector
from .lsd import derivatives, outer_support_bracket, solve_lsd
from .measures import DiscreteMeasure

__all__ = [
    "KernelValues",
    "kernels",
    "kernels_diagonal",
    "r_functional",
    "deterministic_equivalent",
    "cov_m",
    "cov_m_diagonal",
    "ContourSpec",
    "default_contour",
    "eigvec_stat_cov",
    "contour_moment",
]

_COINCIDENT_TOL = 1e-12
_ROW_BLOCK = 64  # inner nodes per block of the varpi grid in eigvec_stat_cov


@dataclass(frozen=True)
class KernelValues:
    """The three scalar kernels at one ordered pair of points."""

    z1: complex
    z2: complex
    h1: complex
    h2: complex
    d: complex
    w: complex  # z1 z2 (g2(z1) - g2(z2)), the recurring combination


def _sigma_eig(sigma) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sigma, tuple):
        evals, evecs = sigma
        return np.asarray(evals, dtype=np.float64), np.asarray(evecs, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DomainError("Sigma must be square (or an (evals, evecs) pair)")
    evals, evecs = np.linalg.eigh(sigma)
    return evals, evecs


def _solved(c, h1, h2, z):
    """(z, g1, g2, m_under, g2') at a point or an array of points, the
    per-point argument of :func:`_pair_kernels`."""
    sol = solve_lsd(c, h1, h2, z)
    return sol.z, sol.g1, sol.g2, sol.m_under, derivatives(sol, c, h1, h2).g2p


def _solved_pair(c, h1, h2, z1, z2):
    """:func:`_solved` at z1 and z2 from one solve: real points share one branch geometry."""
    return list(zip(*(map(complex, v) for v in _solved(c, h1, h2, np.array([z1, z2])))))


def _pair_kernels(c, a, b):
    """(h1, h2, d) at distinct points a and b, each (z, g1, g2, m_under, g2').

    Plain operators only: scalars give scalars, and a column against a row
    gives the kernels on a node grid.  h2 is the radius-fluctuation term,
    zero when m_under = g2 (the light-tail regime).
    """
    z1, g1_1, g2_1, mu_1, g2p_1 = a
    z2, g1_2, g2_2, mu_2, g2p_2 = b
    dg1 = g1_1 - g1_2
    num1 = z1 * g2_1 - z2 * g2_2
    d = (z1 * g1_1 - z2 * g1_2) * num1 / (z1 * z2 * dg1 * (g2_1 - g2_2))
    h1 = c * num1 / (z1 ** 2 * z2 ** 2 * dg1 * (1.0 - d))
    h2 = c * g2p_1 * g2p_2 * (mu_1 * g2_2 - mu_2 * g2_1) / (g2_1 * g2_2 * dg1)
    return h1, h2, d


def _diagonal_kernels(c, z, der):
    """(h1, h2) at coincident points z1 = z2 = z, from the derivatives there.

    h1 = c (z g2)' g2' / (z^2 (z m_under)') and h2 = c g2'^2 (m_under/g2)'/g1',
    the z1 -> z2 limits of :func:`_pair_kernels`.
    """
    h1 = c * der.zg2_p * der.g2p / (z ** 2 * der.zmu_p)
    h2 = c * der.g2p ** 2 * der.mu_over_g2_p / der.g1p
    return h1, h2


def _at_point(c, h1, h2, z):
    """The solution at one point and the coincident kernels there."""
    sol = solve_lsd(c, h1, h2, z)
    return sol, _diagonal_kernels(c, sol.z, derivatives(sol, c, h1, h2))


def kernels(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
            z1: complex, z2: complex) -> KernelValues:
    """Evaluate (h1, h2, d, w) at an ordered pair of distinct points."""
    a, b = _solved_pair(c, h1, h2, z1, z2)
    dg2 = a[2] - b[2]
    if abs(a[1] - b[1]) < _COINCIDENT_TOL or abs(dg2) < _COINCIDENT_TOL:
        raise DomainError(
            "evaluation points are numerically coincident "
            "(|g1(z1)-g1(z2)| or |g2(z1)-g2(z2)| < 1e-12); use kernels_diagonal")
    h1v, h2v, d = _pair_kernels(c, a, b)
    return KernelValues(z1=a[0], z2=b[0], h1=h1v, h2=h2v, d=d, w=a[0] * b[0] * dg2)


def kernels_diagonal(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                     z: complex) -> tuple[complex, complex]:
    """Coincident-point variance pair (sigma11^2, sigma12^2).

    sigma12^2 = z^4 h1 and sigma11^2 = z^4 (2 h1 + h2) with the coincident
    kernels of :func:`_diagonal_kernels`.  The radius-fluctuation kernel h2
    vanishes in the light-tail regime (m_under = g2), where
    sigma11^2 = 2 sigma12^2.
    """
    sol, (k1, k2) = _at_point(c, h1, h2, z)
    z4 = sol.z ** 4
    return complex(z4 * (2.0 * k1 + k2)), complex(z4 * k1)


def r_functional(sigma, g2a: complex, g2b: complex,
                 pi_j: np.ndarray, pi_k: np.ndarray) -> complex:
    """Finite-n functional pi_j^T (I+g2a Sigma)^{-1} Sigma (I+g2b Sigma)^{-1} pi_k.

    The one-point form (I+g2 Sigma)^{-2} Sigma is the same call at
    g2a = g2b.  ``sigma`` may be the matrix itself or a precomputed
    (eigenvalues, eigenvectors) pair.
    """
    evals, evecs = _sigma_eig(sigma)
    den_a = 1.0 + complex(g2a) * evals
    den_b = 1.0 + complex(g2b) * evals
    if np.min(np.abs(den_a)) < 1e-12 or np.min(np.abs(den_b)) < 1e-12:
        raise PoleError("I + g2 Sigma is numerically singular")
    qj = evecs.T @ _unit_vector(pi_j, "pi_j")
    qk = evecs.T @ _unit_vector(pi_k, "pi_k")
    return complex(np.sum(qj * qk * evals / (den_a * den_b)))


def deterministic_equivalent(z: complex, g2: complex, sigma,
                             pi1: np.ndarray, pi2: np.ndarray) -> complex:
    """Almost-sure limit of the bilinear form: -z^{-1} pi1^T (I+g2 Sigma)^{-1} pi2,
    for unit vectors pi1 and pi2.

    Sign sanity check: isotropically (Sigma = I) this reduces to m(z), so
    diagonal forms keep Im > 0 in the upper half plane.
    """
    evals, evecs = _sigma_eig(sigma)
    den = 1.0 + complex(g2) * evals
    if np.min(np.abs(den)) < 1e-12:
        raise PoleError("I + g2 Sigma is numerically singular")
    q1 = evecs.T @ _unit_vector(pi1, "pi1")
    q2 = evecs.T @ _unit_vector(pi2, "pi2")
    return complex(-np.sum(q1 * q2 / den) / complex(z))


def _cov_from_kernels(k1, k2, sigma, pis, g2a, g2b):
    """k1 (r14 r23 + r13 r24) + k2 r12 r34: r_jk two-point at (g2a, g2b)
    across the pair, r12 one-point at g2a and r34 one-point at g2b."""
    eig = _sigma_eig(sigma)

    def r(j, k, ga=g2a, gb=g2b):
        return r_functional(eig, ga, gb, pis[j], pis[k])

    return (k1 * (r(0, 3) * r(1, 2) + r(0, 2) * r(1, 3))
            + k2 * r(0, 1, gb=g2a) * r(2, 3, ga=g2b))


def cov_m(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
          pis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
          z1: complex, z2: complex) -> complex:
    """Limit covariance of two centered bilinear forms at distinct points.

    Cov = h1 (r14 r23 + r13 r24) + h2 r12(z1) r34(z2), with r-functionals
    evaluated at finite n from the supplied Sigma.
    """
    if len(pis) != 4:
        raise ConfigError("cov_m needs exactly four projection vectors")
    a, b = _solved_pair(c, h1, h2, z1, z2)
    k1, k2, _ = _pair_kernels(c, a, b)
    return _cov_from_kernels(k1, k2, sigma, pis, a[2], b[2])


def cov_m_diagonal(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                   pis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                   z: complex) -> complex:
    """z1 -> z2 limit of :func:`cov_m` via the closed-form diagonal kernels."""
    if len(pis) != 4:
        raise ConfigError("cov_m_diagonal needs exactly four projection vectors")
    sol, (k1, k2) = _at_point(c, h1, h2, z)
    return _cov_from_kernels(k1, k2, sigma, pis, sol.g2, sol.g2)


# ---------------------------------------------------------------------------
# Contour machinery for eigenvector statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Axis-aligned rectangle contour around the spectrum, plus the inset
    used to keep the two integration contours disjoint."""

    x_left: float
    x_right: float
    v0: float = 0.5
    separation: float = 0.05

    def __post_init__(self):
        if self.x_right <= self.x_left:
            raise ConfigError("contour needs x_left < x_right")
        if self.v0 <= 0:
            raise ConfigError("contour half-height v0 must be positive")
        if self.separation <= 0 or 2 * self.separation >= self.v0:
            raise ConfigError("contours would overlap: need 0 < separation < v0/2")

    def inner(self) -> "ContourSpec":
        return ContourSpec(self.x_left + self.separation,
                           self.x_right - self.separation,
                           self.v0 - self.separation, self.separation)


def default_contour(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure) -> ContourSpec:
    """Rectangle strictly enclosing the bulk bracket, with the default v0.

    The left side stays strictly positive whenever the support bracket
    allows it (the kernels carry z = 0 structure that must remain outside
    the contour for c < 1), and the separation is shrunk if needed so the
    inset inner contour still encloses the bracket.
    """
    lo0, hi = outer_support_bracket(c, h1, h2)
    if lo0 <= 1e-12:
        x_left, sep = -0.1 * hi, min(0.05, 0.05 * hi)
    else:
        # inner left edge x_left + sep must stay below the bracket lo0
        x_left, sep = 0.4 * lo0, min(0.05, 0.3 * lo0)
    return ContourSpec(x_left=x_left, x_right=1.2 * hi, separation=sep)


def _contour_nodes(spec: ContourSpec, quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and complex dz-weights, counterclockwise."""
    if quad_n < 2:
        raise ConfigError("need at least 2 quadrature nodes per side")
    corners = [complex(spec.x_right, -spec.v0), complex(spec.x_right, spec.v0),
               complex(spec.x_left, spec.v0), complex(spec.x_left, -spec.v0)]
    nodes, weights = [], []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        t = np.linspace(0.0, 1.0, quad_n)
        side = a + (b - a) * t
        wt = np.full(quad_n, (b - a) / (quad_n - 1))
        wt[0] *= 0.5
        wt[-1] *= 0.5
        nodes.append(side)
        weights.append(wt)
    return np.concatenate(nodes), np.concatenate(weights)


def _on_nodes(zeta, nodes: np.ndarray) -> np.ndarray:
    """zeta evaluated on the node array at once (zeta must broadcast)."""
    return np.broadcast_to(np.asarray(zeta(nodes), dtype=np.complex128), nodes.shape)


def eigvec_stat_cov(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                    pi: np.ndarray, zetas, contour: ContourSpec | None = None,
                    quad_n: int = 96) -> np.ndarray:
    """Limit covariance matrix of the eigenvector statistics int zeta d G_n.

    For the sequence of K test functions ``zetas``, entry (a, b) of the
    K x K result is -(2 pi i)^{-2} times the double contour integral of
    zeta_a(z1) zeta_b(z2) varpi(z1, z2), with
    varpi = 2 h1 r11(z1, z2)^2 + h2 r11(z1) r11(z2), z1 on the inner and z2
    on the outer of two nested counterclockwise rectangles (offset by
    ``separation``), by per-side trapezoid quadrature with ``quad_n`` nodes
    per side.  Each contour is solved once, and each zeta is called once
    per contour, on the array of nodes.  varpi is evaluated in blocks of
    ``_ROW_BLOCK`` inner nodes, each contracted at once against every test
    function, so the memory is bounded by one block, not by the whole grid.
    """
    if contour is None:
        contour = default_contour(c, h1, h2)
    outer, inner = contour, contour.inner()
    evals, evecs = _sigma_eig(sigma)
    proj = evecs.T @ _unit_vector(pi)
    wd = proj ** 2 * evals

    nodes1, w1 = _contour_nodes(inner, quad_n)
    nodes2, w2 = _contour_nodes(outer, quad_n)
    vals1 = _solved(c, h1, h2, nodes1)
    vals2 = _solved(c, h1, h2, nodes2)
    a1 = np.stack([w1 * _on_nodes(f, nodes1) for f in zetas], axis=1)   # (n1, K)
    a2 = np.stack([w2 * _on_nodes(f, nodes2) for f in zetas], axis=1)   # (n2, K)
    # r11 cross matrix: sum_j w_j d_j / ((1+g2(z1)d_j)(1+g2(z2)d_j))
    t2 = 1.0 / (1.0 + np.multiply.outer(vals2[2], evals))              # (n2, p)
    r_one_2 = np.sum(t2 * t2 * wd, axis=1)
    cols = [v[None, :] for v in vals2]
    integral = np.zeros((a1.shape[1], a2.shape[1]), dtype=np.complex128)
    for start in range(0, nodes1.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        h1m, h2m, _ = _pair_kernels(c, [v[rows, None] for v in vals1], cols)
        t1 = 1.0 / (1.0 + np.multiply.outer(vals1[2][rows], evals))     # (block, p)
        r_cross = (t1 * wd) @ t2.T
        r_one_1 = np.sum(t1 * t1 * wd, axis=1)
        varpi = 2.0 * h1m * r_cross ** 2 + h2m * np.multiply.outer(r_one_1, r_one_2)
        integral += a1[rows].T @ (varpi @ a2)
    value = integral / (2.0j * np.pi) ** 2
    if np.any(np.abs(value.imag) > 1e-4 * np.maximum(1.0, np.abs(value.real))):
        raise DomainError(
            f"covariance quadrature returned a non-real value {value!r}; "
            "the contour likely clips the support")
    return value.real


def contour_moment(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                   pi: np.ndarray, zetas, contour: ContourSpec | None = None,
                   quad_n: int = 256) -> np.ndarray:
    """int zeta dF for the anisotropic reference law, by contour quadrature,
    for each zeta of the sequence ``zetas``, from one solve of the contour.

    Uses int zeta dF = -(2 pi i)^{-1} oint zeta(z) s(z) dz with
    s(z) = -z^{-1} pi^T (I + g2(z) Sigma)^{-1} pi.  pi must be a unit
    vector, so the law has total mass one: the constant part of zeta is
    split off and integrated exactly, and a constant zeta returns exactly
    zeta(0).  Each zeta is called on 0.0 and once on the array of nodes.
    """
    if contour is None:
        contour = default_contour(c, h1, h2)
    evals, evecs = _sigma_eig(sigma)
    proj = evecs.T @ _unit_vector(pi)
    wpi = proj ** 2
    nodes, w = _contour_nodes(contour, quad_n)
    g2 = solve_lsd(c, h1, h2, nodes).g2
    s = -np.sum(wpi / (1.0 + g2[:, None] * evals), axis=1) / nodes
    values = []
    for zeta in zetas:
        base = complex(zeta(0.0))
        total = np.sum(w * (_on_nodes(zeta, nodes) - base) * s)
        values.append((base - total / (2.0j * np.pi)).real)
    return np.array(values)
