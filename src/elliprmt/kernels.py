"""Fluctuation kernels and covariance functionals for resolvent bilinear forms.

The centered bilinear form sqrt(p) (pi_a^T (S - z)^{-1} pi_b + z^{-1}
pi_a^T (I + g2 Sigma)^{-1} pi_b) converges to a Gaussian process whose
covariance factorizes through three scalar kernels (h1, h2 and the mixing
factor d) times population-side functionals of (I + g2 Sigma)^{-1}.  This
module evaluates those kernels from solver output, their coincident-point
limits, and the double contour integral giving the covariance of
eigenvector statistics.  The contour quadratures solve all of their nodes
in one call of the batched solver and evaluate the test functions zeta
once on the node array, so a zeta must accept an array of z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PoleError
from .lsd import LsdSolution, derivatives, outer_support_bracket, solve_lsd_point
from .measures import DiscreteMeasure

__all__ = [
    "KernelValues",
    "RFunctionals",
    "kernels",
    "kernels_diagonal",
    "r_functionals",
    "deterministic_equivalent",
    "cov_m",
    "cov_m_diagonal",
    "ContourSpec",
    "default_contour",
    "eigvec_stat_cov",
    "contour_moment",
    "kernel_grid_csv",
]

_COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class KernelValues:
    """The three scalar kernels at one ordered pair of points."""

    z1: complex
    z2: complex
    h1: complex
    h2: complex
    d: complex
    w: complex  # z1 z2 (g2(z1) - g2(z2)), the recurring combination


@dataclass(frozen=True)
class RFunctionals:
    """Population-side functionals of one vector pair.

    ``r_two_point`` uses (I+g2(z1)S)^{-1} S (I+g2(z2)S)^{-1}; ``r_one_point``
    uses (I+g2(z)S)^{-2} S.  The two coincide when z1 = z2 but are kept
    separate because the one-argument form enters the h2 term on its own.
    """

    r_two_point: complex
    r_one_point: complex


def _sigma_eig(sigma) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sigma, tuple):
        evals, evecs = sigma
        return np.asarray(evals, dtype=np.float64), np.asarray(evecs, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DomainError("Sigma must be square (or an (evals, evecs) pair)")
    evals, evecs = np.linalg.eigh(sigma)
    return evals, evecs


def _solve_pair(c, h1, h2, z1, z2, tol):
    s1 = solve_lsd_point(c, h1, h2, z1, tol=tol)
    s2 = solve_lsd_point(c, h1, h2, z2, tol=tol)
    return s1, s2


def _kernels_from_solutions(c, s1: LsdSolution, s2: LsdSolution,
                            d1=None, d2=None) -> KernelValues:
    z1, z2 = s1.z, s2.z
    dg1 = s1.g1 - s2.g1
    dg2 = s1.g2 - s2.g2
    if abs(dg1) < _COINCIDENT_TOL or abs(dg2) < _COINCIDENT_TOL:
        raise DomainError(
            "evaluation points are numerically coincident "
            "(|g1(z1)-g1(z2)| or |g2(z1)-g2(z2)| < 1e-12); use kernels_diagonal")
    w = z1 * z2 * dg2
    num1 = z1 * s1.g2 - z2 * s2.g2
    d = (z1 * s1.g1 - z2 * s2.g1) * num1 / (z1 * z2 * dg1 * dg2)
    h1v = c * num1 / (z1 ** 2 * z2 ** 2 * dg1 * (1.0 - d))
    h2v = c * d1.g2p * d2.g2p * (s1.m_under * s2.g2 - s2.m_under * s1.g2) \
        / (s1.g2 * s2.g2 * dg1)
    return KernelValues(z1=z1, z2=z2, h1=h1v, h2=h2v, d=d, w=w)


def kernels(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
            z1: complex, z2: complex, tol: float = 1e-12) -> KernelValues:
    """Evaluate (h1, h2, d, w) at an ordered pair of distinct points."""
    s1, s2 = _solve_pair(c, h1, h2, z1, z2, tol)
    return _kernels_from_solutions(c, s1, s2,
                                   derivatives(s1, c, h1, h2),
                                   derivatives(s2, c, h1, h2))


def kernels_diagonal(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                     z: complex, tol: float = 1e-12) -> tuple[complex, complex]:
    """Coincident-point variance pair (sigma11^2, sigma12^2).

    sigma12^2(z) = c z^2 (z g2)' g2' / (z m_under)' and sigma11^2 adds the
    radius-fluctuation term c z^4 (g2')^2 (m_under/g2)' / g1'.  Both reduce
    via m_under = g2 in the light-tail regime, where the second term
    vanishes and sigma11^2 = 2 sigma12^2.
    """
    sol = solve_lsd_point(c, h1, h2, z, tol=tol)
    der = derivatives(sol, c, h1, h2)
    z = sol.z
    sigma12_sq = c * z ** 2 * der.zg2_p * der.g2p / der.zmu_p
    sigma11_sq = 2.0 * sigma12_sq + c * z ** 4 * der.g2p ** 2 * der.mu_over_g2_p / der.g1p
    return complex(sigma11_sq), complex(sigma12_sq)


def r_functionals(sigma, g2_at, pi_j: np.ndarray, pi_k: np.ndarray) -> RFunctionals:
    """Finite-n functionals pi_j^T f(Sigma) pi_k for the CLT covariance.

    ``g2_at`` is either a single g2 value (one-point form, two-point form
    at coincident arguments) or a pair (g2(z1), g2(z2)).  ``sigma`` may be
    the matrix itself or a precomputed (eigenvalues, eigenvectors) pair.
    """
    evals, evecs = _sigma_eig(sigma)
    if np.isscalar(g2_at) or isinstance(g2_at, complex):
        ga = gb = complex(g2_at)
    else:
        if len(g2_at) != 2:
            raise DomainError("g2_at must be a scalar or a pair")
        ga, gb = complex(g2_at[0]), complex(g2_at[1])
    den_a = 1.0 + ga * evals
    den_b = 1.0 + gb * evals
    if np.min(np.abs(den_a)) < 1e-12 or np.min(np.abs(den_b)) < 1e-12:
        raise PoleError("I + g2 Sigma is numerically singular")
    qj = evecs.T @ np.asarray(pi_j, dtype=np.float64).ravel()
    qk = evecs.T @ np.asarray(pi_k, dtype=np.float64).ravel()
    cross = qj * qk * evals
    return RFunctionals(
        r_two_point=complex(np.sum(cross / (den_a * den_b))),
        r_one_point=complex(np.sum(cross / (den_a * den_a))),
    )


def deterministic_equivalent(z: complex, g2: complex, sigma,
                             pi1: np.ndarray, pi2: np.ndarray) -> complex:
    """Almost-sure limit of the bilinear form: -z^{-1} pi1^T (I+g2 Sigma)^{-1} pi2.

    Sign sanity check: isotropically (Sigma = I) this reduces to m(z), so
    diagonal forms keep Im > 0 in the upper half plane.
    """
    evals, evecs = _sigma_eig(sigma)
    den = 1.0 + complex(g2) * evals
    if np.min(np.abs(den)) < 1e-12:
        raise PoleError("I + g2 Sigma is numerically singular")
    q1 = evecs.T @ np.asarray(pi1, dtype=np.float64).ravel()
    q2 = evecs.T @ np.asarray(pi2, dtype=np.float64).ravel()
    return complex(-np.sum(q1 * q2 / den) / complex(z))


def cov_m(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
          pis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
          z1: complex, z2: complex, tol: float = 1e-12) -> complex:
    """Limit covariance of two centered bilinear forms at distinct points.

    Cov = h1 r14 r23 + h1 r13 r24 + h2 r12(z1) r34(z2), with r-functionals
    evaluated at finite n from the supplied Sigma.
    """
    if len(pis) != 4:
        raise ConfigError("cov_m needs exactly four projection vectors")
    s1, s2 = _solve_pair(c, h1, h2, z1, z2, tol)
    kv = _kernels_from_solutions(c, s1, s2,
                                 derivatives(s1, c, h1, h2),
                                 derivatives(s2, c, h1, h2))
    eig = _sigma_eig(sigma)
    pair = (s1.g2, s2.g2)
    r14 = r_functionals(eig, pair, pis[0], pis[3]).r_two_point
    r23 = r_functionals(eig, pair, pis[1], pis[2]).r_two_point
    r13 = r_functionals(eig, pair, pis[0], pis[2]).r_two_point
    r24 = r_functionals(eig, pair, pis[1], pis[3]).r_two_point
    r12 = r_functionals(eig, s1.g2, pis[0], pis[1]).r_one_point
    r34 = r_functionals(eig, s2.g2, pis[2], pis[3]).r_one_point
    return kv.h1 * r14 * r23 + kv.h1 * r13 * r24 + kv.h2 * r12 * r34


def cov_m_diagonal(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                   pis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                   z: complex, tol: float = 1e-12) -> complex:
    """z1 -> z2 limit of :func:`cov_m` via the closed-form diagonal kernels."""
    if len(pis) != 4:
        raise ConfigError("cov_m_diagonal needs exactly four projection vectors")
    sol = solve_lsd_point(c, h1, h2, z, tol=tol)
    der = derivatives(sol, c, h1, h2)
    zz = sol.z
    h1_diag = c * der.zg2_p * der.g2p / (zz ** 2 * der.zmu_p)
    h2_diag = c * der.g2p ** 2 * der.mu_over_g2_p / der.g1p
    eig = _sigma_eig(sigma)
    g2 = sol.g2
    r14 = r_functionals(eig, g2, pis[0], pis[3]).r_one_point
    r23 = r_functionals(eig, g2, pis[1], pis[2]).r_one_point
    r13 = r_functionals(eig, g2, pis[0], pis[2]).r_one_point
    r24 = r_functionals(eig, g2, pis[1], pis[3]).r_one_point
    r12 = r_functionals(eig, g2, pis[0], pis[1]).r_one_point
    r34 = r_functionals(eig, g2, pis[2], pis[3]).r_one_point
    return h1_diag * (r14 * r23 + r13 * r24) + h2_diag * r12 * r34


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


def default_contour(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                    spikes: tuple[float, ...] = (), v0: float = 0.5,
                    separation: float = 0.05) -> ContourSpec:
    """Rectangle strictly enclosing the bulk bracket and all spike locations.

    The left side stays strictly positive whenever the support bracket
    allows it (the kernels carry z = 0 structure that must remain outside
    the contour for c < 1), and the separation is shrunk if needed so the
    inset inner contour still encloses the bracket.
    """
    lo0, hi0 = outer_support_bracket(c, h1, h2)
    from .spikes import transition
    hi = max([hi0] + [transition(c, h1, h2, alpha)[0] for alpha in spikes])
    x_right = 1.2 * hi
    if lo0 <= 1e-12:
        x_left = -0.1 * hi
        sep = min(separation, 0.05 * hi, v0 / 3)
    else:
        # inner left edge x_left + sep must stay below the bracket lo0
        x_left = 0.4 * lo0
        sep = min(separation, 0.3 * lo0, v0 / 3)
    return ContourSpec(x_left=x_left, x_right=x_right, v0=v0, separation=sep)


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


def _solve_contour(c, h1, h2, nodes, tol):
    """Solutions and derivatives at every node, in one batched solve."""
    sol = solve_lsd_point(c, h1, h2, nodes, tol=tol)
    der = derivatives(sol, c, h1, h2)
    return sol.g1, sol.g2, sol.m_under, der.g1p, der.g2p, der.m_under_p


def _on_nodes(zeta, nodes: np.ndarray) -> np.ndarray:
    """zeta evaluated on the node array at once (zeta must broadcast)."""
    return np.broadcast_to(np.asarray(zeta(nodes), dtype=np.complex128), nodes.shape)


def _varpi_matrix(c, vals1, vals2, z1, z2, evals, weights_pi):
    """varpi(z1, z2) = 2 h1 r11(z1,z2)^2 + h2 r11(z1) r11(z2) on a node grid."""
    g1_1, g2_1, mu_1, _, g2p_1, _ = vals1
    g1_2, g2_2, mu_2, _, g2p_2, _ = vals2
    z1c = z1[:, None]
    z2c = z2[None, :]
    a1 = g1_1[:, None]
    a2 = g1_2[None, :]
    b1 = g2_1[:, None]
    b2 = g2_2[None, :]
    dg1 = a1 - a2
    dg2 = b1 - b2
    num1 = z1c * b1 - z2c * b2
    d = (z1c * a1 - z2c * a2) * num1 / (z1c * z2c * dg1 * dg2)
    h1m = c * num1 / (z1c ** 2 * z2c ** 2 * dg1 * (1.0 - d))
    h2m = c * g2p_1[:, None] * g2p_2[None, :] * (mu_1[:, None] * b2 - mu_2[None, :] * b1) \
        / (b1 * b2 * dg1)
    # r11 cross matrix: sum_j w_j d_j / ((1+g2(z1)d_j)(1+g2(z2)d_j))
    t1 = 1.0 / (1.0 + np.multiply.outer(g2_1, evals))   # (n1, p)
    t2 = 1.0 / (1.0 + np.multiply.outer(g2_2, evals))   # (n2, p)
    wd = weights_pi * evals
    r_cross = (t1 * wd) @ t2.T
    r_one_1 = np.sum(t1 * t1 * wd, axis=1)
    r_one_2 = np.sum(t2 * t2 * wd, axis=1)
    return 2.0 * h1m * r_cross ** 2 + h2m * np.multiply.outer(r_one_1, r_one_2)


def eigvec_stat_cov(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                    pi: np.ndarray, zeta_t, zeta_s,
                    contour: ContourSpec | None = None, quad_n: int = 96,
                    tol: float = 1e-12) -> float:
    """Limit covariance of the eigenvector statistics int zeta d G_n.

    Evaluates -(2 pi i)^{-2} times the double contour integral of
    zeta_t(z1) zeta_s(z2) varpi(z1, z2) over two nested counterclockwise
    rectangles (outer/inner offset by ``separation``), by per-side trapezoid
    quadrature with ``quad_n`` nodes per side.  ``zeta_t`` and ``zeta_s``
    are called once each, on the array of nodes.
    """
    if contour is None:
        contour = default_contour(c, h1, h2)
    outer, inner = contour, contour.inner()
    evals, evecs = _sigma_eig(sigma)
    proj = evecs.T @ np.asarray(pi, dtype=np.float64).ravel()
    wpi = proj ** 2

    nodes1, w1 = _contour_nodes(inner, quad_n)
    nodes2, w2 = _contour_nodes(outer, quad_n)
    vals1 = _solve_contour(c, h1, h2, nodes1, tol)
    vals2 = _solve_contour(c, h1, h2, nodes2, tol)
    varpi = _varpi_matrix(c, vals1, vals2, nodes1, nodes2, evals, wpi)
    integral = np.einsum("i,j,ij->", w1 * _on_nodes(zeta_t, nodes1),
                         w2 * _on_nodes(zeta_s, nodes2), varpi)
    value = integral / (2.0j * np.pi) ** 2
    if abs(value.imag) > 1e-4 * max(1.0, abs(value.real)):
        raise DomainError(
            f"covariance quadrature returned a non-real value {value!r}; "
            "the contour likely clips the support")
    return float(value.real)


def contour_moment(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure, sigma,
                   pi: np.ndarray, zeta, contour: ContourSpec | None = None,
                   quad_n: int = 256, tol: float = 1e-12) -> float:
    """int zeta dF for the anisotropic reference law, by contour quadrature.

    Uses int zeta dF = -(2 pi i)^{-1} oint zeta(z) s(z) dz with
    s(z) = -z^{-1} pi^T (I + g2(z) Sigma)^{-1} pi.  The constant part of
    zeta is split off and integrated exactly (the law has total mass one),
    so a constant zeta returns exactly zeta(0).  ``zeta`` is called on 0.0
    and once on the array of nodes.
    """
    if contour is None:
        contour = default_contour(c, h1, h2)
    evals, evecs = _sigma_eig(sigma)
    proj = evecs.T @ np.asarray(pi, dtype=np.float64).ravel()
    wpi = proj ** 2
    nodes, w = _contour_nodes(contour, quad_n)
    base = complex(zeta(0.0))
    g2 = solve_lsd_point(c, h1, h2, nodes, tol=tol).g2
    s = -np.sum(wpi / (1.0 + g2[:, None] * evals), axis=1) / nodes
    total = np.sum(w * (_on_nodes(zeta, nodes) - base) * s)
    value = base - total / (2.0j * np.pi)
    return float(value.real)


def kernel_grid_csv(c: float, h1: DiscreteMeasure, h2: DiscreteMeasure,
                    z1_list, z2_list, tol: float = 1e-12) -> str:
    """Kernel values on a grid of point pairs as CSV text."""
    lines = ["re_z1,im_z1,re_z2,im_z2,re_h1,im_h1,re_h2,im_h2,re_d,im_d,re_w,im_w"]
    for z1 in z1_list:
        for z2 in z2_list:
            kv = kernels(c, h1, h2, z1, z2, tol=tol)
            row = [z1.real, z1.imag, z2.real, z2.imag,
                   kv.h1.real, kv.h1.imag, kv.h2.real, kv.h2.imag,
                   kv.d.real, kv.d.imag, kv.w.real, kv.w.imag]
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
