"""Normalized sample covariance matrices and their spectral statistics.

The normalized SCM of a sample X is ``S = sqrt(p^2/m_p)/n * G X X^T G^T``
with ``G = U0 D0^{1/2} U0^T`` the symmetric square root of the population
covariance; a Monte Carlo run forms ``G`` once per population and hands it
to every replicate.  Resolvent quantities are evaluated spectrally: one
eigendecomposition per sample, reused across evaluation points.

Replicates that read one spectral quantity run a Lanczos recurrence
(:func:`_lanczos`) instead of a decomposition.  The ``vesd`` replicates take
the Gauss rule of the spectral measure of pi under S from a few steps
(:func:`gauss_rule`), applying S through products with G and X, so neither
S nor a decomposition of it is formed.  The ``spike-dist`` replicates take
lambda_max from a run on S started at the population spike direction
(:func:`top_eigenvalue`), and one Cholesky factorization of
``theta (1 + delta) I - S`` certifies the value found; a run that cannot be
certified raises instead of returning a smaller eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PoleError, _unit_vector
from .sampler import EllipticalSample, build_population

__all__ = [
    "ScmBundle",
    "build_scm",
    "gauss_rule",
    "top_eigenvalue",
    "bilinear_resolvent",
    "spiked_quadform",
]

# top_eigenvalue returns theta only once theta (1 + delta) I - S is positive
# definite, so lambda_max lies in [theta, theta (1 + delta)]
_CERTIFIED_RTOL = 1e-10
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class ScmBundle:
    """Normalized SCM with its eigendecomposition (ascending eigenvalues)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for arr in (self.matrix, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    def top_eigenvectors(self, k: int) -> np.ndarray:
        """Columns: eigenvectors of the k largest eigenvalues, descending."""
        return self.eigenvectors[:, ::-1][:, :k]


def _population_root(population: tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> np.ndarray:
    """Symmetric square root ``U0 D0^{1/2} U0^T`` of a ``(Sigma, U0, D0)``
    population; raises :class:`DomainError` on a negative eigenvalue."""
    _, u0, d0 = population
    if np.any(d0 < 0):
        raise DomainError("population eigenvalues must be nonnegative")
    return (u0 * np.sqrt(d0)) @ u0.T


def _scm_matrix(sample: EllipticalSample, gamma: np.ndarray) -> np.ndarray:
    """The normalized SCM of the sample, given ``gamma = G``."""
    scale = np.sqrt(sample.p ** 2 / sample.law.m_p)
    gx = gamma @ sample.data
    # gx @ gx.T runs as a rank-k update (syrk), which fills one triangle and
    # mirrors it, so S is symmetric bit for bit
    return (scale / sample.n) * (gx @ gx.T)


def build_scm(sample: EllipticalSample,
              population: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
              *, gamma: np.ndarray | None = None) -> ScmBundle:
    """Form and eigendecompose the normalized SCM of one sample.

    ``population`` may carry a precomputed ``(Sigma, U0, D0)`` triple to
    avoid re-realizing the population for every replicate, and ``gamma`` its
    :func:`_population_root`, which is then not formed again.
    """
    if gamma is None:
        if population is None:
            population = build_population(sample.population)
        gamma = _population_root(population)
    s = _scm_matrix(sample, gamma)
    evals, evecs = np.linalg.eigh(s)
    return ScmBundle(matrix=s, eigenvalues=evals, eigenvectors=evecs)


def _lanczos(apply, start: np.ndarray, steps: int):
    """Lanczos recurrence of the symmetric operator ``apply`` from the unit
    vector ``start``, with full reorthogonalization, for at most ``steps``
    steps.

    After step j it yields ``(alpha, beta, b)``: the diagonal and
    off-diagonal of the j-by-j tridiagonal T_j, and the norm b = beta_j that
    couples T_j to the next Lanczos vector.  b is 0.0 where the run ends:
    when the Krylov space closes (b below sqrt(eps) |S v_j|), and at step
    ``steps``, where it is not formed.  The lists grow in place.
    """
    basis = np.empty((steps, start.size))   # the Lanczos vectors, as rows
    basis[0] = start
    alpha, beta = [], []
    for j in range(steps):
        v = basis[j]
        sv = apply(v)
        alpha.append(float(v @ sv))
        if j == steps - 1:
            break
        q = basis[:j + 1]
        r = sv - (q @ sv) @ q
        r -= (q @ r) @ q                   # a second pass restores orthogonality
        b = math.sqrt(r @ r)
        # the moments (T^m)_11 hold each beta only squared, so a beta below
        # sqrt(eps) |S v| moves them at rounding level: the space is invariant
        if b <= _SQRT_EPS * math.sqrt(sv @ sv):
            break
        yield alpha, beta, b
        beta.append(b)
        basis[j + 1] = r / b
    yield alpha, beta, 0.0


def _tridiagonal_eigh(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))


def gauss_rule(sample: EllipticalSample, pi: np.ndarray, k: int, *,
               gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(nodes, weights)`` of the k-node Gauss rule of the spectral measure
    ``sum_i (u_i^T pi)^2 delta_{lambda_i}`` of pi under the normalized SCM.

    k Lanczos steps from pi (:func:`_lanczos`) give a k-by-k tridiagonal T;
    the nodes are its eigenvalues and the weights the squared first
    components of its eigenvectors (Golub-Welsch).  The rule integrates
    every polynomial of degree up to 2k - 1 exactly.  Each product with S is
    applied as ``scale * G (X (X^T (G v)))`` with ``gamma = G``, so neither S
    nor G X nor any p-by-p decomposition is formed.  When the Krylov space of
    pi closes early (pi an eigenvector of S, say), the rule has fewer nodes
    and is exact for every polynomial.
    """
    pi = _unit_vector(pi, "pi", sample.p)
    if k < 1:
        raise ConfigError(f"a Gauss rule needs k >= 1 nodes, got {k}")
    x = sample.data
    scale = np.sqrt(sample.p ** 2 / sample.law.m_p) / sample.n
    for alpha, beta, _ in _lanczos(
            lambda v: scale * (gamma @ (x @ (x.T @ (gamma @ v)))), pi, k):
        pass
    nodes, vecs = _tridiagonal_eigh(alpha, beta)
    return nodes, vecs[0] ** 2


def top_eigenvalue(sample: EllipticalSample, start: np.ndarray, *,
                   gamma: np.ndarray) -> float:
    """Largest eigenvalue of the normalized SCM, certified.

    S is formed as :func:`build_scm` forms it, and a Lanczos run on S from
    the unit vector ``start`` (:func:`_lanczos`) yields the top Ritz value
    theta of T_j.  On a geometric schedule of step counts j, and where the
    run ends, the run checks the residual bound ``beta_j |s_j|`` of the top
    Ritz pair (s its eigenvector of T_j); once the bound is at most
    ``delta theta``, with ``delta = _CERTIFIED_RTOL``, a Cholesky
    factorization of ``theta (1 + delta) I - S`` is tried.  Every Ritz value
    is at most lambda_max, so when the factorization succeeds lambda_max
    lies in ``[theta, theta (1 + delta)]`` and theta is returned.  When the
    Krylov space closes, or reaches dimension p, without that certificate
    (``start`` orthogonal to the top eigenvector, say), the run raises
    :class:`ArithmeticError` rather than return a smaller eigenvalue.
    """
    start = _unit_vector(start, "start", sample.p)
    s = _scm_matrix(sample, gamma)
    check_at = 8
    for alpha, beta, b in _lanczos(lambda v: s @ v, start, sample.p):
        j = len(alpha)
        if b > 0.0 and j < check_at:
            continue
        check_at = j + j // 2
        ritz, vecs = _tridiagonal_eigh(alpha, beta)
        theta = float(ritz[-1])
        if b * abs(vecs[-1, -1]) <= _CERTIFIED_RTOL * theta and _certified(s, theta):
            return theta
    raise ArithmeticError(
        f"Lanczos run from start closed at dimension {len(alpha)} of "
        f"{sample.p} without certifying its top Ritz value {theta!r}")


def _certified(s: np.ndarray, theta: float) -> bool:
    """Whether ``theta (1 + delta) I - S`` is positive definite, by
    Cholesky."""
    a = -s
    a.flat[::s.shape[0] + 1] += theta * (1.0 + _CERTIFIED_RTOL)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def bilinear_resolvent(bundle: ScmBundle, pi1: np.ndarray, pi2: np.ndarray,
                       z: complex) -> complex:
    """pi1^T (S - z)^{-1} pi2 via the stored eigendecomposition.

    Unit-norm projection vectors are required; a real z inside the spectrum
    raises :class:`PoleError`.
    """
    z = complex(z)
    pi1 = _unit_vector(pi1, "pi1", bundle.p)
    pi2 = _unit_vector(pi2, "pi2", bundle.p)
    if z.imag == 0.0:
        gap = float(np.min(np.abs(bundle.eigenvalues - z.real)))
        if gap < 1e-12 * max(1.0, float(np.max(np.abs(bundle.eigenvalues)))):
            raise PoleError(f"z={z.real} collides with the spectrum (gap {gap:.3e})")
    q1 = bundle.eigenvectors.T @ pi1
    q2 = bundle.eigenvectors.T @ pi2
    return complex(np.sum(q1 * q2 / (bundle.eigenvalues - z)))


def spiked_quadform(sample: EllipticalSample, z: float,
                    population=None) -> np.ndarray:
    """K-by-K matrix U1^T Y (z I - Y^T Sigma_1p Y)^{-1} Y^T U1.

    Sigma_1p is the population with its spike eigenvalues zeroed.  The n-by-n
    inverse is reduced to a (p-K)-dimensional solve via the push-through
    identity, which also certifies z sits above the non-spiked spectrum.
    """
    if population is None:
        population = build_population(sample.population)
    _, u0, d0 = population
    k = sample.population.n_spikes
    if k == 0:
        raise ConfigError("population has no spikes")
    scale4 = (sample.p ** 2 / sample.law.m_p) ** 0.25
    y = (scale4 / np.sqrt(sample.n)) * sample.data
    w = (np.sqrt(d0[k:])[:, None]) * (u0[:, k:].T @ y)  # Lambda_P^{1/2} U2^T Y
    t = y.T @ u0[:, :k]                # n x K
    core = z * np.eye(w.shape[0]) - w @ w.T
    try:
        np.linalg.cholesky(core)
    except np.linalg.LinAlgError:
        raise PoleError(f"z={z} is not above the non-spiked spectrum "
                        "(z I - Lambda_P^{1/2} U2^T Y Y^T U2 Lambda_P^{1/2} "
                        "is not positive definite)") from None
    r = w @ t                          # (p-K) x K
    inner = t.T @ t + r.T @ np.linalg.solve(core, r)
    return inner / z
