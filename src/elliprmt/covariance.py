"""Normalized sample covariance matrices and their spectral statistics.

The normalized SCM of a sample X is ``S = sqrt(p^2/m_p)/n * G X X^T G^T``
with ``G = U0 D0^{1/2} U0^T`` the symmetric square root of the population
covariance.  All resolvent quantities are evaluated spectrally: one
eigendecomposition per sample, reused across evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PoleError
from .sampler import EllipticalSample, build_population

__all__ = [
    "ScmBundle",
    "Vesd",
    "build_scm",
    "bilinear_resolvent",
    "vesd",
    "spiked_quadform",
    "spike_determinant_residual",
]


@dataclass(frozen=True)
class ScmBundle:
    """Normalized SCM with its eigendecomposition (ascending eigenvalues).

    ``eigenvectors`` is None when the bundle was built with
    ``vectors=False``; reading them then raises :class:`ConfigError`.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    normalization: float

    def __post_init__(self):
        for arr in (self.matrix, self.eigenvalues, self.eigenvectors):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    def top_eigenvalues(self, k: int) -> np.ndarray:
        """k largest eigenvalues, descending."""
        return self.eigenvalues[::-1][:k]

    def top_eigenvectors(self, k: int) -> np.ndarray:
        """Columns: eigenvectors of the k largest eigenvalues, descending."""
        return _vectors(self)[:, ::-1][:, :k]


def _vectors(bundle: ScmBundle) -> np.ndarray:
    if bundle.eigenvectors is None:
        raise ConfigError("this SCM bundle was built without eigenvectors "
                          "(build_scm(..., vectors=False))")
    return bundle.eigenvectors


def build_scm(sample: EllipticalSample,
              population: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
              *, vectors: bool = True) -> ScmBundle:
    """Form and eigendecompose the normalized SCM of one sample.

    ``population`` may carry a precomputed ``(Sigma, U0, D0)`` triple to
    avoid re-realizing the population for every replicate.  With
    ``vectors=False`` only the eigenvalues are computed (``eigvalsh``), for
    statistics that never read an eigenvector.
    """
    if population is None:
        population = build_population(sample.population)
    _, u0, d0 = population
    if np.any(d0 < 0):
        raise DomainError("population eigenvalues must be nonnegative")
    gamma = (u0 * np.sqrt(d0)) @ u0.T
    scale = np.sqrt(sample.p ** 2 / sample.law.m_p)
    gx = gamma @ sample.data
    s = (scale / sample.n) * (gx @ gx.T)
    s = 0.5 * (s + s.T)
    if vectors:
        evals, evecs = np.linalg.eigh(s)
    else:
        evals, evecs = np.linalg.eigvalsh(s), None
    return ScmBundle(matrix=s, eigenvalues=evals, eigenvectors=evecs,
                     normalization=float(scale))


def bilinear_resolvent(bundle: ScmBundle, pi1: np.ndarray, pi2: np.ndarray,
                       z: complex) -> complex:
    """pi1^T (S - z)^{-1} pi2 via the stored eigendecomposition.

    Unit-norm projection vectors are required; a real z inside the spectrum
    raises :class:`PoleError`.
    """
    z = complex(z)
    pi1 = np.asarray(pi1, dtype=np.float64).ravel()
    pi2 = np.asarray(pi2, dtype=np.float64).ravel()
    for name, v in (("pi1", pi1), ("pi2", pi2)):
        if v.size != bundle.p:
            raise DomainError(f"{name} has length {v.size}, expected {bundle.p}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise DomainError(f"{name} must have unit norm")
    if z.imag == 0.0:
        gap = float(np.min(np.abs(bundle.eigenvalues - z.real)))
        if gap < 1e-12 * max(1.0, float(np.max(np.abs(bundle.eigenvalues)))):
            raise PoleError(f"z={z.real} collides with the spectrum (gap {gap:.3e})")
    evecs = _vectors(bundle)
    q1 = evecs.T @ pi1
    q2 = evecs.T @ pi2
    return complex(np.sum(q1 * q2 / (bundle.eigenvalues - z)))


@dataclass(frozen=True)
class Vesd:
    """ESD and vector-weighted ESD evaluated on a common grid."""

    grid: np.ndarray
    esd: np.ndarray
    vesd: np.ndarray
    pi: np.ndarray

    def to_csv(self) -> str:
        lines = ["x,esd,vesd"]
        for x, e, v in zip(self.grid, self.esd, self.vesd):
            lines.append(f"{float(x)!r},{float(e)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def vesd(bundle: ScmBundle, pi: np.ndarray, grid: np.ndarray) -> Vesd:
    """Vector empirical spectral distribution: eigenvalue CDF weighted by
    the squared projections of pi onto each eigenvector."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise DomainError("grid must be ascending")
    pi = np.asarray(pi, dtype=np.float64).ravel()
    if abs(np.linalg.norm(pi) - 1.0) > 1e-10:
        raise DomainError("pi must have unit norm")
    q = _vectors(bundle).T @ pi
    w = q ** 2
    idx = np.searchsorted(bundle.eigenvalues, grid, side="right")
    cum_w = np.concatenate([[0.0], np.cumsum(w)])
    esd = idx / bundle.p
    return Vesd(grid=grid, esd=esd.astype(np.float64), vesd=cum_w[idx], pi=pi)


def _spike_parts(sample: EllipticalSample,
                 population: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    if population is None:
        population = build_population(sample.population)
    _, u0, d0 = population
    k = sample.population.n_spikes
    if k == 0:
        raise ConfigError("population has no spikes")
    scale4 = (sample.p ** 2 / sample.law.m_p) ** 0.25
    y = (scale4 / np.sqrt(sample.n)) * sample.data
    u1 = u0[:, :k]
    w = (np.sqrt(d0[k:])[:, None]) * (u0[:, k:].T @ y)  # Lambda_P^{1/2} U2^T Y
    return y, u1, w, np.asarray(sample.population.spikes)


def spiked_quadform(sample: EllipticalSample, z: float,
                    population=None) -> np.ndarray:
    """K-by-K matrix U1^T Y (z I - Y^T Sigma_1p Y)^{-1} Y^T U1.

    Sigma_1p is the population with its spike eigenvalues zeroed.  The n-by-n
    inverse is reduced to a (p-K)-dimensional solve via the push-through
    identity, which also certifies z sits above the non-spiked spectrum.
    """
    y, u1, w, _ = _spike_parts(sample, population)
    t = y.T @ u1                       # n x K
    core = z * np.eye(w.shape[0]) - w @ w.T
    core_evals = np.linalg.eigvalsh(core)
    if core_evals.min() <= 0:
        raise PoleError(
            f"z={z} is not above the non-spiked spectrum "
            f"(min shift {core_evals.min():.3e})")
    r = w @ t                          # (p-K) x K
    inner = t.T @ t + r.T @ np.linalg.solve(core, r)
    return inner / z


def spike_determinant_residual(sample: EllipticalSample, lam: float,
                               population=None) -> float:
    """|det(Lambda_S^{-1} - U1^T Y (lam I - Y^T Sigma_1p Y)^{-1} Y^T U1)|.

    Vanishes exactly when lam is a spiked sample eigenvalue of the
    normalized SCM built from the same sample.
    """
    _, _, _, spikes = _spike_parts(sample, population)
    q = spiked_quadform(sample, float(lam), population=population)
    return float(abs(np.linalg.det(np.diag(1.0 / spikes) - q)))
