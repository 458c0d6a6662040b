"""Spiked population construction and elliptical sampling.

The population covariance is ``Sigma = U0 D0 U0^T`` where ``U0`` is the
eigenbasis of the Toeplitz matrix with entries ``rho^|i-j|`` and ``D0``
holds the spike eigenvalues followed by the bulk.  Samples are columns
``x_j = rho_j * u_j`` with ``u_j`` uniform on the unit sphere (generated by
normalizing iid standard Gaussian vectors, which is exactly uniform) and
``rho_j`` iid from a :class:`~elliprmt.measures.RadiusLaw`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .measures import DiscreteMeasure, RadiusLaw

__all__ = [
    "PopulationSpec",
    "EllipticalSample",
    "build_population",
    "draw_sample",
    "quadform_moment_oracle",
    "replicate_seed",
    "nonspiked_spectrum_measure",
]


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a spiked population covariance.

    ``bulk`` is either the string ``"uniform"`` (p-K iid U(0,1) draws, which
    then requires ``bulk_seed``) or an explicit sequence of p-K eigenvalues.
    Spikes must be strictly descending and exceed the realized bulk maximum
    by the declared relative separation.
    """

    p: int
    spikes: tuple[float, ...] = ()
    bulk: str | tuple[float, ...] = "uniform"
    bulk_seed: int | None = None
    toeplitz_rho: float = 0.9
    separation: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "spikes", tuple(float(a) for a in self.spikes))
        if not isinstance(self.bulk, str):
            object.__setattr__(self, "bulk", tuple(float(b) for b in self.bulk))
        if self.p < 1:
            raise ConfigError("population dimension p must be >= 1")
        if not -1.0 < self.toeplitz_rho < 1.0:
            raise ConfigError("toeplitz_rho must lie in (-1, 1)")
        if self.separation <= 0:
            raise ConfigError("separation must be positive")
        if any(not np.isfinite(a) for a in self.spikes):
            raise ConfigError("spike eigenvalues must be finite")
        if any(a <= b for a, b in zip(self.spikes, self.spikes[1:])):
            raise ConfigError("spikes must be strictly descending")
        if isinstance(self.bulk, str):
            if self.bulk != "uniform":
                raise ConfigError(f"unknown bulk rule {self.bulk!r}")
            if self.bulk_seed is None:
                raise ConfigError("bulk rule 'uniform' requires bulk_seed")
        else:
            if len(self.bulk) != self.p - len(self.spikes):
                raise ConfigError(
                    f"explicit bulk needs {self.p - len(self.spikes)} values, "
                    f"got {len(self.bulk)}")
            if any(b < 0 or not np.isfinite(b) for b in self.bulk):
                raise ConfigError("bulk eigenvalues must be finite and nonnegative")

    @property
    def n_spikes(self) -> int:
        return len(self.spikes)

    def bulk_values(self) -> np.ndarray:
        if isinstance(self.bulk, str):
            rng = np.random.default_rng([int(self.bulk_seed), 0])
            return rng.uniform(0.0, 1.0, size=self.p - self.n_spikes)
        return np.asarray(self.bulk, dtype=np.float64)


def build_population(spec: PopulationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realize (Sigma, U0, D0) from a population spec.

    U0 columns are the Toeplitz eigenvectors ordered by descending Toeplitz
    eigenvalue; D0 lists the spikes (descending) followed by the bulk draws.
    """
    p = spec.p
    idx = np.arange(p)
    base = (spec.toeplitz_rho ** idx)[np.abs(idx[:, None] - idx[None, :])]
    tvals, tvecs = np.linalg.eigh(base)
    order = np.argsort(-tvals, kind="stable")  # descending, stable under ties
    u0 = tvecs[:, order]
    ortho_resid = float(np.linalg.norm(u0.T @ u0 - np.eye(p)))
    if ortho_resid > 1e-8:
        raise ArithmeticError(
            f"Toeplitz eigenbasis not orthogonal (residual {ortho_resid:.3e})")
    bulk = spec.bulk_values()
    if spec.n_spikes and bulk.size:
        bulk_top = float(bulk.max())
        floor = bulk_top * (1.0 + spec.separation)
        if min(spec.spikes) <= floor:
            raise ConfigError(
                f"smallest spike {min(spec.spikes)} must exceed bulk max "
                f"{bulk_top} by relative separation {spec.separation}")
    d0 = np.concatenate([np.asarray(spec.spikes, dtype=np.float64), bulk])
    sigma = (u0 * d0) @ u0.T
    sigma = 0.5 * (sigma + sigma.T)
    cond = float(d0.max() / max(d0.min(), np.finfo(float).tiny)) if d0.min() > 0 else np.inf
    if cond > 1e8:
        warnings.warn(f"population covariance is near-singular (cond ~ {cond:.2e})",
                      RuntimeWarning, stacklevel=2)
    return sigma, u0, d0


def nonspiked_spectrum_measure(spec: PopulationSpec) -> DiscreteMeasure:
    """ESD of the population with spike eigenvalues replaced by zeros.

    This is the spectral input used by the spike-location theory: all p
    eigenvalues enter with weight 1/p, the spiked ones as exact zeros.
    """
    d0 = np.concatenate([np.zeros(spec.n_spikes), spec.bulk_values()])
    return DiscreteMeasure.from_values(d0)


@dataclass(frozen=True)
class EllipticalSample:
    """One simulated p-by-n dataset together with its radii and provenance."""

    data: np.ndarray
    radii: np.ndarray
    law: RadiusLaw
    population: PopulationSpec

    def __post_init__(self):
        self.data.setflags(write=False)
        self.radii.setflags(write=False)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def _sample_sq_radii(law: RadiusLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    if law.kind == "deterministic":
        return np.full(n, float(law.p))
    if law.kind == "two-point":
        s = np.sqrt(law.nu_p)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return law.p + signs * s
    if law.kind == "chi-square":
        return rng.chisquare(df=law.p, size=n)
    shape = law.p ** 2 / law.nu_p
    scale = law.nu_p / law.p
    return rng.gamma(shape=shape, scale=scale, size=n)


def draw_sample(spec: PopulationSpec, law: RadiusLaw, n: int, seed: int) -> EllipticalSample:
    """Draw one reproducible p-by-n elliptical sample (columns rho_j u_j).

    The radii are drawn first, then the Gaussian direction block, as a fixed
    stream order so a given seed yields a bit-identical sample regardless of
    the caller's threading.
    """
    if n < 1:
        raise ConfigError("sample size n must be >= 1")
    if law.p != spec.p:
        raise ConfigError(f"radius law dimension {law.p} != population dimension {spec.p}")
    rng = np.random.default_rng(int(seed))
    sq_radii = _sample_sq_radii(law, n, rng)
    directions = rng.standard_normal((spec.p, n))
    directions /= np.linalg.norm(directions, axis=0)
    data = directions * np.sqrt(sq_radii)
    return EllipticalSample(data=data, radii=np.sqrt(sq_radii), law=law,
                            population=spec)


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Derive a disjoint 64-bit substream seed for one replicate."""
    ss = np.random.SeedSequence(entropy=[int(master_seed), 1, int(replicate)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def quadform_moment_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Cov(u^T A u, u^T B u) for u uniform on the unit sphere.

    Closed form: [tr(A B^T) + tr(A B)] / (p (p+2)) - 2 tr(A) tr(B) / (p^2 (p+2)).
    Used as the independent oracle when validating the direction sampler.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("A must be square")
    if b.shape != a.shape:
        raise DomainError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    p = a.shape[0]
    tr_abt = float(np.tensordot(a, b, axes=2))        # tr(A B^T)
    tr_ab = float(np.tensordot(a, b.T, axes=2))       # tr(A B)
    return (tr_abt + tr_ab) / (p * (p + 2)) - 2.0 * np.trace(a) * np.trace(b) / (p ** 2 * (p + 2))
