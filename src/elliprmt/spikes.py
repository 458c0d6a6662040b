"""Limit theory for spiked sample eigenvalues and eigenvector overlaps.

A population spike alpha above the detectability threshold sends its sample
eigenvalue to theta = G(alpha), where the location map G is defined
implicitly by g2(G(alpha)) = -1/alpha on the real axis above the bulk.  The
same solver derivatives give the spread of the relative deviation
(lambda - theta)/theta and the squared overlap between population and
sample spike eigenvectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, DomainError, SubcriticalSpikeError
from .kernels import kernels_diagonal
from .lsd import derivatives, find_bulk_edges, solve_lsd_real
from .measures import DiscreteMeasure

__all__ = [
    "SpikePrediction",
    "transition",
    "sigma_delta_sq",
    "overlap_sq",
    "GoeCovarianceProfile",
    "goe_covariance_profile",
    "predict_spike",
]

_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class SpikePrediction:
    """All limit quantities attached to one population spike."""

    alpha: float
    theta: float
    g_prime: float
    sigma_delta_sq: float
    overlap_sq: float
    light_tail: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "g_prime": self.g_prime,
            "sigma_delta_sq": self.sigma_delta_sq,
            "overlap_sq": self.overlap_sq,
            "light_tail": self.light_tail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _upper_edge(c, h1, h2) -> float:
    return find_bulk_edges(c, h1, h2)[1]


def transition(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
               alpha: float, edge: float | None = None) -> tuple[float, float]:
    """Spike location theta and map derivative G'(alpha).

    theta solves g2(theta) = -1/alpha by bracketed root finding above the
    bulk edge; G'(alpha) = 1/(alpha^2 g2'(theta)) by implicit
    differentiation, avoiding finite differences on the root finder.  H1
    here is the non-spiked population spectrum (spikes zeroed, all p
    eigenvalues kept).
    """
    if alpha <= 0:
        raise DomainError("spike alpha must be positive")
    if edge is None:
        edge = _upper_edge(c, h1_nonspiked, h2)
    lo = edge * (1.0 + 1e-6)
    g2_edge = solve_lsd_real(c, h1_nonspiked, h2, lo).g2.real
    if g2_edge + 1.0 / alpha >= 0:
        threshold = -1.0 / g2_edge if g2_edge < 0 else np.inf
        raise SubcriticalSpikeError(
            f"spike alpha={alpha} is below the detectability threshold "
            f"(~{threshold:.6g}); its sample eigenvalue sticks to the bulk",
            threshold=float(threshold))
    hi = edge * 10.0 + alpha * 10.0

    def f(x: float) -> float:
        return solve_lsd_real(c, h1_nonspiked, h2, x).g2.real + 1.0 / alpha

    if f(hi) <= 0:  # pathological; widen until the resolvent decay wins
        while f(hi) <= 0:
            hi *= 4.0
    theta = brentq(f, lo, hi, xtol=_ROOT_TOL, rtol=8.882e-16)
    sol = solve_lsd_real(c, h1_nonspiked, h2, theta)
    der = derivatives(sol, c, h1_nonspiked, h2)
    g2p = der.g2p.real
    g_prime = 1.0 / (alpha ** 2 * g2p)
    if g_prime <= 0:
        raise SubcriticalSpikeError(
            f"location map is not increasing at alpha={alpha} "
            f"(G'={g_prime:.3e}); spike not detectable",
            threshold=float(-1.0 / g2_edge))
    return float(theta), float(g_prime)


def sigma_delta_sq(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
                   alpha: float, edge: float | None = None) -> float:
    """Limit variance of sqrt(n) (lambda - theta)/theta for one spike.

    Evaluates 2 (t g2)' / ((t mu)' g2' t^2) + (mu/g2)' / g1' at t = theta
    with mu the companion transform; the second term vanishes and the first
    reduces to 2/(mu'(theta) theta^2) in the light-tail regime.
    """
    theta, _ = transition(c, h1_nonspiked, h2, alpha, edge=edge)
    return _sigma_delta_sq_at(c, h1_nonspiked, h2, theta)


def _sigma_delta_sq_at(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
                       theta: float) -> float:
    """sigma_Delta^2 at a spike location theta already found by ``transition``."""
    sol = solve_lsd_real(c, h1_nonspiked, h2, theta)
    der = derivatives(sol, c, h1_nonspiked, h2)
    term1 = 2.0 * der.zg2_p / (der.zmu_p * der.g2p * theta ** 2)
    term2 = der.mu_over_g2_p / der.g1p
    return float((term1 + term2).real)


def overlap_sq(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
               alpha: float, edge: float | None = None) -> float:
    """Almost-sure limit of the squared population/sample eigenvector overlap:
    G'(alpha) / (G(alpha)/alpha)."""
    theta, g_prime = transition(c, h1_nonspiked, h2, alpha, edge=edge)
    return float(g_prime / (theta / alpha))


def predict_spike(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
                  alpha: float, edge: float | None = None) -> SpikePrediction:
    """Bundle theta, G', sigma_Delta^2 and the overlap limit for one spike."""
    if edge is None:
        edge = _upper_edge(c, h1_nonspiked, h2)
    theta, g_prime = transition(c, h1_nonspiked, h2, alpha, edge=edge)
    sdsq = _sigma_delta_sq_at(c, h1_nonspiked, h2, theta)
    light = h2.is_point_mass_at(1.0, tol=1e-12)
    return SpikePrediction(alpha=float(alpha), theta=theta, g_prime=g_prime,
                           sigma_delta_sq=sdsq,
                           overlap_sq=float(g_prime / (theta / alpha)),
                           light_tail=bool(light))


@dataclass(frozen=True)
class GoeCovarianceProfile:
    """Covariance accessor for the K x K Gaussian limit of the spike matrix.

    Entry covariances: sigma11_sq on the full diagonal pattern
    (i=j=k=l), sigma12_sq on the two paired patterns (i=k, j=l) or
    (i=l, j=k), zero otherwise.
    """

    k: int
    z: float
    sigma11_sq: float
    sigma12_sq: float

    def cov(self, i: int, j: int, kk: int, ll: int) -> float:
        for idx in (i, j, kk, ll):
            if not 0 <= idx < self.k:
                raise DomainError(f"index {idx} outside 0..{self.k - 1}")
        if i == j == kk == ll:
            return self.sigma11_sq
        if (i == kk and j == ll) or (i == ll and j == kk):
            return self.sigma12_sq
        return 0.0

    def __call__(self, i: int, j: int, kk: int, ll: int) -> float:
        return self.cov(i, j, kk, ll)


def goe_covariance_profile(c: float, h1_nonspiked: DiscreteMeasure,
                           h2: DiscreteMeasure, z: float,
                           k: int) -> GoeCovarianceProfile:
    """GOE covariance profile of the centered spike matrix at real z > edge."""
    if k < 1:
        raise ConfigError("need at least one spike")
    s11, s12 = kernels_diagonal(c, h1_nonspiked, h2, complex(z))
    if abs(s11.imag) > 1e-8 * max(1.0, abs(s11.real)):
        raise DomainError(f"sigma11^2 not real at z={z}: {s11!r}")
    return GoeCovarianceProfile(k=int(k), z=float(z),
                                sigma11_sq=float(s11.real),
                                sigma12_sq=float(s12.real))
