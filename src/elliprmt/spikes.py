"""Limit theory for spiked sample eigenvalues and eigenvector overlaps.

A population spike alpha above the detectability threshold sends its sample
eigenvalue to theta = G(alpha), where the location map G is defined
implicitly by g2(G(alpha)) = -1/alpha on the real axis above the bulk.  The
inverse map of ``lsd.solve_lsd_inverse`` gives theta directly from
g2 = -1/alpha as the root of one scalar equation, with g1 and g2 exact; the
threshold is -1/s* with s* the value of g2 at the upper bulk edge.  The
derivatives of that exact solution give G', the spread of the relative
deviation (lambda - theta)/theta and the squared overlap between population
and sample spike eigenvectors.  ``predict_spike`` is the one entry point
for these four quantities; ``goe_covariance_profile`` gives the covariance
of the centered spike matrix at a point above the bulk.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ConfigError, DomainError, SubcriticalSpikeError
from .kernels import _diagonal_kernels, kernels_diagonal
from .lsd import derivatives, solve_lsd_inverse, upper_edge_g2
from .measures import DiscreteMeasure

__all__ = [
    "SpikePrediction",
    "GoeCovarianceProfile",
    "goe_covariance_profile",
    "predict_spike",
]


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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def predict_spike(c: float, h1_nonspiked: DiscreteMeasure, h2: DiscreteMeasure,
                  alpha: float, edge: float | None = None) -> SpikePrediction:
    """theta, G', sigma_Delta^2 and the overlap limit for one spike.

    theta = z(-1/alpha) by the inverse map, and G'(alpha) =
    1/(alpha^2 g2'(theta)) by implicit differentiation.
    ``SubcriticalSpikeError`` unless alpha > max H1 and G' > 0, i.e. alpha
    above the threshold -1/s* of ``upper_edge_g2``; a given ``edge`` only
    adds the guard theta > edge.  H1 is the non-spiked population spectrum
    (spikes zeroed, all p eigenvalues kept).

    sigma_Delta^2, the limit variance of sqrt(n) (lambda - theta)/theta, is
    (2 h1 + h2) / (c g2'^2) with the coincident kernels at t = theta, i.e.
    2 (t g2)' / ((t mu)' g2' t^2) + (mu/g2)' / g1' with mu the companion
    transform; the second term vanishes and the first reduces to
    2/(mu'(theta) theta^2) in the light-tail regime.  The squared overlap
    between population and sample spike eigenvectors tends to
    G'(alpha) / (G(alpha)/alpha).
    """
    if alpha <= 0:
        raise DomainError("spike alpha must be positive")
    if alpha > float(h1_nonspiked.atoms[-1]):
        sol = solve_lsd_inverse(c, h1_nonspiked, h2, -1.0 / alpha)
        der = derivatives(sol, c, h1_nonspiked, h2)
        theta = float(sol.z.real)
        g_prime = float(1.0 / (alpha ** 2 * der.g2p.real))
        if g_prime > 0 and (edge is None or theta > edge):
            k1, k2 = _diagonal_kernels(c, theta, der)
            sdsq = (2.0 * k1 + k2) / (c * der.g2p ** 2)
            return SpikePrediction(alpha=float(alpha), theta=theta, g_prime=g_prime,
                                   sigma_delta_sq=float(sdsq.real),
                                   overlap_sq=float(g_prime / (theta / alpha)),
                                   light_tail=h2.is_point_mass_at(1.0, tol=1e-12))
    threshold = -1.0 / upper_edge_g2(c, h1_nonspiked, h2)
    raise SubcriticalSpikeError(
        f"spike alpha={alpha} is not above the detectability threshold "
        f"{threshold:.6g}; its sample eigenvalue sticks to the bulk", threshold=threshold)


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
