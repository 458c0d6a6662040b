"""Reference values computed apart from the program.

Closed forms for the spiked model, the fixed-point residual evaluated with
plain numpy sums, the sample covariance formed a second way, and the
standard errors used to judge Monte Carlo agreement.  Nothing here imports
the program.
"""

from __future__ import annotations

import numpy as np


def bbp(alpha: float, c: float) -> dict:
    """Light-tail spiked model with identity bulk (Baik-Ben Arous-Peche)."""
    theta = alpha + c * alpha / (alpha - 1.0)
    return {
        "theta": theta,
        "overlap_sq": (1.0 - c / (alpha - 1.0) ** 2) / (1.0 + c / (alpha - 1.0)),
        "sigma_delta_sq": 2.0 * alpha ** 2 * (1.0 - c / (alpha - 1.0) ** 2) / theta ** 2,
        "edge": (1.0 + np.sqrt(c)) ** 2,
    }


def heavy_two_point(alpha: float, c: float) -> dict:
    """Identity bulk with rho^2 in {0, 2p}, i.e. H2 = {0, sqrt 2} at 1/2 each.

    Half the columns vanish, so S = sqrt(2) (n1/n) S1 with n1 ~ Bin(n, 1/2)
    and S1 a light-tail SCM at aspect 2c: locations and the edge scale by
    1/sqrt(2), the overlap is BBP's at 2c, and the binomial n1 adds 1 to the
    variance of the relative deviation, on top of twice BBP's at 2c.
    """
    ref = bbp(alpha, 2.0 * c)
    return {
        "theta": ref["theta"] / np.sqrt(2.0),
        "overlap_sq": ref["overlap_sq"],
        "sigma_delta_sq": 2.0 * ref["sigma_delta_sq"] + 1.0,
        "edge": ref["edge"] / np.sqrt(2.0),
    }


def fixed_point_residual(c, h1_atoms, h1_weights, h2_atoms, h2_weights,
                         theta: float, alpha: float) -> tuple[float, bool]:
    """Residual of the coupled system at z = theta with g2 = -1/alpha.

    g1 follows from the first equation, the second is then evaluated:
    returns |theta g2 + int y/(1 + g1 y) dH2| / |theta g2| and whether
    both denominators stay positive on the supports (the real branch
    continued from above the bulk).
    """
    x = np.asarray(h1_atoms, dtype=float)
    y = np.asarray(h2_atoms, dtype=float)
    g2 = -1.0 / alpha
    d1 = 1.0 + g2 * x
    g1 = -c * float(np.sum(np.asarray(h1_weights) * x / d1)) / theta
    d2 = 1.0 + g1 * y
    resid = theta * g2 + float(np.sum(np.asarray(h2_weights) * y / d2))
    return abs(resid) / abs(theta * g2), bool(d1.min() > 0 and d2.min() > 0)


def scm_top_eigenvalue(data: np.ndarray, sigma: np.ndarray, m_p: float) -> float:
    """Largest eigenvalue of sqrt(p^2/m_p)/n Sigma^{1/2} X X^T Sigma^{1/2}.

    Formed as the n-by-n Gram matrix X^T Sigma X, which has the same
    nonzero spectrum and needs no square root of Sigma.
    """
    p, n = data.shape
    gram = (np.sqrt(p * p / m_p) / n) * (data.T @ sigma @ data)
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])


def scm_quadratic_form(data: np.ndarray, pi: np.ndarray, m_p: float) -> float:
    """pi^T S pi for Sigma = I, straight from the data: no eigenvectors."""
    p, n = data.shape
    return float(np.sqrt(p * p / m_p) / n * np.sum((data.T @ pi) ** 2))


def vesd_stat_x_variance(p: int, n: int, m_p: float) -> float:
    """Exact finite-p variance of sqrt(p) pi^T S pi under Sigma = I.

    With E(pi^T u)^2 = 1/p, E(pi^T u)^4 = 3/(p(p+2)), E rho^2 = p and
    E rho^4 = m_p, the n iid columns give p (p^2/m_p)(3 m_p/(p(p+2)) - 1)/n.
    """
    return p * (p * p / m_p) * (3.0 * m_p / (p * (p + 2.0)) - 1.0) / n


def mean_se(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def variance_se(values: np.ndarray) -> float:
    """Standard error of the sample variance from the sample fourth moment."""
    centred = values - values.mean()
    m2 = float(np.mean(centred ** 2))
    m4 = float(np.mean(centred ** 4))
    return float(np.sqrt(max(m4 - m2 * m2, 0.0) / values.size))
