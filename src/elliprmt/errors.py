"""Exception hierarchy shared across the package, and the unit-vector
check that every projection vector pi passes.

The CLI maps these onto exit codes: configuration / usage problems exit 1,
numerical non-convergence exits 2, a spike below its detectability
threshold exits 3.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ElliprmtError",
    "ConfigError",
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "SubcriticalSpikeError",
]


class ElliprmtError(Exception):
    """Base class for all package errors."""


class ConfigError(ElliprmtError):
    """Invalid configuration, measure file, or argument combination."""


class DomainError(ElliprmtError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or numerically on top of) a pole."""


class ConvergenceError(ElliprmtError):
    """Iterative scheme failed to reach its tolerance; ``index`` is the
    position of the first failed node of a batched solve, when known."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None, index: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.index = index


class SubcriticalSpikeError(ElliprmtError):
    """Population spike not above its detectability threshold ``threshold``."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


def _unit_vector(v, name: str = "pi", p: int | None = None) -> np.ndarray:
    """v as a flat float64 array; :class:`DomainError` unless its norm is 1
    within 1e-10 and, when p is given, it has p entries."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise DomainError(f"{name} must have unit norm")
    if p is not None and v.size != p:
        raise DomainError(f"{name} has length {v.size}, expected {p}")
    return v
