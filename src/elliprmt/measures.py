"""Finite discrete measures and radius-square laws.

Two input laws drive every limit formula in this package: the population
spectral law (the weak limit of the covariance eigenvalue distribution) and
the law of the normalized squared radius ``rho^2 / sqrt(m_p)`` with
``m_p = nu_p + p^2``.  Both are represented here as finite discrete
measures; continuous radius laws are discretized on an equal-probability
quantile grid before they reach the solver.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "DiscreteMeasure",
    "RadiusLaw",
    "RADIUS_KINDS",
    "radius_law_to_h2",
]

_WEIGHT_TOL = 1e-12
QUANTILE_ATOMS = 512


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms.

    Atoms are stored sorted ascending with exact duplicates merged; weights
    are nonnegative and sum to one within 1e-12.  Instances are immutable
    and safe to share between threads.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if atoms.shape != weights.shape:
            raise ConfigError("atoms and weights must have the same length")
        if atoms.size == 0:
            raise ConfigError("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ConfigError("atoms must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < -_WEIGHT_TOL):
            raise ConfigError("weights must be finite and nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ConfigError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")
        order = np.argsort(atoms, kind="stable")
        atoms, weights = atoms[order], weights[order]
        uniq, inverse = np.unique(atoms, return_inverse=True)
        if uniq.size != atoms.size:
            merged = np.zeros_like(uniq)
            np.add.at(merged, inverse, weights)
            atoms, weights = uniq, merged
        weights = np.clip(weights, 0.0, None)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    # -- constructors -------------------------------------------------

    @classmethod
    def point_mass(cls, x: float) -> "DiscreteMeasure":
        return cls(np.array([float(x)]), np.array([1.0]))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "DiscreteMeasure":
        """Equal-weight measure on a list of values (e.g. an eigenvalue ESD)."""
        vals = np.asarray(list(values), dtype=np.float64)
        if vals.size == 0:
            raise ConfigError("empty value list")
        return cls(vals, np.full(vals.size, 1.0 / vals.size))

    # -- queries -------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return float(self.atoms[0]), float(self.atoms[-1])

    def is_point_mass_at(self, x: float, tol: float = 0.0) -> bool:
        return self.atoms.size == 1 and abs(float(self.atoms[0]) - x) <= tol

    # -- CSV round trip (`atom,weight`, header required) ---------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["atom", "weight"])
        for a, w in zip(self.atoms, self.weights):
            writer.writerow([repr(float(a)), repr(float(w))])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path) -> "DiscreteMeasure":
        """Read the measure from the CSV file at ``path``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read measure file {path}: {exc}") from exc
        if not rows or [c.strip() for c in rows[0]] != ["atom", "weight"]:
            raise ConfigError("measure CSV must start with header 'atom,weight' (line 1)")
        atoms, weights = [], []
        for i, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"measure CSV line {i}: expected 2 columns, got {len(row)}")
            try:
                atoms.append(float(row[0]))
                weights.append(float(row[1]))
            except ValueError as exc:
                raise ConfigError(f"measure CSV line {i}: {exc}") from exc
        if not atoms:
            raise ConfigError("measure CSV has no data rows")
        return cls(np.array(atoms), np.array(weights))


RADIUS_KINDS = ("deterministic", "two-point", "chi-square", "gamma")


@dataclass(frozen=True)
class RadiusLaw:
    """Law of the squared radius rho^2 with E(rho^2) = p and Var(rho^2) = nu_p.

    Kinds
    -----
    deterministic : rho^2 = p almost surely (forces nu_p = 0).
    two-point     : rho^2 in {p - sqrt(nu_p), p + sqrt(nu_p)}, equal weights.
                    Exact first two moments and bounded support; the default
                    used throughout the simulations.
    chi-square    : rho^2 ~ chi^2(p), the Gaussian-vector case (forces
                    nu_p = 2p).
    gamma         : rho^2 ~ Gamma(shape=p^2/nu_p, scale=nu_p/p).  Matches the
                    moments but has unbounded support, so it is flagged
                    non-conforming in experiment metadata.
    """

    kind: str
    p: int
    nu_p: float

    def __post_init__(self):
        if self.kind not in RADIUS_KINDS:
            raise ConfigError(f"unknown radius law kind {self.kind!r}")
        if self.p < 1:
            raise ConfigError("p must be a positive integer")
        if not np.isfinite(self.nu_p) or self.nu_p < 0:
            raise ConfigError("nu_p must be a nonnegative real")
        if self.kind == "deterministic" and self.nu_p != 0:
            raise ConfigError("deterministic radius law requires nu_p = 0")
        if self.kind == "two-point" and np.sqrt(self.nu_p) > self.p + 1e-9:
            raise ConfigError(
                f"two-point law needs sqrt(nu_p) <= p (atoms p +- sqrt(nu_p) "
                f"must stay nonnegative); got sqrt({self.nu_p}) > {self.p}")
        if self.kind == "chi-square" and abs(self.nu_p - 2 * self.p) > 1e-9:
            raise ConfigError(f"chi-square radius law forces nu_p = 2p = {2 * self.p}")
        if self.kind == "gamma" and self.nu_p <= 0:
            raise ConfigError("gamma radius law requires nu_p > 0")

    @property
    def m_p(self) -> float:
        """Second moment of rho^2, i.e. nu_p + p^2."""
        return self.nu_p + float(self.p) ** 2

    @property
    def bounded_support(self) -> bool:
        """False for the gamma kind, whose support is unbounded."""
        return self.kind != "gamma"


def _quantile_atoms(law: RadiusLaw, n_atoms: int) -> np.ndarray:
    # The gamma and chi2 ppf. Imported here, so that only these two laws
    # load scipy and `import elliprmt` needs numpy alone.
    from scipy.special import gammaincinv
    probs = (np.arange(n_atoms) + 0.5) / n_atoms
    if law.kind == "chi-square":
        return 2 * gammaincinv(law.p / 2, probs)
    return gammaincinv(law.p ** 2 / law.nu_p, probs) * (law.nu_p / law.p)


def radius_law_to_h2(law: RadiusLaw, n_atoms: int = QUANTILE_ATOMS) -> DiscreteMeasure:
    """Law of rho^2 / sqrt(m_p): the second input measure of the solver.

    Exact for the deterministic and two-point kinds.  Continuous kinds are
    discretized on ``n_atoms`` equal-probability quantile midpoints, whose
    equal weights are then reweighted by a quadratic tilt so the grid
    integrates y and y^2 to the exact analytic values; the atoms stay put.
    Raises :class:`DomainError` when no positive tilt exists.  With the
    default 512 atoms that happens for a gamma law with nu_p above about
    178 p^2, whose tail beyond the last quantile atom holds more of the
    second moment than a positive reweighting of the grid can recover.
    """
    scale = 1.0 / np.sqrt(law.m_p)
    if law.kind == "deterministic":
        return DiscreteMeasure.point_mass(law.p * scale)
    if law.kind == "two-point":
        s = np.sqrt(law.nu_p)
        return DiscreteMeasure(
            np.array([(law.p - s) * scale, (law.p + s) * scale]),
            np.array([0.5, 0.5]))

    atoms = _quantile_atoms(law, n_atoms) * scale
    weights = np.full(n_atoms, 1.0 / n_atoms)
    target = np.array([1.0, law.p * scale, 1.0])
    mom = np.array([np.sum(weights * atoms ** k) for k in range(5)])
    lhs = np.array([[mom[0], mom[1], mom[2]],
                    [mom[1], mom[2], mom[3]],
                    [mom[2], mom[3], mom[4]]])
    failure = (f"cannot match the moments of the {law.kind} radius law with "
               f"p={law.p}, nu_p={law.nu_p!r} on {n_atoms} quantile atoms")
    try:
        coef = np.linalg.solve(lhs, target - mom[:3])
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"{failure}: singular moment matrix") from exc
    tilted = weights * (1.0 + coef[0] + coef[1] * atoms + coef[2] * atoms ** 2)
    if tilted.min() <= 0:
        raise DomainError(f"{failure}: the quadratic tilt turns negative")
    return DiscreteMeasure(atoms, tilted / tilted.sum())
