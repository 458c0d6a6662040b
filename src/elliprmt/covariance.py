"""Normalized sample covariance matrices and their spectral statistics.

The normalized SCM of a sample X is ``S = sqrt(p^2/m_p)/n * G X X^T G^T``
with ``G = U0 D0^{1/2} U0^T`` the symmetric square root of the population
covariance; a Monte Carlo run forms ``G`` once per population and hands it
to every replicate.  Resolvent quantities are evaluated spectrally: one
eigendecomposition per sample, reused across evaluation points.  The
``vesd`` replicates read only the spectral measure of pi under S, so they
take its Gauss rule from a few Lanczos steps (:func:`gauss_rule`), which
applies S through products with G and X and forms neither S nor a
decomposition of it.

Eigenvalue-only decompositions call LAPACK's ``dsyevd`` of the OpenBLAS that
numpy loaded, through ``ctypes``, which releases the interpreter lock for
the call, so worker threads computing them overlap.  numpy's own
``eigvalsh`` holds the lock for the whole call.  The routine, job and
workspace are the ones ``np.linalg.eigvalsh`` uses, so the eigenvalues are
the same bit for bit; without that symbol ``np.linalg.eigvalsh`` runs.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, PoleError, _unit_vector
from .sampler import EllipticalSample, build_population

__all__ = [
    "ScmBundle",
    "build_scm",
    "gauss_rule",
    "bilinear_resolvent",
    "spiked_quadform",
]


def _numpy_linalg_library():
    """numpy's own linalg extension opened with ``ctypes``, or None.

    Symbols looked up in it resolve in the library numpy loaded, not in
    some other copy.
    """
    try:
        from numpy.linalg import _umath_linalg
        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


def _bind_dsyevd(lib):
    """``dsyevd`` of the ILP64 OpenBLAS in numpy-2 wheels, or None."""
    fn = getattr(lib, "scipy_dsyevd_64_", None) if lib is not None else None
    if fn is not None:
        ref, buf = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO, then
        # the Fortran lengths of the two strings
        fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref, buf, ref, buf, buf,
                       ref, buf, ref, ref, ctypes.c_size_t, ctypes.c_size_t]
        fn.restype = None
    return fn


_NUMPY_LINALG = _numpy_linalg_library()
_DSYEVD = _bind_dsyevd(_NUMPY_LINALG)


def _call_dsyevd(a, w, work, iwork, lwork, liwork):
    """Eigenvalue-only ``dsyevd`` on the lower triangle of ``a``, which it
    overwrites; returns LAPACK's ``info``.

    ``a`` is an (n, n) Fortran-ordered float64 array, ``w`` and ``work``
    float64 arrays of at least n and ``lwork`` entries, ``iwork`` an int64
    array of at least ``liwork`` entries (one entry each for a workspace
    query, ``lwork = liwork = -1``).
    """
    n = a.shape[0]
    info = ctypes.c_int64()
    _DSYEVD(b"N", b"L", ctypes.c_int64(n), a.ctypes.data, ctypes.c_int64(max(n, 1)),
            w.ctypes.data, work.ctypes.data, ctypes.c_int64(lwork),
            iwork.ctypes.data, ctypes.c_int64(liwork), ctypes.byref(info), 1, 1)
    return info.value


@functools.cache
def _dsyevd_workspace(n: int) -> tuple[int, int]:
    """``(lwork, liwork)`` that LAPACK's workspace query returns at order n,
    as numpy uses them."""
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int64)
    _call_dsyevd(np.zeros((n, n), order="F"), np.zeros(max(n, 1)), work, iwork,
                 -1, -1)
    return int(work[0]), int(iwork[0])


def _eigvalsh(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix s from its lower
    triangle, equal to ``np.linalg.eigvalsh(s)`` bit for bit.

    Raises ``np.linalg.LinAlgError`` when LAPACK does not converge.
    """
    a = np.asarray(s)
    if (_DSYEVD is None or a.dtype != np.float64 or a.ndim != 2
            or a.shape[0] != a.shape[1]):
        return np.linalg.eigvalsh(s)
    a = np.array(a, order="F")         # dsyevd overwrites its input
    n = a.shape[0]
    lwork, liwork = _dsyevd_workspace(n)
    w = np.empty(n)
    if _call_dsyevd(a, w, np.empty(lwork), np.empty(liwork, dtype=np.int64),
                    lwork, liwork):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


@dataclass(frozen=True)
class ScmBundle:
    """Normalized SCM with its eigendecomposition (ascending eigenvalues).

    ``eigenvectors`` is None when the bundle was built with
    ``vectors=False``; reading them then raises :class:`ConfigError`.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __post_init__(self):
        for arr in (self.matrix, self.eigenvalues, self.eigenvectors):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    def top_eigenvectors(self, k: int) -> np.ndarray:
        """Columns: eigenvectors of the k largest eigenvalues, descending."""
        return _vectors(self)[:, ::-1][:, :k]


def _vectors(bundle: ScmBundle) -> np.ndarray:
    if bundle.eigenvectors is None:
        raise ConfigError("this SCM bundle was built without eigenvectors "
                          "(build_scm(..., vectors=False))")
    return bundle.eigenvectors


def _population_root(population: tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> np.ndarray:
    """Symmetric square root ``U0 D0^{1/2} U0^T`` of a ``(Sigma, U0, D0)``
    population; raises :class:`DomainError` on a negative eigenvalue."""
    _, u0, d0 = population
    if np.any(d0 < 0):
        raise DomainError("population eigenvalues must be nonnegative")
    return (u0 * np.sqrt(d0)) @ u0.T


def build_scm(sample: EllipticalSample,
              population: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
              *, vectors: bool = True, gamma: np.ndarray | None = None) -> ScmBundle:
    """Form and eigendecompose the normalized SCM of one sample.

    ``population`` may carry a precomputed ``(Sigma, U0, D0)`` triple to
    avoid re-realizing the population for every replicate, and ``gamma`` its
    :func:`_population_root`, which is then not formed again.  With
    ``vectors=False`` only the eigenvalues are computed (``eigvalsh``), for
    statistics that never read an eigenvector.
    """
    if gamma is None:
        if population is None:
            population = build_population(sample.population)
        gamma = _population_root(population)
    scale = np.sqrt(sample.p ** 2 / sample.law.m_p)
    gx = gamma @ sample.data
    # gx @ gx.T runs as a rank-k update (syrk), which fills one triangle and
    # mirrors it, so S is symmetric bit for bit
    s = (scale / sample.n) * (gx @ gx.T)
    if vectors:
        evals, evecs = np.linalg.eigh(s)
    else:
        evals, evecs = _eigvalsh(s), None
    return ScmBundle(matrix=s, eigenvalues=evals, eigenvectors=evecs)


def gauss_rule(sample: EllipticalSample, pi: np.ndarray, k: int, *,
               gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(nodes, weights)`` of the k-node Gauss rule of the spectral measure
    ``sum_i (u_i^T pi)^2 delta_{lambda_i}`` of pi under the normalized SCM.

    k Lanczos steps from pi, with full reorthogonalization, give a k-by-k
    tridiagonal T; the nodes are its eigenvalues and the weights the squared
    first components of its eigenvectors (Golub-Welsch).  The rule integrates
    every polynomial of degree up to 2k - 1 exactly.  Each product with S is
    applied as ``scale * G (X (X^T (G v)))`` with ``gamma = G``, so neither S
    nor G X nor any p-by-p decomposition is formed.  When the Krylov space of
    pi closes early (pi an eigenvector of S, say), the rule has fewer nodes
    and is exact for every polynomial.
    """
    pi = _unit_vector(pi, "pi")
    if pi.size != sample.p:
        raise DomainError(f"pi has length {pi.size}, expected {sample.p}")
    if k < 1:
        raise ConfigError(f"a Gauss rule needs k >= 1 nodes, got {k}")
    x = sample.data
    scale = np.sqrt(sample.p ** 2 / sample.law.m_p) / sample.n
    basis = np.empty((k, sample.p))    # the Lanczos vectors, as rows
    basis[0] = pi
    alpha, beta = [], []
    for j in range(k):
        v = basis[j]
        sv = scale * (gamma @ (x @ (x.T @ (gamma @ v))))
        alpha.append(float(v @ sv))
        if j == k - 1:
            break
        q = basis[:j + 1]
        r = sv - (q @ sv) @ q
        r -= (q @ r) @ q                   # a second pass restores orthogonality
        b = float(np.linalg.norm(r))
        # the moments (T^m)_11 hold each beta only squared, so a beta below
        # sqrt(eps) |S v| moves them at rounding level: the space is invariant
        if b <= np.sqrt(np.finfo(float).eps) * np.linalg.norm(sv):
            break
        beta.append(b)
        basis[j + 1] = r / b
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(t)
    return nodes, vecs[0] ** 2


def bilinear_resolvent(bundle: ScmBundle, pi1: np.ndarray, pi2: np.ndarray,
                       z: complex) -> complex:
    """pi1^T (S - z)^{-1} pi2 via the stored eigendecomposition.

    Unit-norm projection vectors are required; a real z inside the spectrum
    raises :class:`PoleError`.
    """
    z = complex(z)
    pi1, pi2 = _unit_vector(pi1, "pi1"), _unit_vector(pi2, "pi2")
    for name, v in (("pi1", pi1), ("pi2", pi2)):
        if v.size != bundle.p:
            raise DomainError(f"{name} has length {v.size}, expected {bundle.p}")
    if z.imag == 0.0:
        gap = float(np.min(np.abs(bundle.eigenvalues - z.real)))
        if gap < 1e-12 * max(1.0, float(np.max(np.abs(bundle.eigenvalues)))):
            raise PoleError(f"z={z.real} collides with the spectrum (gap {gap:.3e})")
    evecs = _vectors(bundle)
    q1 = evecs.T @ pi1
    q2 = evecs.T @ pi2
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
    core_evals = _eigvalsh(core)
    if core_evals.min() <= 0:
        raise PoleError(
            f"z={z} is not above the non-spiked spectrum "
            f"(min shift {core_evals.min():.3e})")
    r = w @ t                          # (p-K) x K
    inner = t.T @ t + r.T @ np.linalg.solve(core, r)
    return inner / z
