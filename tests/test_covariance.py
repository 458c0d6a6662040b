from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliprmt import covariance
from elliprmt.covariance import (ScmBundle, _eigvalsh, _population_root,
                                 bilinear_resolvent, build_scm,
                                 spike_determinant_residual, spiked_quadform, vesd)
from elliprmt.errors import ConfigError, DomainError, PoleError
from elliprmt.lsd import solve_lsd
from elliprmt.measures import DiscreteMeasure, RadiusLaw
from elliprmt.sampler import PopulationSpec, build_population, draw_sample


def _identity_sample(p, n, seed=0, nu=0.0, kind="deterministic"):
    spec = PopulationSpec(p=p, spikes=(), bulk=(1.0,) * p)
    law = RadiusLaw(kind, p=p, nu_p=nu)
    return draw_sample(spec, law, n, seed)


def _spiked_sample(p, n, spikes=(8.0,), seed=0):
    spec = PopulationSpec(p=p, spikes=spikes, bulk="uniform", bulk_seed=99,
                          toeplitz_rho=0.9)
    law = RadiusLaw("deterministic", p=p, nu_p=0.0)
    return draw_sample(spec, law, n, seed), spec


def test_scm_reconstruction_and_normalization():
    sample = _identity_sample(20, 40, seed=1, nu=20.0, kind="two-point")
    bundle = build_scm(sample)
    scale = np.sqrt(20 ** 2 / sample.law.m_p)
    direct = scale / 40 * sample.data @ sample.data.T
    rel = np.linalg.norm(bundle.matrix - direct) / np.linalg.norm(direct)
    assert rel < 1e-9
    assert bundle.normalization == pytest.approx(scale)
    v = bundle.eigenvectors
    assert np.linalg.norm(v.T @ v - np.eye(20)) < 1e-9
    assert np.all(np.diff(bundle.eigenvalues) >= 0)


def test_rank_one_scm():
    sample = _identity_sample(12, 1, seed=2)
    bundle = build_scm(sample)
    assert np.sum(np.abs(bundle.eigenvalues) < 1e-10) == 11


def test_mp_edge_at_square_aspect():
    sample = _identity_sample(400, 400, seed=3)
    bundle = build_scm(sample)
    assert bundle.eigenvalues[-1] < 4.5  # (1+sqrt(1))^2 = 4 plus finite-p slack


def test_spiked_scm_top_eigenvalue_near_prediction():
    # p=50, n=100 spiked model: largest eigenvalue near the mapped location
    sample, spec = _spiked_sample(50, 100, seed=4)
    bundle = build_scm(sample)
    from elliprmt.sampler import nonspiked_spectrum_measure
    from elliprmt.spikes import transition
    h1n = nonspiked_spectrum_measure(spec)
    theta, _ = transition(0.5, h1n, DiscreteMeasure.point_mass(1.0), 8.0)
    assert abs(bundle.eigenvalues[-1] - theta) < 4 * theta / np.sqrt(100)


def test_companion_spectrum_identity():
    sample = _identity_sample(15, 9, seed=5, nu=15.0, kind="two-point")
    bundle = build_scm(sample)
    scale = np.sqrt(15 ** 2 / sample.law.m_p)
    companion = scale / 9 * sample.data.T @ sample.data
    comp_ev = np.linalg.eigvalsh(companion)
    ev = bundle.eigenvalues
    nonzero = ev[np.abs(ev) > 1e-10]
    comp_nonzero = comp_ev[np.abs(comp_ev) > 1e-10]
    assert nonzero.size == comp_nonzero.size
    assert np.allclose(np.sort(nonzero), np.sort(comp_nonzero), atol=1e-8)


@pytest.mark.parametrize("kind,nu", [("two-point", 60.0 ** 2), ("gamma", 60.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenvalue_only_scm_matches_full(kind, nu, seed):
    spec = PopulationSpec(p=60, spikes=(8.0,), bulk="uniform", bulk_seed=99,
                          toeplitz_rho=0.9)
    sample = draw_sample(spec, RadiusLaw(kind, p=60, nu_p=nu), 120, seed)
    full = build_scm(sample)
    only = build_scm(sample, vectors=False)
    assert only.eigenvectors is None
    assert np.array_equal(only.matrix, full.matrix)
    lam1, ref = only.top_eigenvalues(1)[0], full.top_eigenvalues(1)[0]
    assert abs(lam1 - ref) <= 1e-12 * ref
    assert np.all(np.diff(only.eigenvalues) >= 0)


def _symmetric(kind, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((p, p))
    if kind == "identity":
        return np.eye(p)
    if kind == "scm":          # rank-deficient whenever n < p
        n = int(rng.integers(1, 2 * p + 1))
        x = rng.standard_normal((p, n)) * rng.gamma(1.0, size=n)
        s = x @ x.T / n
    else:                      # an indefinite matrix with both triangles set
        s = rng.standard_normal((p, p))
    return 0.5 * (s + s.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["scm", "sym", "zero", "identity"]),
       p=st.integers(1, 260), seed=st.integers(0, 2 ** 32 - 1))
def test_eigvalsh_matches_numpy(kind, p, seed):
    s = _symmetric(kind, p, seed)
    assert np.array_equal(_eigvalsh(s), np.linalg.eigvalsh(s))


def test_eigvalsh_reads_the_lower_triangle_as_numpy_does():
    a = np.random.default_rng(4).standard_normal((9, 9))
    assert np.array_equal(_eigvalsh(a), np.linalg.eigvalsh(a))


def test_eigvalsh_is_bound_where_numpy_bundles_openblas():
    lib = covariance._NUMPY_LINALG
    if getattr(lib, "scipy_openblas_get_num_threads64_", None) is None:
        pytest.skip("numpy does not bundle the ILP64 scipy-openblas")
    assert covariance._DSYEVD is not None


def _outcome(fn, a):
    try:
        return fn(a)
    except np.linalg.LinAlgError:
        return "LinAlgError"


@pytest.mark.parametrize("p", [3, 10, 200])
def test_eigvalsh_error_parity(p):
    nan = np.full((p, p), np.nan)
    assert _outcome(_eigvalsh, nan) == _outcome(np.linalg.eigvalsh, nan) == "LinAlgError"
    # an inf entry gives NaN eigenvalues, or at larger p no convergence:
    # either way the two paths agree
    inf = np.eye(p)
    inf[1, 2] = inf[2, 1] = np.inf
    ours, ref = _outcome(_eigvalsh, inf), _outcome(np.linalg.eigvalsh, inf)
    if p <= 10:
        assert np.isnan(ref).all()
    if isinstance(ref, str):
        assert ours == ref
    else:
        assert np.array_equal(ours, ref, equal_nan=True)


def test_eigvalsh_concurrent_threads_match_serial():
    """Four threads decomposing distinct matrices at once, with the
    workspace query raced too, get exactly the one-thread results."""
    mats = [[_symmetric("scm", 40 + 17 * t + i % 5, 1000 * t + i) for i in range(50)]
            for t in range(4)]
    want = [[np.linalg.eigvalsh(m) for m in row] for row in mats]
    got = [None] * 4

    def work(t):
        got[t] = [_eigvalsh(m) for m in mats[t]]

    covariance._dsyevd_workspace.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for row_got, row_want in zip(got, want):
        assert len(row_got) == 50
        assert all(np.array_equal(a, b) for a, b in zip(row_got, row_want))


def test_eigvalsh_fallback_without_binding(monkeypatch):
    mats = [_symmetric("scm", p, p) for p in (1, 7, 120)]
    bound = [_eigvalsh(m) for m in mats]
    monkeypatch.setattr(covariance, "_DSYEVD", None)
    for m, b in zip(mats, bound):
        out = _eigvalsh(m)
        assert np.array_equal(out, np.linalg.eigvalsh(m))
        assert np.array_equal(out, b)


@pytest.mark.parametrize("vectors", [True, False])
def test_build_scm_with_precomputed_root(vectors):
    sample, spec = _spiked_sample(40, 30, seed=6)
    pop = build_population(spec)
    gamma = _population_root(pop)
    own = build_scm(sample, vectors=vectors)
    given_pop = build_scm(sample, population=pop, vectors=vectors)
    given_root = build_scm(sample, vectors=vectors, gamma=gamma)
    for other in (given_pop, given_root):
        assert np.array_equal(other.matrix, own.matrix)
        assert np.array_equal(other.eigenvalues, own.eigenvalues)
        if vectors:
            assert np.array_equal(other.eigenvectors, own.eigenvectors)
        else:
            assert other.eigenvectors is None


def test_negative_population_eigenvalue_raises():
    sample, spec = _spiked_sample(10, 20, seed=7)
    sigma, u0, d0 = build_population(spec)
    bad = (sigma, u0, np.concatenate([d0[:-1], [-1e-3]]))
    with pytest.raises(DomainError, match="nonnegative"):
        _population_root(bad)
    with pytest.raises(DomainError, match="nonnegative"):
        build_scm(sample, population=bad)


def test_eigenvalue_only_scm_has_no_vectors():
    sample = _identity_sample(10, 20, seed=3)
    bundle = build_scm(sample, vectors=False)
    pi = np.eye(10)[0]
    with pytest.raises(ConfigError, match="without eigenvectors"):
        bundle.top_eigenvectors(1)
    with pytest.raises(ConfigError, match="without eigenvectors"):
        bilinear_resolvent(bundle, pi, pi, 1j)
    with pytest.raises(ConfigError, match="without eigenvectors"):
        vesd(bundle, pi, np.linspace(0.0, 4.0, 5))
    # a bundle assembled by hand may also omit them, and stays read-only
    hand = ScmBundle(matrix=np.eye(3), eigenvalues=np.ones(3), eigenvectors=None,
                     normalization=1.0)
    assert not hand.eigenvalues.flags.writeable
    with pytest.raises(ConfigError):
        hand.top_eigenvectors(1)


def test_zero_matrix_resolvent():
    p = 6
    bundle = ScmBundle(matrix=np.zeros((p, p)), eigenvalues=np.zeros(p),
                       eigenvectors=np.eye(p), normalization=1.0)
    pi = np.full(p, 1 / np.sqrt(p))
    assert abs(bilinear_resolvent(bundle, pi, pi, 1j) - 1j) < 1e-14


def test_eigenvector_resolvent():
    sample = _identity_sample(10, 30, seed=6)
    bundle = build_scm(sample)
    v1 = bundle.eigenvectors[:, 0]
    z = 0.3 + 0.2j
    expect = 1.0 / (bundle.eigenvalues[0] - z)
    assert abs(bilinear_resolvent(bundle, v1, v1, z) - expect) < 1e-12


def test_resolvent_matches_mp_transform():
    sample = _identity_sample(400, 800, seed=7)
    bundle = build_scm(sample)
    pi = np.zeros(400)
    pi[0] = 1.0
    z = 1 + 1j
    d1 = DiscreteMeasure.point_mass(1.0)
    m = solve_lsd(0.5, d1, d1, z).m
    assert abs(bilinear_resolvent(bundle, pi, pi, z) - m) < 0.05


def test_resolvent_validations():
    sample = _identity_sample(8, 16, seed=8)
    bundle = build_scm(sample)
    with pytest.raises(DomainError, match="unit norm"):
        bilinear_resolvent(bundle, np.ones(8), np.ones(8) / np.sqrt(8), 1j)
    with pytest.raises(PoleError):
        bilinear_resolvent(bundle, np.eye(8)[0], np.eye(8)[0],
                           complex(bundle.eigenvalues[3]))


def test_trace_identity_with_esd_transform():
    sample = _identity_sample(30, 60, seed=9)
    bundle = build_scm(sample)
    z = 0.9 + 0.7j
    total = sum(bilinear_resolvent(bundle, np.eye(30)[k], np.eye(30)[k], z)
                for k in range(30)) / 30
    esd_transform = np.mean(1.0 / (bundle.eigenvalues - z))
    assert abs(total - esd_transform) < 1e-10


def test_positive_imaginary_part_for_diagonal_forms():
    sample = _identity_sample(20, 40, seed=10)
    bundle = build_scm(sample)
    rng = np.random.default_rng(0)
    pi = rng.standard_normal(20)
    pi /= np.linalg.norm(pi)
    val = bilinear_resolvent(bundle, pi, pi, 0.5 + 0.3j)
    assert val.imag > 0


# --- VESD --------------------------------------------------------------------

def test_vesd_mass_and_monotone():
    sample = _identity_sample(25, 50, seed=11)
    bundle = build_scm(sample)
    rng = np.random.default_rng(1)
    pi = rng.standard_normal(25)
    pi /= np.linalg.norm(pi)
    grid = np.linspace(0, 5, 80)
    out = vesd(bundle, pi, grid)
    assert abs(out.vesd[-1] - 1.0) < 1e-10
    assert abs(out.esd[-1] - 1.0) < 1e-12
    assert np.all(np.diff(out.vesd) >= -1e-15)
    assert np.all(np.diff(out.esd) >= 0)


def test_vesd_single_eigenvector_is_step():
    sample = _identity_sample(12, 24, seed=12)
    bundle = build_scm(sample)
    k = 5
    lam = bundle.eigenvalues[k]
    grid = np.array([lam - 1e-6, lam + 1e-6, 10.0])
    out = vesd(bundle, bundle.eigenvectors[:, k], grid)
    assert out.vesd[0] < 1e-12
    assert abs(out.vesd[1] - 1.0) < 1e-12


def test_vesd_basis_average_is_esd():
    sample = _identity_sample(10, 20, seed=13)
    bundle = build_scm(sample)
    grid = np.linspace(0, 4, 40)
    acc = np.zeros_like(grid)
    for k in range(10):
        acc += vesd(bundle, np.eye(10)[k], grid).vesd
    esd = vesd(bundle, np.eye(10)[0], grid).esd
    assert np.allclose(acc / 10, esd, atol=1e-12)


def test_vesd_haar_like_discrepancy():
    sample = _identity_sample(200, 400, seed=14)
    bundle = build_scm(sample)
    pi = np.zeros(200)
    pi[0] = 1.0
    grid = np.linspace(0, 4, 600)
    out = vesd(bundle, pi, grid)
    assert np.max(np.abs(out.vesd - out.esd)) < 0.15


def test_vesd_csv(tmp_path):
    sample = _identity_sample(6, 12, seed=15)
    bundle = build_scm(sample)
    out = vesd(bundle, np.eye(6)[0], np.linspace(0, 4, 5))
    path = tmp_path / "vesd.csv"
    out.write_csv(path)
    assert path.read_text().splitlines()[0] == "x,esd,vesd"


# --- spiked determinant equation ---------------------------------------------

def test_spike_determinant_vanishes_at_sample_spike():
    sample, spec = _spiked_sample(60, 120, seed=16)
    bundle = build_scm(sample)
    lam1 = bundle.eigenvalues[-1]
    assert spike_determinant_residual(sample, lam1) < 1e-6


def test_spike_determinant_far_field():
    sample, _ = _spiked_sample(40, 80, seed=17)
    assert abs(spike_determinant_residual(sample, 1e6) - 1 / 8) < 1e-3


def test_spike_determinant_requires_spikes():
    sample = _identity_sample(10, 20, seed=18)
    with pytest.raises(ConfigError):
        spike_determinant_residual(sample, 5.0)


def test_spiked_quadform_pole_detection():
    sample, _ = _spiked_sample(40, 80, seed=19)
    with pytest.raises(PoleError):
        spiked_quadform(sample, 1e-3)
