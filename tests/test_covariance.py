from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliprmt import covariance
from elliprmt.covariance import (ScmBundle, _eigvalsh, _population_root,
                                 bilinear_resolvent, build_scm, spiked_quadform)
from elliprmt.errors import ConfigError, DomainError, PoleError
from elliprmt.experiments import _vesd_row
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
    from elliprmt.spikes import predict_spike
    h1n = nonspiked_spectrum_measure(spec)
    theta = predict_spike(0.5, h1n, DiscreteMeasure.point_mass(1.0), 8.0).theta
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
    lam1, ref = only.eigenvalues[-1], full.eigenvalues[-1]
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


@pytest.mark.parametrize("p,n", [(200, 400), (50, 20), (3, 7), (300, 100)])
def test_scm_is_exactly_symmetric(p, n):
    # build_scm does not symmetrize S: it must come out symmetric bit for bit
    # and decompose exactly as its symmetrized copy would
    spec = PopulationSpec(p=p, spikes=(), bulk="uniform", bulk_seed=99,
                          toeplitz_rho=0.9)
    sample = draw_sample(spec, RadiusLaw("two-point", p=p, nu_p=float(p)), n, p + n)
    full = build_scm(sample)
    only = build_scm(sample, vectors=False)
    s = full.matrix
    assert np.array_equal(s, s.T)
    sym = 0.5 * (s + s.T)
    evals, evecs = np.linalg.eigh(sym)
    assert np.array_equal(full.eigenvalues, evals)
    assert np.array_equal(full.eigenvectors, evecs)
    assert np.array_equal(only.eigenvalues, _eigvalsh(sym))


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
    # a bundle assembled by hand may also omit them, and stays read-only
    hand = ScmBundle(matrix=np.eye(3), eigenvalues=np.ones(3), eigenvectors=None)
    assert not hand.eigenvalues.flags.writeable
    with pytest.raises(ConfigError):
        hand.top_eigenvectors(1)


_GAUSS_POPULATIONS = {
    "identity": lambda p: PopulationSpec(p=p, spikes=(), bulk=(1.0,) * p),
    "toeplitz_spike": lambda p: PopulationSpec(p=p, spikes=(8.0,), bulk="uniform",
                                               bulk_seed=99, toeplitz_rho=0.9),
}


@pytest.mark.parametrize("population", sorted(_GAUSS_POPULATIONS))
@pytest.mark.parametrize("kind", ["deterministic", "two-point", "gamma"])
@pytest.mark.parametrize("p,n", [(30, 60), (60, 30)])
def test_gauss_rule_matches_spectral_measure(population, kind, p, n):
    # the 2-node rule integrates x^j exactly for j <= 3 against
    # sum_i (u_i' pi)^2 delta_{lambda_i}, read off the full eigendecomposition
    spec = _GAUSS_POPULATIONS[population](p)
    law = RadiusLaw(kind, p=p, nu_p=0.0 if kind == "deterministic" else float(p * p))
    sample = draw_sample(spec, law, n, p + 3 * n)
    gamma = _population_root(build_population(spec))
    pi = np.random.default_rng(p + n).standard_normal(p)
    pi /= np.linalg.norm(pi)
    nodes, weights = covariance.gauss_rule(sample, pi, 2, gamma=gamma)
    bundle = build_scm(sample, gamma=gamma)
    lam = bundle.eigenvalues
    q = (bundle.eigenvectors.T @ pi) ** 2
    assert nodes.shape == weights.shape == (2,)
    for j in range(4):
        want = float(q @ lam ** j)
        assert abs(float(weights @ nodes ** j) - want) <= 1e-12 * abs(want), j
    assert np.all(weights > 0)
    slack = 1e-12 * lam[-1]
    assert lam[0] - slack <= nodes.min() and nodes.max() <= lam[-1] + slack


def test_gauss_rule_breakdown_gives_the_one_node_rule():
    # with n = 1, S is rank one with eigenvector pi = G x_1 / |G x_1|, so the
    # Lanczos run stops after one step (beta_1 = 0) with the exact rule
    spec = _GAUSS_POPULATIONS["toeplitz_spike"](12)
    sample = draw_sample(spec, RadiusLaw("two-point", p=12, nu_p=144.0), 1, 5)
    gamma = _population_root(build_population(spec))
    pi = gamma @ sample.data[:, 0]
    pi /= np.linalg.norm(pi)
    nodes, weights = covariance.gauss_rule(sample, pi, 2, gamma=gamma)
    top = build_scm(sample, gamma=gamma, vectors=False).eigenvalues[-1]
    assert nodes.shape == weights.shape == (1,)
    assert weights[0] == 1.0
    assert abs(nodes[0] - top) <= 1e-12 * top
    row = _vesd_row(sample, pi, gamma, {"x": 0.0, "x2": 0.0})
    assert np.all(np.isfinite(row))
    assert row[2] == 0.0
    assert abs(row[0] - np.sqrt(12) * top) <= 1e-12 * np.sqrt(12) * top


def test_gauss_rule_validations():
    sample = _identity_sample(10, 20, seed=3)
    gamma = np.eye(10)
    pi = np.eye(10)[0]
    with pytest.raises(DomainError, match="unit norm"):
        covariance.gauss_rule(sample, 2 * pi, 2, gamma=gamma)
    with pytest.raises(DomainError, match="length"):
        covariance.gauss_rule(sample, pi[:9], 2, gamma=gamma)
    with pytest.raises(ConfigError, match="k >= 1"):
        covariance.gauss_rule(sample, pi, 0, gamma=gamma)
    # one node is the mean of the measure, pi' S pi
    nodes, weights = covariance.gauss_rule(sample, pi, 1, gamma=gamma)
    assert np.allclose(nodes, build_scm(sample).matrix[0, 0], rtol=1e-12, atol=0)
    assert weights.tolist() == [1.0]


def test_zero_matrix_resolvent():
    p = 6
    bundle = ScmBundle(matrix=np.zeros((p, p)), eigenvalues=np.zeros(p),
                       eigenvectors=np.eye(p))
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


# --- spiked determinant equation ---------------------------------------------

def _spike_determinant(sample, lam):
    """|det(Lambda_S^{-1} - U1^T Y (lam I - Y^T Sigma_1p Y)^{-1} Y^T U1)|,
    zero exactly when lam is a spiked sample eigenvalue of the SCM."""
    spikes = np.asarray(sample.population.spikes)
    return abs(np.linalg.det(np.diag(1.0 / spikes) - spiked_quadform(sample, lam)))


def test_spike_determinant_vanishes_at_sample_spike():
    sample, spec = _spiked_sample(60, 120, seed=16)
    bundle = build_scm(sample)
    lam1 = bundle.eigenvalues[-1]
    assert _spike_determinant(sample, lam1) < 1e-6


def test_spike_determinant_far_field():
    sample, _ = _spiked_sample(40, 80, seed=17)
    assert abs(_spike_determinant(sample, 1e6) - 1 / 8) < 1e-3


def test_spike_determinant_requires_spikes():
    sample = _identity_sample(10, 20, seed=18)
    with pytest.raises(ConfigError):
        spiked_quadform(sample, 5.0)


def test_spiked_quadform_pole_detection():
    sample, _ = _spiked_sample(40, 80, seed=19)
    with pytest.raises(PoleError):
        spiked_quadform(sample, 1e-3)
