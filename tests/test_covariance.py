from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliprmt import covariance
from elliprmt.covariance import (_population_root, bilinear_resolvent, build_scm,
                                 spiked_quadform, top_eigenvalue)
from elliprmt.errors import ConfigError, DomainError, PoleError
from elliprmt.experiments import _vesd_row
from elliprmt.lsd import solve_lsd
from elliprmt.measures import RADIUS_KINDS, DiscreteMeasure, RadiusLaw
from elliprmt.sampler import (EllipticalSample, PopulationSpec, build_population,
                              draw_sample)


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
    s = build_scm(sample)
    scale = np.sqrt(20 ** 2 / sample.law.m_p)
    direct = scale / 40 * sample.data @ sample.data.T
    rel = np.linalg.norm(s - direct) / np.linalg.norm(direct)
    assert rel < 1e-9
    evals, v = np.linalg.eigh(s)
    assert np.linalg.norm(v.T @ v - np.eye(20)) < 1e-9
    assert np.all(np.diff(evals) >= 0)


def test_rank_one_scm():
    sample = _identity_sample(12, 1, seed=2)
    evals, _ = np.linalg.eigh(build_scm(sample))
    assert np.sum(np.abs(evals) < 1e-10) == 11


def test_mp_edge_at_square_aspect():
    sample = _identity_sample(400, 400, seed=3)
    evals, _ = np.linalg.eigh(build_scm(sample))
    assert evals[-1] < 4.5  # (1+sqrt(1))^2 = 4 plus finite-p slack


def test_spiked_scm_top_eigenvalue_near_prediction():
    # p=50, n=100 spiked model: largest eigenvalue near the mapped location
    sample, spec = _spiked_sample(50, 100, seed=4)
    evals, _ = np.linalg.eigh(build_scm(sample))
    from elliprmt.sampler import nonspiked_spectrum_measure
    from elliprmt.spikes import predict_spike
    h1n = nonspiked_spectrum_measure(spec)
    theta = predict_spike(0.5, h1n, DiscreteMeasure.point_mass(1.0), 8.0).theta
    assert abs(evals[-1] - theta) < 4 * theta / np.sqrt(100)


def test_companion_spectrum_identity():
    sample = _identity_sample(15, 9, seed=5, nu=15.0, kind="two-point")
    ev, _ = np.linalg.eigh(build_scm(sample))
    scale = np.sqrt(15 ** 2 / sample.law.m_p)
    companion = scale / 9 * sample.data.T @ sample.data
    comp_ev = np.linalg.eigvalsh(companion)
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
    pop = build_population(spec)
    lam1 = top_eigenvalue(sample, pop[1][:, 0], gamma=_population_root(pop))
    ref = np.linalg.eigh(build_scm(sample))[0][-1]
    assert abs(lam1 - ref) <= 1e-12 * ref


def _radius_law(kind, p, heavy):
    nu = {"deterministic": 0.0, "two-point": float(p * p) if heavy else float(p),
          "chi-square": 2.0 * p, "gamma": float(p * p) if heavy else float(p)}[kind]
    return RadiusLaw(kind, p=p, nu_p=nu)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.integers(5, 80), ratio=st.floats(0.25, 4.0),
       kind=st.sampled_from(RADIUS_KINDS), heavy=st.booleans(),
       factor=st.sampled_from([0.9, 1.0, 1.1, 4.0]), pair=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_top_eigenvalue_matches_eigvalsh(p, ratio, kind, heavy, factor, pair, seed):
    # a spike, or two 2 % apart, at `factor` times the detectability
    # threshold 1 + sqrt(p/n) of a white bulk, under every radius law
    n = max(1, round(ratio * p))
    alpha = factor * (1.0 + np.sqrt(p / n))
    spikes = (alpha, 0.98 * alpha) if pair else (alpha,)
    spec = PopulationSpec(p=p, spikes=spikes, bulk=(1.0,) * (p - len(spikes)))
    sample = draw_sample(spec, _radius_law(kind, p, heavy), n, seed)
    pop = build_population(spec)
    gamma = _population_root(pop)
    lam1 = top_eigenvalue(sample, pop[1][:, 0], gamma=gamma)
    ref = np.linalg.eigvalsh(build_scm(sample, gamma=gamma))[-1]
    assert abs(lam1 - ref) <= 1e-12 * ref


def _diag_321_sample():
    # with gamma = I the SCM is X X^T / 8 = diag(3, 2, 1) exactly: the rows
    # of X are orthogonal with squared norms 24, 16 and 8, and sqrt(p^2/m_p)
    # is 1 for the deterministic law
    law = RadiusLaw("deterministic", p=3, nu_p=0.0)
    spec = PopulationSpec(p=3, spikes=(), bulk=(1.0,) * 3)
    data = np.array([[2, 2, 2, 2, 2, 2, 0, 0],
                     [0, 0, 0, 0, 0, 0, 4, 0],
                     [2, -2, 0, 0, 0, 0, 0, 0]], dtype=float)
    return EllipticalSample(data=data, radii=np.ones(8), law=law, population=spec)


def test_top_eigenvalue_raises_when_start_misses_the_top():
    # S = diag(3, 2, 1) from e2: the Krylov space closes at span{e2}, whose
    # Ritz value 2 fails the certificate, so the run raises instead of
    # returning lambda_2
    sample = _diag_321_sample()
    assert np.array_equal(build_scm(sample, gamma=np.eye(3)), np.diag([3.0, 2.0, 1.0]))
    with pytest.raises(ArithmeticError, match="without certifying"):
        top_eigenvalue(sample, np.eye(3)[1], gamma=np.eye(3))
    # from e1 it closes at once on the top eigenvalue, which certifies
    assert top_eigenvalue(sample, np.eye(3)[0], gamma=np.eye(3)) == 3.0
    # and from a generic start the full space certifies 3
    start = np.ones(3) / np.sqrt(3)
    assert abs(top_eigenvalue(sample, start, gamma=np.eye(3)) - 3.0) <= 1e-12 * 3.0


def test_top_eigenvalue_validations():
    sample = _identity_sample(10, 20, seed=3)
    e1 = np.eye(10)[0]
    with pytest.raises(DomainError, match="unit norm"):
        top_eigenvalue(sample, 2 * e1, gamma=np.eye(10))
    with pytest.raises(DomainError, match="length"):
        top_eigenvalue(sample, e1[:9], gamma=np.eye(10))


@pytest.mark.parametrize("vectors", [True, False])
def test_build_scm_with_precomputed_root(vectors):
    # the root formed once per population gives the sample's own SCM, bit
    # for bit, so the same eigenpairs; and its top eigenvalue (read without
    # vectors) through top_eigenvalue
    sample, spec = _spiked_sample(40, 30, seed=6)
    pop = build_population(spec)
    gamma = _population_root(pop)
    own = build_scm(sample)
    evals, evecs = np.linalg.eigh(own)
    if not vectors:
        lam1 = top_eigenvalue(sample, pop[1][:, 0], gamma=gamma)
        assert abs(lam1 - evals[-1]) <= 1e-12 * evals[-1]
        return
    given_root = build_scm(sample, gamma=gamma)
    assert np.array_equal(given_root, own)
    other_evals, other_evecs = np.linalg.eigh(given_root)
    assert np.array_equal(other_evals, evals)
    assert np.array_equal(other_evecs, evecs)


@pytest.mark.parametrize("p,n", [(200, 400), (50, 20), (3, 7), (300, 100)])
def test_scm_is_exactly_symmetric(p, n):
    # build_scm does not symmetrize S: it must come out symmetric bit for bit
    # and decompose exactly as its symmetrized copy would
    spec = PopulationSpec(p=p, spikes=(), bulk="uniform", bulk_seed=99,
                          toeplitz_rho=0.9)
    sample = draw_sample(spec, RadiusLaw("two-point", p=p, nu_p=float(p)), n, p + n)
    s = build_scm(sample)
    assert np.array_equal(s, s.T)
    evals, evecs = np.linalg.eigh(s)
    sym_evals, sym_evecs = np.linalg.eigh(0.5 * (s + s.T))
    assert np.array_equal(evals, sym_evals)
    assert np.array_equal(evecs, sym_evecs)


def test_negative_population_eigenvalue_raises():
    sample, spec = _spiked_sample(10, 20, seed=7)
    sigma, u0, d0 = build_population(spec)
    bad = (sigma, u0, np.concatenate([d0[:-1], [-1e-3]]))
    with pytest.raises(DomainError, match="nonnegative"):
        _population_root(bad)


def test_eigenvalue_only_scm_has_no_vectors():
    # the eigenvalue-only path returns lambda_max alone, as a float
    sample = _identity_sample(10, 20, seed=3)
    lam1 = top_eigenvalue(sample, np.eye(10)[0], gamma=np.eye(10))
    assert type(lam1) is float
    ref = np.linalg.eigh(build_scm(sample))[0][-1]
    assert abs(lam1 - ref) <= 1e-12 * ref


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
    lam, vecs = np.linalg.eigh(build_scm(sample, gamma=gamma))
    q = (vecs.T @ pi) ** 2
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
    top = np.linalg.eigh(build_scm(sample, gamma=gamma))[0][-1]
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
    assert np.allclose(nodes, build_scm(sample)[0, 0], rtol=1e-12, atol=0)
    assert weights.tolist() == [1.0]


def test_zero_matrix_resolvent():
    p = 6
    pi = np.full(p, 1 / np.sqrt(p))
    r = bilinear_resolvent(np.zeros((p, p)), pi[:, None], 1j)
    assert r.shape == (1, 1)
    assert abs(r[0, 0] - 1j) < 1e-14


def test_eigenvector_resolvent():
    sample = _identity_sample(10, 30, seed=6)
    s = build_scm(sample)
    evals, evecs = np.linalg.eigh(s)
    v1 = evecs[:, :1]
    z = 0.3 + 0.2j
    expect = 1.0 / (evals[0] - z)
    assert abs(bilinear_resolvent(s, v1, z)[0, 0] - expect) < 1e-12


def test_resolvent_matches_mp_transform():
    sample = _identity_sample(400, 800, seed=7)
    s = build_scm(sample)
    pi = np.zeros((400, 1))
    pi[0] = 1.0
    z = 1 + 1j
    d1 = DiscreteMeasure.point_mass(1.0)
    m = solve_lsd(0.5, d1, d1, z).m
    assert abs(bilinear_resolvent(s, pi, z)[0, 0] - m) < 0.05


def test_resolvent_validations():
    sample = _identity_sample(8, 16, seed=8)
    s = build_scm(sample)
    e1 = np.eye(8)[:, :1]
    with pytest.raises(DomainError, match="unit norm"):
        bilinear_resolvent(s, np.column_stack([np.ones(8), np.ones(8) / np.sqrt(8)]), 1j)
    with pytest.raises(DomainError, match="length"):
        bilinear_resolvent(s, e1[:7], 1j)
    with pytest.raises(DomainError, match="matrix"):
        bilinear_resolvent(s, e1[:, 0], 1j)
    with pytest.raises(PoleError):
        bilinear_resolvent(s, e1, complex(np.linalg.eigh(s)[0][3]))
    # a singular S - z I is a pole too: S = 0 at z = 0
    with pytest.raises(PoleError):
        bilinear_resolvent(np.zeros((8, 8)), e1, 0.0)


def test_resolvent_misses_a_pole_its_vectors_do_not_see():
    # S = diag(3, 2, 1): at z = 2 + 1e-14, e2 sees the pole and e1 and e3
    # do not (at z = 2 itself S - z I is singular, and every Pi raises)
    s = np.diag([3.0, 2.0, 1.0])
    e = np.eye(3)
    z = 2.0 + 1e-14
    with pytest.raises(PoleError, match="collides"):
        bilinear_resolvent(s, e[:, [0, 1]], z)
    r = bilinear_resolvent(s, e[:, [0, 2]], z)
    assert np.allclose(r, np.diag([1.0 / (3.0 - z), 1.0 / (1.0 - z)]), rtol=1e-15, atol=0)


def test_trace_identity_with_esd_transform():
    sample = _identity_sample(30, 60, seed=9)
    s = build_scm(sample)
    z = 0.9 + 0.7j
    total = np.trace(bilinear_resolvent(s, np.eye(30), z)) / 30
    esd_transform = np.mean(1.0 / (np.linalg.eigh(s)[0] - z))
    assert abs(total - esd_transform) < 1e-10


def test_positive_imaginary_part_for_diagonal_forms():
    sample = _identity_sample(20, 40, seed=10)
    s = build_scm(sample)
    rng = np.random.default_rng(0)
    pi = rng.standard_normal(20)
    pi /= np.linalg.norm(pi)
    val = bilinear_resolvent(s, pi[:, None], 0.5 + 0.3j)[0, 0]
    assert val.imag > 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.integers(5, 80), ratio=st.floats(0.25, 4.0),
       kind=st.sampled_from(RADIUS_KINDS), heavy=st.booleans(), k=st.integers(1, 4),
       where=st.sampled_from(["complex", "above", "below"]),
       u=st.floats(-0.5, 1.5), v=st.floats(0.05, 2.0), upper=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_resolvent_matches_eigh_sum(p, ratio, kind, heavy, k, where, u, v,
                                             upper, seed):
    # Pi^T (S - z)^{-1} Pi from one solve equals sum_i q_a q_b / (lambda_i - z)
    # over the full eigendecomposition, off the axis and on the real axis
    # outside [lambda_min, lambda_max], for k random unit vectors
    n = max(1, round(ratio * p))
    spec = PopulationSpec(p=p, spikes=(), bulk="uniform", bulk_seed=99, toeplitz_rho=0.9)
    sample = draw_sample(spec, _radius_law(kind, p, heavy), n, seed)
    s = build_scm(sample)
    lam, vecs = np.linalg.eigh(s)
    width = max(1.0, lam[-1])
    if where == "complex":
        z = complex(lam[0] + u * (lam[-1] - lam[0]), (v if upper else -v) * width)
    elif where == "above":
        z = lam[-1] + v * width
    else:
        z = lam[0] - v * width
    pis = np.random.default_rng(seed).standard_normal((p, k))
    pis /= np.linalg.norm(pis, axis=0)
    q = vecs.T @ pis
    want = (q.T / (lam - z)) @ q
    got = bilinear_resolvent(s, pis, z)
    assert got.shape == (k, k)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- spiked determinant equation ---------------------------------------------

def _spike_determinant(sample, lam):
    """|det(Lambda_S^{-1} - U1^T Y (lam I - Y^T Sigma_1p Y)^{-1} Y^T U1)|,
    zero exactly when lam is a spiked sample eigenvalue of the SCM."""
    spikes = np.asarray(sample.population.spikes)
    return abs(np.linalg.det(np.diag(1.0 / spikes) - spiked_quadform(sample, lam)))


def test_spike_determinant_vanishes_at_sample_spike():
    sample, spec = _spiked_sample(60, 120, seed=16)
    lam1 = np.linalg.eigh(build_scm(sample))[0][-1]
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
