from __future__ import annotations

import numpy as np
import pytest

from elliprmt.errors import ConfigError, DomainError
from elliprmt.measures import RadiusLaw
from elliprmt.sampler import (PopulationSpec, build_population, draw_sample,
                              nonspiked_spectrum_measure, quadform_moment_oracle,
                              replicate_seed)


def test_identity_population():
    spec = PopulationSpec(p=3, spikes=(), bulk=(1.0, 1.0, 1.0), toeplitz_rho=0.5)
    sigma, u0, d0 = build_population(spec)
    assert np.allclose(sigma, np.eye(3), atol=1e-12)
    assert np.allclose(d0, 1.0)


def test_zero_toeplitz_rho_gives_identity_basis():
    spec = PopulationSpec(p=4, spikes=(), bulk=(0.5, 0.5, 0.5, 0.5), toeplitz_rho=0.0)
    _, u0, _ = build_population(spec)
    assert np.allclose(np.abs(u0), np.eye(4), atol=1e-12)


def test_spiked_population_top_eigenvalue():
    spec = PopulationSpec(p=50, spikes=(8.0,), bulk="uniform", bulk_seed=7,
                          toeplitz_rho=0.9)
    sigma, u0, d0 = build_population(spec)
    evals = np.linalg.eigvalsh(sigma)
    assert abs(evals[-1] - 8.0) < 1e-10
    assert np.linalg.norm(u0.T @ u0 - np.eye(50)) < 1e-10
    assert d0[0] == 8.0


@pytest.mark.parametrize("rho", [0.9, 0.5, 0.0, -0.3])
@pytest.mark.parametrize("p", [1, 3, 200])
def test_toeplitz_base_matches_scipy(rho, p, monkeypatch):
    from scipy.linalg import toeplitz
    eigh = np.linalg.eigh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    build_population(PopulationSpec(p=p, bulk=(1.0,) * p, toeplitz_rho=rho))
    assert np.array_equal(seen[0], toeplitz(rho ** np.arange(p)))


def test_spike_separation_enforced():
    spec = PopulationSpec(p=5, spikes=(1.05,), bulk=(1.0, 1.0, 1.0, 1.0),
                          separation=0.1)
    with pytest.raises(ConfigError, match="separation"):
        build_population(spec)


def test_spikes_must_descend():
    with pytest.raises(ConfigError):
        PopulationSpec(p=10, spikes=(5.0, 8.0), bulk="uniform", bulk_seed=1)


def test_nonspiked_measure_zeroes_spikes():
    spec = PopulationSpec(p=6, spikes=(8.0, 5.0), bulk=(0.1, 0.2, 0.3, 0.4),
                          toeplitz_rho=0.9)
    h1n = nonspiked_spectrum_measure(spec)
    assert h1n.atoms[0] == 0.0
    assert abs(h1n.weights[0] - 2 / 6) < 1e-15
    assert abs(h1n.weights.sum() - 1.0) < 1e-12


def test_deterministic_radius_column_norms():
    spec = PopulationSpec(p=16, spikes=(), bulk=(1.0,) * 16)
    law = RadiusLaw("deterministic", p=16, nu_p=0.0)
    sample = draw_sample(spec, law, n=5, seed=3)
    norms = np.linalg.norm(sample.data, axis=0)
    assert np.allclose(norms, 4.0, atol=1e-10)
    assert np.allclose(norms, sample.radii, atol=1e-10)


def test_mean_squared_norm_near_p():
    # p=50, n=100 with nu_p = p: per-column squared norms average near 50
    spec = PopulationSpec(p=50, spikes=(), bulk=(1.0,) * 50)
    law = RadiusLaw("two-point", p=50, nu_p=50.0)
    sample = draw_sample(spec, law, n=100, seed=11)
    sq = np.sum(sample.data ** 2, axis=0)
    se = np.sqrt(law.nu_p / 100)
    assert abs(sq.mean() - 50.0) < 3 * se


@pytest.mark.parametrize("law", [
    RadiusLaw("two-point", p=50, nu_p=50.0),
    RadiusLaw("chi-square", p=50, nu_p=100.0),
    RadiusLaw("gamma", p=50, nu_p=500.0),
])
def test_sq_radius_variance_matches_nu(law):
    spec = PopulationSpec(p=50, spikes=(), bulk=(1.0,) * 50)
    sample = draw_sample(spec, law, n=100_000, seed=17)
    sq = sample.radii ** 2
    var = sq.var(ddof=1)
    # SE of a sample variance ~ sqrt((mu4 - var^2)/N)
    centered = sq - sq.mean()
    se = np.sqrt((np.mean(centered ** 4) - var ** 2) / sq.size)
    assert abs(var - law.nu_p) < 3 * se
    assert abs(sq.mean() - 50.0) < 3 * np.sqrt(var / sq.size)


def test_same_seed_bit_identical():
    spec = PopulationSpec(p=20, spikes=(), bulk=(1.0,) * 20)
    law = RadiusLaw("two-point", p=20, nu_p=20.0)
    a = draw_sample(spec, law, n=30, seed=5)
    b = draw_sample(spec, law, n=30, seed=5)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.radii, b.radii)
    c = draw_sample(spec, law, n=30, seed=6)
    assert not np.array_equal(a.data, c.data)


def test_replicate_seeds_disjoint():
    seeds = {replicate_seed(123, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert replicate_seed(123, 0) == replicate_seed(123, 0)


def test_direction_mean_near_zero():
    spec = PopulationSpec(p=8, spikes=(), bulk=(1.0,) * 8)
    law = RadiusLaw("deterministic", p=8, nu_p=0.0)
    sample = draw_sample(spec, law, n=50_000, seed=29)
    u = sample.data / np.linalg.norm(sample.data, axis=0)
    assert np.all(np.abs(u.mean(axis=1)) < 5 / np.sqrt(50_000))


# --- quadratic form oracle --------------------------------------------------

def test_quadform_oracle_identity_is_zero():
    assert quadform_moment_oracle(np.eye(7), np.eye(7)) == pytest.approx(0.0, abs=1e-15)


def test_quadform_oracle_rank_one_projector():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert quadform_moment_oracle(e11, e11) == pytest.approx(1 / 8)
    for p in (3, 5, 10):
        e = np.zeros((p, p))
        e[0, 0] = 1.0
        assert quadform_moment_oracle(e, e) == pytest.approx(2 * (p - 1) / (p ** 2 * (p + 2)))


def test_quadform_oracle_dimension_mismatch():
    with pytest.raises(DomainError):
        quadform_moment_oracle(np.eye(3), np.eye(4))


def test_quadform_oracle_against_monte_carlo():
    rng = np.random.default_rng(41)
    p, ndraw = 10, 200_000
    a = rng.standard_normal((p, p))
    b = rng.standard_normal((p, p))
    y = rng.standard_normal((ndraw, p))
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    qa = np.einsum("ij,ij->i", u @ a, u)
    qb = np.einsum("ij,ij->i", u @ b, u)
    mc = np.mean(qa * qb) - np.mean(qa) * np.mean(qb)
    prod = (qa - qa.mean()) * (qb - qb.mean())
    se = prod.std(ddof=1) / np.sqrt(ndraw)
    assert abs(mc - quadform_moment_oracle(a, b)) < 5 * se
