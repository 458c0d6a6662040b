from __future__ import annotations

import numpy as np
import pytest

from elliprmt.errors import ConfigError, DomainError
from elliprmt.measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2


def test_atoms_sorted_and_merged():
    mu = DiscreteMeasure(np.array([3.0, 1.0, 3.0]), np.array([0.25, 0.5, 0.25]))
    assert mu.atoms.tolist() == [1.0, 3.0]
    assert mu.weights.tolist() == [0.5, 0.5]


def test_merging_preserves_integrals():
    rng = np.random.default_rng(0)
    atoms = np.array([0.3, 0.7, 0.3, 1.4, 0.7])
    weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    merged = DiscreteMeasure(atoms, weights)
    for _ in range(5):
        coef = rng.standard_normal(3)
        def f(x):
            return coef[0] + coef[1] * x + coef[2] * x * x
        direct = complex(np.sum(weights * [f(a) for a in atoms]))
        assert abs(np.sum(merged.weights * f(merged.atoms)) - direct) < 1e-12


def test_weight_sum_validation():
    with pytest.raises(ConfigError):
        DiscreteMeasure(np.array([1.0]), np.array([0.9]))
    with pytest.raises(ConfigError):
        DiscreteMeasure(np.array([1.0, np.inf]), np.array([0.5, 0.5]))


def test_csv_round_trip(tmp_path):
    mu = DiscreteMeasure(np.array([0.25, 1.75]), np.array([0.125, 0.875]))
    path = tmp_path / "measure.csv"
    mu.write_csv(path)
    back = DiscreteMeasure.from_csv(str(path))
    assert back.atoms.tolist() == mu.atoms.tolist()
    assert back.weights.tolist() == mu.weights.tolist()


def test_csv_header_required(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text("foo,bar\n1,1\n")
    with pytest.raises(ConfigError, match="line 1"):
        DiscreteMeasure.from_csv(path)


def test_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text("atom,weight\n1.0,0.5\nx,0.5\n")
    with pytest.raises(ConfigError, match="line 3"):
        DiscreteMeasure.from_csv(path)


# --- radius laws -----------------------------------------------------------

def test_deterministic_radius_h2_is_unit_point_mass():
    law = RadiusLaw("deterministic", p=50, nu_p=0.0)
    h2 = radius_law_to_h2(law)
    assert h2.atoms.tolist() == [1.0]
    assert h2.weights.tolist() == [1.0]


def test_two_point_max_variance():
    law = RadiusLaw("two-point", p=50, nu_p=2500.0)
    h2 = radius_law_to_h2(law)
    assert np.allclose(h2.atoms, [0.0, np.sqrt(2)])
    assert np.allclose(h2.weights, [0.5, 0.5])


def test_two_point_moderate_variance():
    law = RadiusLaw("two-point", p=50, nu_p=50.0)
    h2 = radius_law_to_h2(law)
    expected = np.array([50 - np.sqrt(50), 50 + np.sqrt(50)]) / np.sqrt(2550)
    assert np.allclose(h2.atoms, expected)
    assert abs(np.dot(h2.weights, h2.atoms) - 50 / np.sqrt(2550)) < 1e-15


def test_two_point_rejects_excess_variance():
    with pytest.raises(ConfigError, match="sqrt"):
        RadiusLaw("two-point", p=50, nu_p=2501.0)


def test_chi_square_forces_nu():
    with pytest.raises(ConfigError):
        RadiusLaw("chi-square", p=50, nu_p=50.0)
    law = RadiusLaw("chi-square", p=50, nu_p=100.0)
    assert law.m_p == 50 ** 2 + 100


def test_deterministic_rejects_positive_nu():
    with pytest.raises(ConfigError):
        RadiusLaw("deterministic", p=10, nu_p=1.0)


def test_gamma_flagged_unbounded():
    law = RadiusLaw("gamma", p=50, nu_p=2500.0)
    assert not law.bounded_support
    assert RadiusLaw("two-point", p=50, nu_p=2500.0).bounded_support


@pytest.mark.parametrize("law", [
    RadiusLaw("deterministic", p=50, nu_p=0.0),
    RadiusLaw("two-point", p=50, nu_p=50.0),
    RadiusLaw("two-point", p=50, nu_p=2500.0),
    RadiusLaw("chi-square", p=50, nu_p=100.0),
    RadiusLaw("gamma", p=50, nu_p=2500.0),
    RadiusLaw("gamma", p=200, nu_p=200.0),
    RadiusLaw("gamma", p=2, nu_p=4.0),
    RadiusLaw("gamma", p=200, nu_p=40000.0),
])
def test_h2_moment_invariants(law):
    # first moment p/sqrt(m_p), second moment exactly 1 (m_p = E rho^4)
    h2 = radius_law_to_h2(law)
    mean = np.sum(h2.weights * h2.atoms)
    second = np.sum(h2.weights * h2.atoms ** 2)
    tol = 1e-12 if law.kind in ("deterministic", "two-point") else 1e-6
    assert abs(mean - law.p / np.sqrt(law.m_p)) < tol
    assert abs(second - 1.0) < tol
    assert np.all(h2.atoms >= 0)


@pytest.mark.parametrize("p", [2, 10, 200])
@pytest.mark.parametrize("ratio, reason", [(300.0, "tilt turns negative"),
                                           (1e6, "singular moment matrix")])
def test_gamma_h2_too_heavy_to_match_raises(p, ratio, reason):
    # no positive reweighting of the quantile grid reaches the second moment;
    # returning the unmatched grid would give the solver a law with E y^2 < 1
    with pytest.raises(DomainError, match=reason):
        radius_law_to_h2(RadiusLaw("gamma", p=p, nu_p=ratio * p ** 2))
