from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliprmt.errors import ConfigError, DomainError, SubcriticalSpikeError
from elliprmt.lsd import find_bulk_edges, solve_lsd, upper_edge_g2
from elliprmt.measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2
from elliprmt.spikes import goe_covariance_profile, predict_spike

D1 = DiscreteMeasure.point_mass(1.0)
H2_HEAVY = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]), np.array([0.5, 0.5]))
C = 0.5


def psi_map(c, h1, alpha):
    # light-tail location map alpha + c alpha int t/(alpha-t) dH1
    return alpha + c * alpha * float(np.sum(h1.weights * h1.atoms / (alpha - h1.atoms)))


def test_light_tail_location_is_closed_form():
    theta = predict_spike(C, D1, D1, 8.0).theta
    assert abs(theta - 60.0 / 7.0) < 1e-8
    h1 = DiscreteMeasure(np.array([0.5, 1.0, 1.5]), np.array([0.2, 0.5, 0.3]))
    theta2 = predict_spike(C, h1, D1, 6.0).theta
    assert abs(theta2 - psi_map(C, h1, 6.0)) < 1e-8


def test_location_solves_defining_equation_heavy_tail():
    theta = predict_spike(C, D1, H2_HEAVY, 8.0).theta
    g2 = solve_lsd(C, D1, H2_HEAVY, theta).g2.real
    assert abs(g2 + 1.0 / 8.0) < 1e-10


def test_location_map_increasing():
    edge = find_bulk_edges(C, D1, D1)[1]
    thetas = [predict_spike(C, D1, D1, a, edge=edge).theta
              for a in np.linspace(2.0, 12.0, 10)]
    assert np.all(np.diff(thetas) > 0)


def test_location_ratio_tends_to_one():
    pred = predict_spike(C, D1, D1, 1e6)
    theta, gp = pred.theta, pred.g_prime
    assert abs(theta / 1e6 - 1.0) < 1e-3
    assert abs(gp - 1.0) < 1e-3


def test_subcritical_spike_raises_with_threshold():
    with pytest.raises(SubcriticalSpikeError) as err:
        predict_spike(C, D1, D1, 1.01)
    assert abs(err.value.threshold - (1 + np.sqrt(C))) < 0.01


def test_variance_light_tail_closed_form():
    x = 60.0 / 7.0
    disc = np.sqrt((x + 1 - C) ** 2 - 4 * x)
    mu = (-(x + 1 - C) + disc) / (2 * x)
    mup = -(mu ** 2 + mu) / (2 * x * mu + x + 1 - C)
    val = predict_spike(C, D1, D1, 8.0).sigma_delta_sq
    assert abs(val - 2.0 / (mup * x * x)) < 1e-8


def test_variance_second_term_vanishes_light_tail():
    # the full formula must agree with its light-tail reduction 2/(mu' t^2)
    theta = predict_spike(C, D1, D1, 8.0).theta
    from elliprmt.lsd import derivatives
    sol = solve_lsd(C, D1, D1, theta)
    der = derivatives(sol, C, D1, D1)
    reduction = 2.0 / (der.m_under_p.real * theta ** 2)
    assert abs(predict_spike(C, D1, D1, 8.0).sigma_delta_sq - reduction) < 1e-8


def test_variance_heavy_tail_differs():
    light = predict_spike(C, D1, D1, 8.0).sigma_delta_sq
    heavy = predict_spike(C, D1, H2_HEAVY, 8.0).sigma_delta_sq
    assert abs(heavy - light) / light > 0.05


def test_overlap_light_tail_value():
    val = predict_spike(C, D1, D1, 8.0).overlap_sq
    expect = (1 - C / 49.0) / (1 + C / 7.0)
    assert abs(val - expect) < 1e-8
    assert abs(val - 0.9238095238) < 1e-9


def test_overlap_closed_ratio_general_h1():
    h1 = DiscreteMeasure(np.array([0.3, 0.8, 1.2]), np.array([0.25, 0.5, 0.25]))
    alpha = 5.0
    got = predict_spike(C, h1, D1, alpha).overlap_sq
    num = 1 - C * float(np.sum(h1.weights * h1.atoms ** 2 / (alpha - h1.atoms) ** 2))
    den = 1 + C * float(np.sum(h1.weights * h1.atoms / (alpha - h1.atoms)))
    assert abs(got - num / den) < 1e-8


def test_overlap_shrinks_toward_threshold():
    # numerator 1 - c/(alpha-1)^2 -> 0 as alpha approaches 1 + sqrt(c)
    vals = [predict_spike(C, D1, D1, a).overlap_sq for a in (1.75, 2.5, 4.0, 8.0)]
    assert np.all(np.diff(vals) > 0)
    closed = (1 - C / 0.75 ** 2) / (1 + C / 0.75)
    assert abs(vals[0] - closed) < 1e-8


def test_overlap_tends_to_one():
    assert abs(predict_spike(C, D1, D1, 1e6).overlap_sq - 1.0) < 1e-3


def test_overlap_heavy_tail_phase_transition():
    light = predict_spike(C, D1, D1, 8.0).overlap_sq
    heavy = predict_spike(C, D1, H2_HEAVY, 8.0).overlap_sq
    assert abs(light - heavy) > 0.03
    assert heavy < light  # heavier radius tails widen the eigenvector angle


def test_predict_bundles_everything():
    pred = predict_spike(C, D1, D1, 8.0)
    assert pred.light_tail
    assert 0 < pred.overlap_sq <= 1
    assert pred.theta > find_bulk_edges(C, D1, D1)[1]
    assert pred.g_prime > 0
    heavy = predict_spike(C, D1, H2_HEAVY, 8.0)
    assert not heavy.light_tail


def test_goe_profile_patterns():
    theta = predict_spike(C, D1, D1, 8.0).theta
    prof = goe_covariance_profile(C, D1, D1, theta, k=3)
    assert prof.cov(0, 0, 0, 0) == prof.sigma11_sq
    assert prof.cov(0, 1, 0, 1) == prof.sigma12_sq
    assert prof.cov(0, 1, 1, 0) == prof.sigma12_sq  # swapped pair pattern
    assert prof.cov(0, 0, 0, 1) == 0.0
    assert prof.cov(0, 1, 0, 2) == 0.0
    assert prof.cov(1, 1, 1, 1) == prof.sigma11_sq
    with pytest.raises(DomainError):
        prof.cov(0, 0, 0, 3)


def test_goe_profile_single_spike_scalar():
    theta = predict_spike(C, D1, D1, 8.0).theta
    prof = goe_covariance_profile(C, D1, D1, theta, k=1)
    assert prof.k == 1
    assert prof.sigma11_sq > 0
    with pytest.raises(ConfigError):
        goe_covariance_profile(C, D1, D1, theta, k=0)


def test_goe_profile_light_tail_pair_relation():
    theta = predict_spike(C, D1, D1, 8.0).theta
    prof = goe_covariance_profile(C, D1, D1, theta, k=2)
    assert abs(prof.sigma11_sq - 2 * prof.sigma12_sq) < 1e-8


def test_spike_variance_consistency_with_goe_profile():
    # sigma_Delta^2 = sigma11^2(theta) / (c theta^4 g2'(theta)^2)
    alpha = 8.0
    pred = predict_spike(C, D1, H2_HEAVY, alpha)
    theta, gprime = pred.theta, pred.g_prime
    prof = goe_covariance_profile(C, D1, H2_HEAVY, theta, k=1)
    from elliprmt.lsd import derivatives
    sol = solve_lsd(C, D1, H2_HEAVY, theta)
    g2p = derivatives(sol, C, D1, H2_HEAVY).g2p.real
    expect = prof.sigma11_sq / (C * theta ** 4 * g2p ** 2)
    assert abs(predict_spike(C, D1, H2_HEAVY, alpha).sigma_delta_sq - expect) < 1e-8


@pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
def test_threshold_is_exact_for_marchenko_pastur(c):
    with pytest.raises(SubcriticalSpikeError) as err:
        predict_spike(c, D1, D1, 1.0 + 0.5 * np.sqrt(c))
    assert abs(err.value.threshold - (1 + np.sqrt(c))) < 1e-9


def test_threshold_gamma_radius_law():
    h2 = radius_law_to_h2(RadiusLaw("gamma", 200, 200.0 ** 2))
    with pytest.raises(SubcriticalSpikeError) as err:
        predict_spike(2.0, D1, h2, 8.0)
    assert abs(err.value.threshold - 8.4316) < 1e-4
    predict_spike(2.0, D1, h2, err.value.threshold * (1 + 1e-6))


def test_edge_argument_only_guards():
    pred = predict_spike(C, D1, D1, 8.0)
    assert predict_spike(C, D1, D1, 8.0, edge=pred.theta * 0.5) == pred
    with pytest.raises(SubcriticalSpikeError):
        predict_spike(C, D1, D1, 8.0, edge=pred.theta)


def _measures():
    """Discrete laws with 1 to 5 positive atoms."""
    atoms = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=5, unique=True)
    return atoms.flatmap(lambda xs: st.lists(
        st.floats(0.05, 1.0), min_size=len(xs), max_size=len(xs)).map(
        lambda ws: DiscreteMeasure(np.array(xs), np.array(ws) / np.sum(ws))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c=st.floats(0.1, 4.0), h1=_measures(), h2=_measures(),
       lift=st.floats(0.05, 3.0))
def test_inverse_map_properties(c, h1, h2, lift):
    upper = find_bulk_edges(c, h1, h2)[1]
    threshold = -1.0 / upper_edge_g2(c, h1, h2)
    with pytest.raises(SubcriticalSpikeError):
        predict_spike(c, h1, h2, threshold * (1 - 1e-6))
    predict_spike(c, h1, h2, threshold * (1 + 1e-6))

    alpha = threshold * (1.0 + lift)
    pred = predict_spike(c, h1, h2, alpha)
    theta, gp = pred.theta, pred.g_prime
    assert upper <= theta
    g2 = solve_lsd(c, h1, h2, theta).g2.real
    assert abs(g2 * alpha + 1.0) < 1e-10
    h = 1e-5 * alpha
    central = (predict_spike(c, h1, h2, alpha + h).theta
               - predict_spike(c, h1, h2, alpha - h).theta) / (2 * h)
    assert abs(central - gp) < 1e-5 * max(1.0, gp)
