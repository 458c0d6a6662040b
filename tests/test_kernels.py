from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from elliprmt.errors import ConfigError, DomainError
from elliprmt.kernels import (ContourSpec, contour_moment, cov_m, cov_m_diagonal,
                              default_contour, deterministic_equivalent,
                              eigvec_stat_cov, kernels, kernels_diagonal,
                              r_functional)
from elliprmt.kernels import _ROW_BLOCK, _pair_kernels, _solved
from elliprmt.lsd import find_bulk_edges, solve_lsd
from elliprmt.measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2
from elliprmt.spikes import predict_spike

D1 = DiscreteMeasure.point_mass(1.0)
H2_HEAVY = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]), np.array([0.5, 0.5]))
C = 0.5


def _x(z):
    return z


def _x2(z):
    return z * z


def _neville(ts, fs):
    vals = np.array(fs, dtype=np.complex128)
    for j in range(1, len(vals)):
        for i in range(len(vals) - j):
            vals[i] = ((0 - ts[i + j]) * vals[i] + ts[i] * vals[i + 1]) / (ts[i] - ts[i + j])
    return vals[0]


@pytest.mark.parametrize("h2", [D1, H2_HEAVY])
def test_kernel_symmetry(h2):
    z1, z2 = 1 + 1j, 2 + 1j
    a = kernels(C, D1, h2, z1, z2)
    b = kernels(C, D1, h2, z2, z1)
    assert abs(a.h1 - b.h1) < 1e-9
    assert abs(a.h2 - b.h2) < 1e-9
    assert abs(a.d - b.d) < 1e-9


def test_near_coincident_rejected():
    with pytest.raises(DomainError, match="kernels_diagonal"):
        kernels(C, D1, D1, 1 + 1j, 1 + 1j)


def test_d_kernel_bounded_away_from_one():
    pts = [complex(re, im) for re in (0.5, 1.5, 3.0) for im in (0.4, 1.0)]
    for i, z1 in enumerate(pts):
        for z2 in pts[i + 1:]:
            kv = kernels(C, D1, H2_HEAVY, z1, z2)
            assert np.isfinite(kv.d.real) and np.isfinite(kv.d.imag)
            assert abs(1.0 - kv.d) > 1e-3


def test_w_combination():
    z1, z2 = 1 + 1j, 2.5 + 0.5j
    kv = kernels(C, D1, H2_HEAVY, z1, z2)
    s1 = solve_lsd(C, D1, H2_HEAVY, z1)
    s2 = solve_lsd(C, D1, H2_HEAVY, z2)
    assert abs(kv.w - z1 * z2 * (s1.g2 - s2.g2)) < 1e-12


def test_real_pair_shares_one_branch_geometry(monkeypatch):
    # two real points above the bulk come from one solve, so the upper
    # turning point is found once, and agree with one-point solves
    from elliprmt import lsd

    built = []
    monkeypatch.setattr(lsd, "_Branches", lambda *a, cls=lsd._Branches: built.append(1) or cls(*a))
    z1, z2 = 6.0, 9.0
    kv = kernels(C, D1, H2_HEAVY, z1, z2)
    assert len(built) == 1
    s1 = solve_lsd(C, D1, H2_HEAVY, z1)
    s2 = solve_lsd(C, D1, H2_HEAVY, z2)
    assert abs(kv.w - z1 * z2 * (s1.g2 - s2.g2)) < 1e-12
    assert abs(kv.w.imag) == 0 and np.isfinite(kv.h1) and np.isfinite(kv.h2)


def test_light_tail_h2_substitution():
    # with m_under = g2 the h2 kernel equals the same expression with the
    # companion values replaced by g2 values (both are ~0 here)
    z1, z2 = 1.2 + 0.8j, 2.1 + 1.1j
    s1 = solve_lsd(C, D1, D1, z1)
    s2 = solve_lsd(C, D1, D1, z2)
    kv = kernels(C, D1, D1, z1, z2)
    from elliprmt.lsd import derivatives
    d1 = derivatives(s1, C, D1, D1)
    d2 = derivatives(s2, C, D1, D1)
    substituted = C * d1.g2p * d2.g2p * (s1.g2 * s2.g2 - s2.g2 * s1.g2) \
        / (s1.g2 * s2.g2 * (s1.g1 - s2.g1))
    assert abs(kv.h2 - substituted) < 1e-9
    assert abs(kv.h2) < 1e-9


@pytest.mark.parametrize("h2", [D1, H2_HEAVY])
def test_diagonal_matches_offset_extrapolation(h2):
    z = 1.5 + 1.0j
    s11, s12 = kernels_diagonal(C, D1, h2, z)
    deltas = np.array([1e-3, 1e-4, 1e-5])
    vals11, vals12 = [], []
    for d in deltas:
        kv = kernels(C, D1, h2, z, z + 1j * d)
        factor = (z * (z + 1j * d)) ** 2
        vals11.append(factor * (2 * kv.h1 + kv.h2))
        vals12.append(factor * kv.h1)
    ex11 = _neville(deltas, vals11)
    ex12 = _neville(deltas, vals12)
    assert abs(ex11 - s11) / abs(s11) < 1e-5
    assert abs(ex12 - s12) / abs(s12) < 1e-5


def test_light_tail_variance_pair_relation():
    s11, s12 = kernels_diagonal(C, D1, D1, 1.2 + 0.7j)
    assert abs(s11 - 2 * s12) < 1e-8


def test_heavy_tail_breaks_pair_relation():
    s11, s12 = kernels_diagonal(C, D1, H2_HEAVY, 1.2 + 0.7j)
    assert abs(s11 - 2 * s12) > 1e-3


def test_diagonal_real_positive_beyond_edge():
    edge = find_bulk_edges(C, D1, D1)[1]
    for x in (edge * 1.2, edge * 2.0, 60 / 7):
        s11, s12 = kernels_diagonal(C, D1, D1, x)
        assert abs(s11.imag) < 1e-10
        assert s11.real > 0
        assert s12.real > 0


# --- r functionals ------------------------------------------------------------

def test_r_functionals_isotropic_reduction():
    p = 7
    rng = np.random.default_rng(0)
    pi = rng.standard_normal(p)
    pi /= np.linalg.norm(pi)
    s1 = solve_lsd(C, D1, D1, 1 + 1j)
    s2 = solve_lsd(C, D1, D1, 2 + 1j)
    r_cross = r_functional(np.eye(p), s1.g2, s2.g2, pi, pi)
    assert abs(r_cross - 1.0 / ((1 + s1.g2) * (1 + s2.g2))) < 1e-12
    r_one = r_functional(np.eye(p), s1.g2, s1.g2, pi, pi)
    assert abs(r_one - 1.0 / (1 + s1.g2) ** 2) < 1e-12


def test_r_functionals_orthogonal_vectors_vanish():
    p = 5
    s1 = solve_lsd(C, D1, D1, 1 + 1j)
    assert abs(r_functional(np.eye(p), s1.g2, s1.g2, np.eye(p)[0], np.eye(p)[1])) < 1e-15


def test_r_functionals_spiked_top_vector():
    p, alpha = 30, 8.0
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    d = np.concatenate([[alpha], rng.uniform(0.2, 1.0, p - 1)])
    sigma = (q * d) @ q.T
    s1 = solve_lsd(C, D1, D1, 1 + 1j)
    s2 = solve_lsd(C, D1, D1, 2 + 1j)
    got = r_functional(sigma, s1.g2, s2.g2, q[:, 0], q[:, 0])
    expected = alpha / ((1 + s1.g2 * alpha) * (1 + s2.g2 * alpha))
    assert abs(got - expected) < 1e-10


def test_deterministic_equivalent_isotropic_is_m():
    z = 1 + 1j
    sol = solve_lsd(C, D1, D1, z)
    pi = np.zeros(9)
    pi[0] = 1
    val = deterministic_equivalent(z, sol.g2, np.eye(9), pi, pi)
    assert abs(val - sol.m) < 1e-12


def test_deterministic_equivalent_rejects_non_unit_pi():
    sol = solve_lsd(C, D1, D1, 1 + 1j)
    e1 = np.eye(8)[0]
    with pytest.raises(DomainError, match="unit norm"):
        deterministic_equivalent(1 + 1j, sol.g2, np.eye(8), 2 * e1, e1)


# --- cov_m ---------------------------------------------------------------------

def test_cov_m_reduces_to_varpi_when_all_vectors_equal():
    p = 6
    pi = np.full(p, 1 / np.sqrt(p))
    z1, z2 = 1.2 + 0.9j, 2.2 + 0.7j
    value = cov_m(C, D1, H2_HEAVY, np.eye(p), (pi, pi, pi, pi), z1, z2)
    kv = kernels(C, D1, H2_HEAVY, z1, z2)
    s1 = solve_lsd(C, D1, H2_HEAVY, z1)
    s2 = solve_lsd(C, D1, H2_HEAVY, z2)
    r_cross = r_functional(np.eye(p), s1.g2, s2.g2, pi, pi)
    r1 = r_functional(np.eye(p), s1.g2, s1.g2, pi, pi)
    r2 = r_functional(np.eye(p), s2.g2, s2.g2, pi, pi)
    varpi = 2 * kv.h1 * r_cross ** 2 + kv.h2 * r1 * r2
    assert abs(value - varpi) < 1e-12


def test_cov_m_rejects_non_unit_pi():
    e1 = np.eye(6)[0]
    with pytest.raises(DomainError, match="unit norm"):
        cov_m(C, D1, H2_HEAVY, np.eye(6), (2 * e1, e1, e1, e1), 1.2 + 0.9j, 2.2 + 0.7j)


def test_cov_m_orthogonal_blocks_leave_h2_term():
    p = 6
    e1, e2 = np.eye(p)[0], np.eye(p)[1]
    z1, z2 = 1.1 + 1j, 2.3 + 0.8j
    value = cov_m(C, D1, H2_HEAVY, np.eye(p), (e1, e1, e2, e2), z1, z2)
    kv = kernels(C, D1, H2_HEAVY, z1, z2)
    s1 = solve_lsd(C, D1, H2_HEAVY, z1)
    s2 = solve_lsd(C, D1, H2_HEAVY, z2)
    r12 = r_functional(np.eye(p), s1.g2, s1.g2, e1, e1)
    r34 = r_functional(np.eye(p), s2.g2, s2.g2, e2, e2)
    assert abs(value - kv.h2 * r12 * r34) < 1e-12


def test_cov_m_diagonal_real_nonneg_on_real_axis():
    p = 5
    edge = find_bulk_edges(C, D1, D1)[1]
    pi1 = np.eye(p)[0]
    pi2 = np.full(p, 1 / np.sqrt(p))
    val = cov_m_diagonal(C, D1, D1, np.eye(p), (pi1, pi2, pi1, pi2), edge * 1.5)
    assert abs(val.imag) < 1e-8
    assert val.real >= -1e-8


def test_cov_m_diagonal_is_offset_limit():
    p = 4
    pi = np.eye(p)[0]
    z = 1.4 + 0.9j
    diag = cov_m_diagonal(C, D1, H2_HEAVY, np.eye(p), (pi, pi, pi, pi), z)
    deltas = np.array([1e-3, 1e-4, 1e-5])
    vals = [cov_m(C, D1, H2_HEAVY, np.eye(p), (pi, pi, pi, pi), z, z + 1j * d)
            for d in deltas]
    assert abs(_neville(deltas, vals) - diag) / abs(diag) < 1e-5


# --- contour quadrature ---------------------------------------------------------

def test_contour_moment_exact_first_moment():
    # int x dF equals mean(H2) * pi^T Sigma pi for the reference law
    p = 12
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    d = rng.uniform(0.4, 1.6, p)
    sigma = (q * d) @ q.T
    pi = rng.standard_normal(p)
    pi /= np.linalg.norm(pi)
    for h2 in (D1, H2_HEAVY):
        [got] = contour_moment(C, DiscreteMeasure.from_values(d), h2, sigma, pi,
                               [lambda z: z], quad_n=192)
        mu_h2 = float(np.dot(h2.weights, h2.atoms))
        exact = mu_h2 * float(pi @ sigma @ pi)
        assert abs(got - exact) < 2e-4


def test_contour_moment_constant_is_exact():
    pi = np.zeros(5)
    pi[0] = 1
    [got] = contour_moment(C, D1, D1, np.eye(5), pi, [lambda z: 3.0 + 0 * z], quad_n=32)
    assert got == pytest.approx(3.0, abs=1e-12)


def test_contour_moment_rejects_non_unit_pi():
    # at pi = 2 e1 the x moment would scale by 4 while the constant part
    # assumes mass one
    with pytest.raises(DomainError, match="unit norm"):
        contour_moment(C, D1, D1, np.eye(8), 2 * np.eye(8)[0], [_x], quad_n=32)


def test_contour_moment_mp_second_moment():
    pi = np.zeros(5)
    pi[0] = 1
    zetas = [lambda z: z, lambda z: z * z]
    got = contour_moment(C, D1, D1, np.eye(5), pi, zetas, quad_n=256)
    assert abs(got[0] - 1.0) < 1e-4
    assert abs(got[1] - 1.5) < 1e-4  # E x^2 = 1 + c for the isotropic law
    # one solve for both gives each the value of its own call, bit for bit
    for f, v in zip(zetas, got):
        assert contour_moment(C, D1, D1, np.eye(5), pi, [f], quad_n=256)[0] == v


def test_eigvec_stat_cov_rejects_non_unit_pi():
    with pytest.raises(DomainError, match="unit norm"):
        eigvec_stat_cov(C, D1, D1, np.eye(8), 2 * np.eye(8)[0], [_x], quad_n=8)


def test_eigvec_stat_cov_matches_exact_limits():
    pi = np.zeros(8)
    pi[0] = 1
    light = eigvec_stat_cov(C, D1, D1, np.eye(8), pi, [_x], quad_n=96)
    assert abs(light[0, 0] - 2 * C) < 5e-4  # exact limit of Var(sqrt(p) S_11)
    heavy = eigvec_stat_cov(C, D1, H2_HEAVY, np.eye(8), pi, [_x], quad_n=96)
    assert abs(heavy[0, 0] - 1.25) < 5e-4  # exact limit 2.5c under the nu=p^2 law


def test_eigvec_stat_cov_constant_vanishes():
    pi = np.zeros(6)
    pi[0] = 1
    val = eigvec_stat_cov(C, D1, D1, np.eye(6), pi, [lambda z: 1 + 0 * z],
                          quad_n=96)
    assert abs(val[0, 0]) < 1e-3


def test_eigvec_stat_cov_node_doubling():
    pi = np.zeros(6)
    pi[0] = 1
    a = eigvec_stat_cov(C, D1, D1, np.eye(6), pi, [_x], quad_n=96)[0, 0]
    b = eigvec_stat_cov(C, D1, D1, np.eye(6), pi, [_x], quad_n=192)[0, 0]
    assert abs(a - b) / abs(b) < 1e-4


def test_contour_spec_validation():
    with pytest.raises(ConfigError, match="overlap"):
        ContourSpec(x_left=0.0, x_right=1.0, v0=0.1, separation=0.06)
    with pytest.raises(ConfigError):
        ContourSpec(x_left=1.0, x_right=0.5)
    spec = default_contour(C, D1, D1)
    inner = spec.inner()
    assert inner.x_left > spec.x_left
    assert inner.x_right < spec.x_right


def _toeplitz(p, rho=0.5):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _trapezoid(spec, quad_n):
    """Counterclockwise rectangle nodes and dz-weights, quad_n per side."""
    corners = [complex(spec.x_right, -spec.v0), complex(spec.x_right, spec.v0),
               complex(spec.x_left, spec.v0), complex(spec.x_left, -spec.v0)]
    nodes, weights = [], []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for k in range(quad_n):
            nodes.append(a + (b - a) * k / (quad_n - 1))
            end = k in (0, quad_n - 1)
            weights.append((b - a) / (quad_n - 1) * (0.5 if end else 1.0))
    return nodes, weights


@pytest.mark.parametrize("h2", [D1, H2_HEAVY])
def test_eigvec_stat_cov_grid_matches_scalar_kernels(h2):
    # the node-grid kernels of eigvec_stat_cov against a double sum of
    # 2 h1 r11^2 + h2 r11 r11 built one point pair at a time
    p, quad_n = 8, 4
    sigma = _toeplitz(p)
    h1 = DiscreteMeasure.from_values(np.linalg.eigvalsh(sigma))
    pi = np.full(p, 1 / np.sqrt(p))
    got = eigvec_stat_cov(C, h1, h2, sigma, pi, [_x], quad_n=quad_n)[0, 0]
    outer = default_contour(C, h1, h2)
    nodes1, w1 = _trapezoid(outer.inner(), quad_n)
    nodes2, w2 = _trapezoid(outer, quad_n)
    g2 = {z: solve_lsd(C, h1, h2, z).g2 for z in nodes1 + nodes2}
    total = 0j
    for z1, a in zip(nodes1, w1):
        for z2, b in zip(nodes2, w2):
            kv = kernels(C, h1, h2, z1, z2)
            r_cross = r_functional(sigma, g2[z1], g2[z2], pi, pi)
            r1 = r_functional(sigma, g2[z1], g2[z1], pi, pi)
            r2 = r_functional(sigma, g2[z2], g2[z2], pi, pi)
            total += a * b * z1 * z2 * (2 * kv.h1 * r_cross ** 2 + kv.h2 * r1 * r2)
    want = (total / (2j * np.pi) ** 2).real
    assert abs(got - want) <= 1e-12 * abs(want)


def _full_grid_cov(c, h1, h2, sigma, pi, zeta_a, zeta_b, quad_n):
    """Reference: the whole (n1, n2) varpi matrix at once, contracted by one
    sum over the grid, with zeta_a on the inner contour."""
    outer = default_contour(c, h1, h2)
    nodes1, w1 = (np.array(v) for v in _trapezoid(outer.inner(), quad_n))
    nodes2, w2 = (np.array(v) for v in _trapezoid(outer, quad_n))
    vals1, vals2 = _solved(c, h1, h2, nodes1), _solved(c, h1, h2, nodes2)
    h1m, h2m, _ = _pair_kernels(c, [v[:, None] for v in vals1],
                                [v[None, :] for v in vals2])
    evals, evecs = np.linalg.eigh(sigma)
    wd = (evecs.T @ pi) ** 2 * evals
    t1 = 1.0 / (1.0 + np.multiply.outer(vals1[2], evals))
    t2 = 1.0 / (1.0 + np.multiply.outer(vals2[2], evals))
    r_cross = (t1 * wd) @ t2.T
    r_one_1 = np.sum(t1 * t1 * wd, axis=1)
    r_one_2 = np.sum(t2 * t2 * wd, axis=1)
    varpi = 2.0 * h1m * r_cross ** 2 + h2m * np.multiply.outer(r_one_1, r_one_2)
    integral = np.einsum("i,j,ij->", w1 * zeta_a(nodes1), w2 * zeta_b(nodes2), varpi)
    return (integral / (2j * np.pi) ** 2).real


@pytest.mark.parametrize("h2", [D1, radius_law_to_h2(RadiusLaw("two-point", 8, 64.0))])
def test_eigvec_stat_cov_blocks_match_full_grid(h2):
    # 17 nodes per side give 68 per contour: one full block of 64 inner
    # nodes and a remainder of 4
    p, quad_n = 8, 17
    assert 4 * quad_n == _ROW_BLOCK + 4
    sigma = _toeplitz(p)
    h1 = DiscreteMeasure.from_values(np.linalg.eigvalsh(sigma))
    pi = np.full(p, 1 / np.sqrt(p))
    got = eigvec_stat_cov(C, h1, h2, sigma, pi, [_x, _x2], quad_n=quad_n)
    assert got.shape == (2, 2)
    f = (_x, _x2)
    for a in range(2):
        for b in range(2):
            want = _full_grid_cov(C, h1, h2, sigma, pi, f[a], f[b], quad_n)
            assert abs(got[a, b] - want) <= 1e-13 * abs(want), (a, b)
        alone = eigvec_stat_cov(C, h1, h2, sigma, pi, [f[a]], quad_n=quad_n)
        assert alone.shape == (1, 1)
        assert abs(got[a, a] - alone[0, 0]) <= 1e-13 * abs(alone[0, 0])


def test_eigvec_stat_cov_memory_is_bounded_by_a_block():
    # the whole 768 x 768 grid would take 63 MiB at its peak
    p = 200
    h2 = radius_law_to_h2(RadiusLaw("two-point", p, float(p)))
    pi = np.eye(p)[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eigvec_stat_cov(C, D1, h2, np.eye(p), pi, [_x], quad_n=192)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_eigvec_stat_cov_rejects_non_real_entries():
    # i x is not real on the real axis: the diagonal entries of the [x, i x]
    # covariance are real, so only the check on the off-diagonal ones raises
    pi = np.eye(6)[0]
    with pytest.raises(DomainError, match="non-real"):
        eigvec_stat_cov(C, D1, D1, np.eye(6), pi, [_x, lambda z: 1j * z], quad_n=24)


# Heavy-tail kernel outputs as they stood when each kernel expression was
# written out per consumer.  The radius-fluctuation term h2 is under review
# (ROADMAP item 1); fixing it will move these values on purpose.
PINNED_HEAVY = {
    "sigma11_sq": -0.774914967007778 - 1.1466655134330879j,
    "sigma12_sq": -0.3513751725763138 - 0.6298240677515275j,
    "cov_m": 0.03680645520649035 - 0.023445391771867847j,
    "cov_m_diagonal": 0.029213762354463584 - 0.03610888510541791j,
    "x_x": 34.26902423030169,
    "x_x2": 300.8294575050232,
    "x2_x2": 3021.3073721879196,
    "sigma_delta_sq": 5.280734029387601,
}


def test_heavy_tail_kernels_pinned():
    """Kernel-layer outputs at gamma nu_p = p^2, c = 2 and a Toeplitz Sigma.

    Pins kernels_diagonal, cov_m, cov_m_diagonal, eigvec_stat_cov (f = x,
    x^2) and sigma_Delta^2 to 1e-13 relative.  ROADMAP item 1 (the radius
    term h2) will change these values on purpose; re-pin them then.
    """
    p, c = 10, 2.0
    sigma = _toeplitz(p)
    h1 = DiscreteMeasure.from_values(np.linalg.eigvalsh(sigma))
    h2 = radius_law_to_h2(RadiusLaw("gamma", p, float(p * p)))
    idx = np.arange(p) + 1.0
    u = np.full(p, 1 / np.sqrt(p))
    pis = (np.eye(p)[0], u, np.eye(p)[1], idx / np.linalg.norm(idx))
    got = {}
    got["sigma11_sq"], got["sigma12_sq"] = kernels_diagonal(c, h1, h2, 1.5 + 1.0j)
    got["cov_m"] = cov_m(c, h1, h2, sigma, pis, 1.2 + 0.9j, 2.2 + 0.7j)
    got["cov_m_diagonal"] = cov_m_diagonal(c, h1, h2, sigma, pis, 1.4 + 0.9j)
    cov = eigvec_stat_cov(c, h1, h2, sigma, u, [_x, _x2])
    got["x_x"], got["x_x2"], got["x2_x2"] = cov[0, 0], cov[0, 1], cov[1, 1]
    got["sigma_delta_sq"] = predict_spike(c, h1, h2, 15.0).sigma_delta_sq
    for key, want in PINNED_HEAVY.items():
        assert abs(got[key] - want) <= 1e-13 * abs(want), key
