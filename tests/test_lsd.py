from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliprmt.errors import ConvergenceError, DomainError
from elliprmt.lsd import (derivatives, find_bulk_edges, outer_support_bracket,
                          solve_lsd, stieltjes_invert)
from elliprmt.measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2
from elliprmt.sampler import PopulationSpec, nonspiked_spectrum_measure

D1 = DiscreteMeasure.point_mass(1.0)
D0 = DiscreteMeasure.point_mass(0.0)
H2_HEAVY = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]), np.array([0.5, 0.5]))


def mp_quadratic_root(c: float, z: complex) -> complex:
    roots = np.roots([c * z, z - 1 + c, 1.0])
    return roots[np.argmax(roots.imag)]


def mp_companion_real(c: float, x: float) -> float:
    # z u^2 + (z + 1 - c) u + 1 = 0: the branch decaying at infinity above
    # the bulk, and the positive root for x < 0 (the roots' product is 1/x)
    disc = np.sqrt((x + 1 - c) ** 2 - 4 * x)
    return (-(x + 1 - c) + np.sign(x) * disc) / (2 * x)


def test_mp_oracle_sample_points():
    rng = np.random.default_rng(1)
    for c in (0.1, 0.5, 1.0, 2.0):
        for _ in range(5):
            z = complex(rng.uniform(-2, 4), rng.uniform(0.1, 2.0))
            sol = solve_lsd(c, D1, D1, z)
            assert abs(sol.m - mp_quadratic_root(c, z)) < 1e-10


def test_uniqueness_set_membership():
    rng = np.random.default_rng(2)
    for h2 in (D1, H2_HEAVY):
        for _ in range(10):
            z = complex(rng.uniform(-1, 4), rng.uniform(0.05, 2.0))
            sol = solve_lsd(0.5, D1, h2, z)
            assert sol.m.imag > 0
            assert (sol.z * sol.g1).imag > 0
            assert sol.g2.imag > 0


def test_trivial_scenarios():
    for h1, h2 in ((D0, D1), (D1, D0), (D0, H2_HEAVY)):
        sol = solve_lsd(0.7, h1, h2, 2j)
        assert sol.trivial
        assert abs(sol.m - (-1 / 2j)) < 1e-14
        assert sol.iterations == 0


def test_companion_identities_everywhere():
    rng = np.random.default_rng(3)
    for c in (0.25, 1.0, 2.0):
        for h2 in (D1, H2_HEAVY):
            for _ in range(8):
                z = complex(rng.uniform(-1, 5), rng.uniform(0.05, 2.0))
                sol = solve_lsd(c, D1, h2, z)
                assert abs(sol.m_under - (-1 / z - sol.g1 * sol.g2)) < 1e-10
                assert abs(sol.m_under - (-(1 - c) / z + c * sol.m)) < 1e-10


def test_light_tail_identity():
    rng = np.random.default_rng(4)
    h1 = DiscreteMeasure(np.array([0.5, 1.0, 2.0]), np.array([0.3, 0.4, 0.3]))
    for _ in range(10):
        z = complex(rng.uniform(0, 4), rng.uniform(0.1, 2.0))
        sol = solve_lsd(0.5, h1, D1, z)
        assert abs(sol.m_under - sol.g2) < 1e-10


def test_solver_matches_simulated_spectrum_heavy_tail():
    # 800 x 1600 sample with nu_p = p^2; ESD Stieltjes transform as oracle
    p, n = 800, 1600
    rng = np.random.default_rng(0)
    y = rng.standard_normal((p, n))
    u = y / np.linalg.norm(y, axis=0)
    rho2 = np.where(rng.random(n) < 0.5, 0.0, 2.0 * p)
    x = u * np.sqrt(rho2)
    s = np.sqrt(p * p / (2.0 * p * p)) / n * (x @ x.T)
    ev = np.linalg.eigvalsh(s)
    z = 1 + 0.5j
    emp = np.mean(1.0 / (ev - z))
    sol = solve_lsd(p / n, D1, H2_HEAVY, z)
    assert abs(emp - sol.m) < 0.02


# --- real axis --------------------------------------------------------------

def test_real_axis_light_tail_point():
    # above the bulk, and on the negative axis, where the lower branch runs
    for c, x in ((0.5, 60.0 / 7.0), (0.5, -0.01), (0.5, -5.0), (1.0, -0.5), (2.0, -0.01),
                 (2.0, -0.5)):
        sol = solve_lsd(c, D1, D1, x)
        assert abs(sol.m_under.imag) < 1e-12
        assert abs(sol.m_under - mp_companion_real(c, x)) < 1e-10 * max(1.0, abs(sol.m_under))
        assert abs(sol.m_under - sol.g2) < 1e-8
        assert sol.residual < 1e-8


def test_real_axis_far_field_decay():
    x = 1e6
    sol = solve_lsd(0.5, D1, D1, x)
    assert abs(sol.g1) < 1e-5
    assert abs(sol.g2) < 1e-5
    assert abs(sol.m_under + 1.0 / x) < 10.0 / x ** 2


def test_real_axis_just_above_edge():
    edge = find_bulk_edges(0.5, D1, D1)[1]
    sol = solve_lsd(0.5, D1, D1, edge * (1 + 1e-3))
    assert sol.residual < 1e-8


def test_real_axis_inside_bulk_rejected():
    with pytest.raises(DomainError, match="inside the bulk"):
        solve_lsd(0.5, D1, D1, 1.0)
    # a gap between two bulk intervals is inside the hull and not solved
    h1 = DiscreteMeasure(np.array([1.0, 10.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="inside the bulk"):
        solve_lsd(0.05, h1, D1, 4.0)
    with pytest.raises(DomainError, match="z != 0"):
        solve_lsd(0.5, D1, D1, 0.0)


def test_solve_point_conjugate_symmetry():
    z = 1.3 + 0.7j
    up = solve_lsd(0.5, D1, H2_HEAVY, z)
    dn = solve_lsd(0.5, D1, H2_HEAVY, z.conjugate())
    assert abs(dn.g2 - up.g2.conjugate()) < 1e-12
    assert abs(dn.m - up.m.conjugate()) < 1e-12


# --- derivatives ------------------------------------------------------------

def central_diff(f, z, h=1e-5):
    return (f(z + h) - f(z - h)) / (2 * h)


@pytest.mark.parametrize("h2", [D1, H2_HEAVY])
def test_derivatives_match_finite_differences(h2):
    c = 0.5
    grid = [complex(re, im) for re in np.linspace(-0.5, 4.0, 5)
            for im in (0.4, 0.9, 1.5, 2.2)]
    for z in grid:
        sol = solve_lsd(c, D1, h2, z)
        der = derivatives(sol, c, D1, h2)
        for attr, getter in (("g1p", lambda s: s.g1), ("g2p", lambda s: s.g2),
                             ("m_under_p", lambda s: s.m_under)):
            fd = central_diff(lambda zz: getter(solve_lsd(c, D1, h2, zz)), z)
            assert abs(getattr(der, attr) - fd) / abs(fd) < 1e-6, (z, attr)


def test_light_tail_derivative_identity():
    sol = solve_lsd(0.5, D1, D1, 1.2 + 0.9j)
    der = derivatives(sol, 0.5, D1, D1)
    assert abs(der.m_under_p - der.g2p) < 1e-8


def test_far_field_g2_derivative_sign():
    # z g2 = -int y dH2 + O(1/z) so g2' ~ +mu_H2 / x^2 > 0 far out
    x = 50.0
    sol = solve_lsd(0.5, D1, H2_HEAVY, x)
    der = derivatives(sol, 0.5, D1, H2_HEAVY)
    mu_h2 = float(np.dot(H2_HEAVY.weights, H2_HEAVY.atoms))
    assert der.g2p.real > 0
    assert abs(der.g2p.real - mu_h2 / x ** 2) < 3 * mu_h2 / x ** 3


def test_composite_derivatives_consistent():
    sol = solve_lsd(0.5, D1, H2_HEAVY, 1 + 1j)
    der = derivatives(sol, 0.5, D1, H2_HEAVY)
    assert abs(der.zg2_p - (sol.g2 + sol.z * der.g2p)) < 1e-13
    assert abs(der.zmu_p - (sol.m_under + sol.z * der.m_under_p)) < 1e-13
    quotient = (der.m_under_p * sol.g2 - sol.m_under * der.g2p) / sol.g2 ** 2
    assert abs(der.mu_over_g2_p - quotient) < 1e-13


# --- inversion and edges ----------------------------------------------------

def test_mp_density_support():
    grid = np.linspace(1e-3, 4.0, 400)
    law = stieltjes_invert(0.5, D1, D1, grid, eps=1e-4)
    lo, hi = (1 - np.sqrt(0.5)) ** 2, (1 + np.sqrt(0.5)) ** 2
    res = grid[1] - grid[0]
    inside = law.density > 1e-3
    assert grid[inside].min() > lo - 3 * res
    assert grid[inside].max() < hi + 3 * res
    assert abs(law.total_mass - 1.0) < 1e-3


def test_zero_mass_for_large_c():
    grid = np.linspace(1e-3, 6.5, 500)
    law = stieltjes_invert(2.0, D1, D1, grid, eps=1e-4)
    assert abs(law.zero_mass - 0.5) < 1e-6
    assert abs(law.total_mass - 1.0) < 1e-3


def test_trivial_spectrum_density_vanishes():
    grid = np.linspace(0.05, 3.0, 50)
    law = stieltjes_invert(0.5, D0, D1, grid, eps=1e-4)
    assert np.all(law.density < 1e-6)


def test_invert_grid_validation():
    with pytest.raises(DomainError):
        stieltjes_invert(0.5, D1, D1, np.array([1.0, 0.5]), eps=1e-4)
    with pytest.raises(DomainError):
        stieltjes_invert(0.5, D1, D1, np.linspace(0.1, 1, 10), eps=1e-1)


def test_anisotropic_invert_rejects_non_unit_pi():
    # at pi = 2 e1 the inverted law would carry a total mass near 4
    grid = np.linspace(1e-3, 4.0, 50)
    with pytest.raises(DomainError, match="unit norm"):
        stieltjes_invert(0.5, D1, D1, grid, sigma_eig=(np.ones(8), np.eye(8)),
                         pi=2 * np.eye(8)[0])


def test_density_csv_format(tmp_path):
    grid = np.linspace(0.5, 2.5, 10)
    law = stieltjes_invert(0.5, D1, D1, grid, eps=1e-3)
    path = tmp_path / "density.csv"
    law.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,density,cdf"


def test_bulk_edges_mp():
    lo, hi = find_bulk_edges(0.5, D1, D1)
    assert abs(lo - (1 - np.sqrt(0.5)) ** 2) < 5e-3
    assert abs(hi - (1 + np.sqrt(0.5)) ** 2) < 5e-3
    lo2, hi2 = find_bulk_edges(2.0, D1, D1)
    assert abs(hi2 - (1 + np.sqrt(2)) ** 2) < 5e-3


def test_bulk_edges_heavy_tail():
    # half the radii vanish, so the top edge sits at 2 sqrt(2) (checked by
    # simulation during development)
    _, hi = find_bulk_edges(0.5, D1, H2_HEAVY)
    assert abs(hi - 2 * np.sqrt(2)) < 5e-3


def test_outer_bracket_contains_edges():
    # detected edges sit inside the closed-form bracket up to the detector's
    # bisection resolution
    for c, h2 in ((0.5, D1), (2.0, D1), (0.5, H2_HEAVY)):
        lo0, hi0 = outer_support_bracket(c, D1, h2)
        lo, hi = find_bulk_edges(c, D1, h2)
        assert lo0 - 1e-3 <= lo and hi <= hi0 + 1e-3


# H1 = delta_1 throughout.  With H2 = {0, sqrt 2} at 1/2 each the SCM is
# sqrt(2) S1 with S1 a light-tail SCM at aspect 2c (the binomial column count
# does not move the limit), so its edges are (1 -+ sqrt(2c))^2 / sqrt(2).
EDGE_CLOSED_FORMS = [
    (0.25, H2_HEAVY, (1 - np.sqrt(0.5)) ** 2 / np.sqrt(2), (1 + np.sqrt(0.5)) ** 2 / np.sqrt(2)),
    (0.5, H2_HEAVY, 0.0, 2 * np.sqrt(2)),        # effective aspect 1
    (2.0, H2_HEAVY, 1 / np.sqrt(2), 9 / np.sqrt(2)),
    (0.5, D1, (1 - np.sqrt(0.5)) ** 2, (1 + np.sqrt(0.5)) ** 2),
    (2.0, D1, (1 - np.sqrt(2)) ** 2, (1 + np.sqrt(2)) ** 2),
    (1.0, D1, 0.0, 4.0),
]


@pytest.mark.parametrize("c, h2, lower, upper", EDGE_CLOSED_FORMS)
def test_bulk_edges_closed_forms(c, h2, lower, upper):
    lo, hi = find_bulk_edges(c, D1, h2)
    assert abs(lo - lower) < 1e-9
    assert abs(hi - upper) < 1e-9


def test_lower_edge_two_point_nu_p_brackets_real_solver():
    h2 = radius_law_to_h2(RadiusLaw("two-point", 200, 200.0))
    lo, _ = find_bulk_edges(0.5, D1, h2)
    assert abs(lo - 0.0852699) < 1e-6
    sol = solve_lsd(0.5, D1, h2, lo * (1 - 1e-4))
    assert sol.residual < 1e-10
    with pytest.raises(DomainError, match="inside the bulk"):
        solve_lsd(0.5, D1, h2, lo * (1 + 1e-3))


@pytest.mark.parametrize("c, h1, h2", [(2.0, "delta1", "gamma"), (0.5, "uniform", "two-point")])
def test_real_axis_below_small_lower_edge(c, h1, h2):
    """Just below a small lower edge, where the eps ladder once judged x to
    be inside the bulk or did not converge: the inverse-map root is exact
    and agrees with the complex solve at x + 1e-4 x i to O(1e-4).  The
    complex solve takes about 42000 iterations at the second point."""
    h1 = _uniform_bulk() if h1 == "uniform" else D1
    h2 = radius_law_to_h2(RadiusLaw("gamma", 200, 200.0 ** 2)) if h2 == "gamma" else H2_HEAVY
    x = 0.99 * find_bulk_edges(c, h1, h2)[0]
    sol = solve_lsd(c, h1, h2, x)
    assert sol.residual < 1e-12
    near = solve_lsd(c, h1, h2, complex(x, 1e-4 * x), max_iter=100_000)
    for name in ("g1", "g2"):
        assert abs(getattr(sol, name) - getattr(near, name)) < 1e-3 * abs(getattr(sol, name))


def _scaled_density(c, h1, h2, x):
    """x Im m(x + i eps)/pi at eps = 1e-6 x: a density contrast that stays
    meaningful for edges far below 1e-3."""
    return x * solve_lsd(c, h1, h2, complex(x, 1e-6 * x)).m.imag / np.pi


def _uniform_bulk():
    return nonspiked_spectrum_measure(
        PopulationSpec(p=200, spikes=(8.0,), bulk="uniform", bulk_seed=7))


@pytest.mark.parametrize("c, h1, h2", [
    (0.5, "uniform", "deterministic"),
    (0.5, "uniform", "gamma"),
    (2.0, "delta1", "gamma"),
])
def test_small_edges_density_contrast(c, h1, h2):
    h1 = _uniform_bulk() if h1 == "uniform" else D1
    h2 = D1 if h2 == "deterministic" else radius_law_to_h2(RadiusLaw("gamma", 200, 200.0 ** 2))
    lo, hi = find_bulk_edges(c, h1, h2)
    assert 0 < lo < 1e-2
    for edge, out in ((lo, -1), (hi, 1)):
        assert _scaled_density(c, h1, h2, edge * (1 + out * 1e-3)) < 2e-5
        assert _scaled_density(c, h1, h2, edge * (1 - out * 1e-3)) > 5e-4


def test_solution_json_round_trip():
    import json
    sol = solve_lsd(0.5, D1, D1, 1 + 1j)
    data = json.loads(sol.to_json())
    assert data["z"] == [1.0, 1.0]
    assert data["trivial"] is False
    assert data["residual"] < 1e-10


# --- batched solve ----------------------------------------------------------

def _laws():
    """Discrete laws with 1 to 5 positive atoms."""
    atoms = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=5, unique=True)
    return atoms.flatmap(lambda xs: st.lists(
        st.floats(0.05, 1.0), min_size=len(xs), max_size=len(xs)).map(
        lambda ws: DiscreteMeasure(np.array(xs), np.array(ws) / np.sum(ws))))


def _nodes():
    """1 to 10 points in either half plane, |Im z| >= 0.05."""
    point = st.tuples(st.floats(-2.0, 25.0), st.floats(0.05, 3.0), st.booleans())
    return st.lists(point, min_size=1, max_size=10).map(
        lambda ps: np.array([complex(x, y if up else -y) for x, y, up in ps]))


_FIELDS = ("g1", "g2", "m", "m_under")
_DER_FIELDS = ("g1p", "g2p", "m_under_p", "zg2_p", "zmu_p", "mu_over_g2_p")


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c=st.floats(0.1, 4.0), h1=_laws(), h2=_laws(), z=_nodes(),
       above=st.lists(st.floats(1.01, 10.0), max_size=3),
       extra=_nodes(), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_solve_properties(c, h1, h2, z, above, extra, seed):
    # real nodes above the upper edge ride along with the complex ones
    z = np.concatenate([z, find_bulk_edges(c, h1, h2)[1] * np.array(above)])
    batch = solve_lsd(c, h1, h2, z)
    der = derivatives(batch, c, h1, h2)
    assert isinstance(batch.iterations, int) and batch.g2.shape == z.shape

    # the same nodes shuffled among other nodes come out bit for bit the same
    mixed = np.concatenate([z, extra])
    order = np.random.default_rng(seed).permutation(mixed.size)
    other = solve_lsd(c, h1, h2, mixed[order])
    where = np.argsort(order)[:z.size]
    for name in _FIELDS:
        assert np.array_equal(getattr(other, name)[where], getattr(batch, name))

    # conjugate nodes give conjugate solutions
    conj = solve_lsd(c, h1, h2, z.conj())
    for name in _FIELDS:
        assert np.array_equal(getattr(conj, name), np.conj(getattr(batch, name)))

    total = 0
    for i, zi in enumerate(z):
        one = solve_lsd(c, h1, h2, zi)
        total += one.iterations
        for name in _FIELDS:
            assert _close(getattr(batch, name)[i], getattr(one, name)), (zi, name)
        # one z takes numpy's scalar arithmetic, which rounds apart from the
        # array loops, and m_under' = 1/z^2 - g1' g2 - g1 g2' (hence the
        # composites) can cancel: (m_under/g2)' is 0 when H2 is a point mass.
        # So the tolerance scales with those terms.
        one_der = derivatives(one, c, h1, h2)
        terms = (abs(zi) ** -2 + abs(one_der.g1p * one.g2) + abs(one.g1 * one_der.g2p)) \
            * max(1.0, abs(zi)) / min(1.0, abs(one.g2))
        for name in _DER_FIELDS:
            a, b = getattr(der, name)[i], getattr(one_der, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b), terms), (zi, name)
        # in U, read in the upper half plane
        if zi.imag != 0:
            up = one if zi.imag > 0 else solve_lsd(c, h1, h2, zi.conjugate())
            assert up.m.imag > 0 and (up.z * up.g1).imag > 0 and up.g2.imag > 0
    assert batch.iterations == total


def test_scalar_and_array_solutions():
    one = solve_lsd(0.5, D1, H2_HEAVY, 1 + 1j)
    assert isinstance(one.g2, complex) and isinstance(one.z, complex)
    grid = np.array([[1 + 1j, 2 - 0.5j], [0.5 + 2j, 3 + 0.1j]])
    many = solve_lsd(0.5, D1, H2_HEAVY, grid)
    assert many.m.shape == grid.shape and many.z.shape == grid.shape
    assert many.g2[0, 0] == one.g2
    assert many.residual == max(solve_lsd(0.5, D1, H2_HEAVY, z).residual for z in grid.ravel())
    with pytest.raises(DomainError, match="inside the bulk"):
        solve_lsd(0.5, D1, D1, np.array([1 + 1j, 2.0]))


def test_point_dispatch_mixes_real_nodes():
    z = np.array([1.3 + 0.7j, 6.0, 1.3 - 0.7j, -0.5])
    sol = solve_lsd(0.5, D1, H2_HEAVY, z)
    for i, zi in enumerate(z):
        one = solve_lsd(0.5, D1, H2_HEAVY, zi)
        for name in _FIELDS if zi.imag != 0 else ("g1", "g2"):
            assert getattr(sol, name)[i] == getattr(one, name)
        if zi.imag == 0:
            # a real node's m = -int (1 + g2 x)^-1 dH1 / z is an array division
            # here and a Python one for one z; the two can differ by one ulp
            for name in ("m", "m_under"):
                assert abs(getattr(sol, name)[i] - getattr(one, name)) <= 1e-15 * abs(getattr(one, name))


def test_convergence_error_names_first_failing_node():
    # 3+2j and 50j converge within 60 iterations, the nodes at Im z = 1e-3 do not
    z = np.array([3 + 2j, 1 + 1e-3j, 50j, 2 + 1e-3j])
    with pytest.raises(ConvergenceError, match=r"z=\(1\+0\.001j\) \(node 1 of 4\)") as err:
        solve_lsd(0.5, D1, D1, z, max_iter=60)
    assert err.value.index == 1
    with pytest.raises(ConvergenceError) as err:
        solve_lsd(0.5, D1, D1, z[1], max_iter=60)
    assert err.value.index == 0 and "node" not in str(err.value)


def test_real_node_residual_is_checked(monkeypatch):
    from elliprmt import lsd

    def perturbed(rel):  # the real solve at x > 0 moved by rel
        solve = lsd._Branches.solve
        return lambda self, x, where: tuple(v * (1 + rel * (x > 0)) for v in solve(self, x, where))

    z = np.array([1 + 1j, -0.5 + 0j, 6.0])
    monkeypatch.setattr(lsd._Branches, "solve", perturbed(1e-9))
    with pytest.raises(ConvergenceError, match=r"z=\(6\+0j\) \(node 2 of 3\) \(residual") as err:
        solve_lsd(0.5, D1, D1, z)
    assert err.value.index == 2
    monkeypatch.undo()
    monkeypatch.setattr(lsd._Branches, "solve", perturbed(1e-14))
    assert solve_lsd(0.5, D1, D1, z).residual < 1e-10


def test_inversion_failure_names_grid_point(monkeypatch):
    from elliprmt import lsd

    def fail(c, h1, h2, z, **kwargs):
        raise ConvergenceError("no convergence", residual=1.0, iterations=0, index=3)

    monkeypatch.setattr(lsd, "solve_lsd", fail)
    grid = np.linspace(0.5, 2.0, 7)
    with pytest.raises(ConvergenceError, match="grid point x=1.25:") as err:
        stieltjes_invert(0.5, D1, D1, grid)
    assert err.value.index == 3
