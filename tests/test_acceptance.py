"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one `criterion NN [PASS|FAIL]` line (run with `-s` or read
captured output).  Monte Carlo criteria use fixed seeds so every run is a
deterministic replay.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from elliprmt.experiments import ExperimentConfig, run_experiment
from elliprmt.lsd import derivatives, solve_lsd
from elliprmt.measures import DiscreteMeasure
from elliprmt.spikes import predict_spike

D1 = DiscreteMeasure.point_mass(1.0)
H2_HEAVY = DiscreteMeasure(np.array([0.0, np.sqrt(2.0)]), np.array([0.5, 0.5]))
JOBS = 8


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _mp_root(c: float, z: complex) -> complex:
    roots = np.roots([c * z, z - 1 + c, 1.0])
    return roots[np.argmax(roots.imag)]


def test_criterion_01_mp_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.1, 0.5, 1.0, 2.0):
        for _ in range(50):
            z = complex(rng.uniform(-2.0, 5.0), rng.uniform(0.1, 2.0))
            sol = solve_lsd(c, D1, D1, z)
            worst = max(worst, abs(sol.m - _mp_root(c, z)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, "MP closed-form oracle", ok,
            f"max |m - root| = {worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_companion_identities():
    rng = np.random.default_rng(2025)
    worst_a = worst_b = worst_light = 0.0
    for c in (0.25, 0.5, 1.0, 2.0):
        for h2 in (D1, H2_HEAVY):
            for _ in range(10):
                z = complex(rng.uniform(-1.0, 5.0), rng.uniform(0.1, 2.0))
                sol = solve_lsd(c, D1, h2, z)
                worst_a = max(worst_a, abs(sol.m_under - (-1 / z - sol.g1 * sol.g2)))
                worst_b = max(worst_b, abs(sol.m_under - (-(1 - c) / z + c * sol.m)))
                if h2 is D1:
                    worst_light = max(worst_light, abs(sol.m_under - sol.g2))
    ok = worst_a < 1e-10 and worst_b < 1e-10 and worst_light < 1e-10
    _report(2, "companion and light-tail identities", ok,
            f"|mu+1/z+g1g2|={worst_a:.2e}, |mu+(1-c)/z-cm|={worst_b:.2e}, "
            f"|mu-g2|={worst_light:.2e} (tol 1e-10)")


def test_criterion_03_derivative_oracle():
    c, h = 0.5, 1e-5
    grid = [complex(re, im) for re in np.linspace(-0.5, 4.5, 5)
            for im in (0.35, 0.8, 1.4, 2.0)]
    assert len(grid) == 20
    worst = 0.0
    for h2 in (D1, H2_HEAVY):
        for z in grid:
            sol = solve_lsd(c, D1, h2, z)
            der = derivatives(sol, c, D1, h2)
            for value, getter in ((der.g1p, lambda s: s.g1),
                                  (der.g2p, lambda s: s.g2),
                                  (der.m_under_p, lambda s: s.m_under)):
                fd = (getter(solve_lsd(c, D1, h2, z + h))
                      - getter(solve_lsd(c, D1, h2, z - h))) / (2 * h)
                worst = max(worst, abs(value - fd) / abs(fd))
    ok = worst < 1e-6
    _report(3, "implicit derivatives vs central differences", ok,
            f"max relative gap {worst:.2e} (tol 1e-6) on a 20-point grid")


def test_criterion_04_spike_transition():
    c, alpha = 0.5, 8.0
    pred = predict_spike(c, D1, D1, alpha)
    theta = pred.theta
    gap_theta = abs(theta - 60.0 / 7.0)
    x = 60.0 / 7.0
    disc = np.sqrt((x + 1 - c) ** 2 - 4 * x)
    mu = (-(x + 1 - c) + disc) / (2 * x)
    mup = -(mu ** 2 + mu) / (2 * x * mu + x + 1 - c)
    gap_var = abs(pred.sigma_delta_sq - 2.0 / (mup * x * x))
    expect_overlap = (1 - c / 49.0) / (1 + c / 7.0)
    gap_overlap = abs(pred.overlap_sq - expect_overlap)
    ok = gap_theta < 1e-8 and gap_var < 1e-8 and gap_overlap < 1e-8
    _report(4, "spike location, variance, overlap closed forms", ok,
            f"|theta-60/7|={gap_theta:.2e}, |var-2/(mu' t^2)|={gap_var:.2e}, "
            f"|overlap-0.9238095|={gap_overlap:.2e} (tol 1e-8)")


def test_criterion_05_sampler_oracle():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "kind": "quadform-oracle", "p": 10, "n": 2, "reps": 50, "seed": 606,
        "draws_per_rep": 20_000,
    })
    res = run_experiment(cfg, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    zs = [abs(pair["z"]) for pair in res.summary["pairs"]]
    ok = max(zs) < 5.0 and elapsed < 30.0 and res.summary["total_draws"] == 1_000_000
    _report(5, "sphere quadratic-form covariance oracle", ok,
            f"max |z| = {max(zs):.2f} over 5 pairs x 1e6 draws (tol 5 SE), "
            f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_06_bilinear_deterministic_equivalent():
    devs = {}
    for rule in ("0", "p", "p^2"):
        cfg = ExperimentConfig.from_dict({
            "kind": "bilinear-as", "p": 400, "n": 800, "reps": 50, "seed": 505,
            "radius": {"nu_rule": rule},
            "population": {"spikes": [], "bulk": "ones"},
            "z_points": [[1.0, 1.0]], "pi": "e1",
        })
        res = run_experiment(cfg, jobs=JOBS)
        devs[rule] = res.summary["max_mean_abs_deviation"]
    ok = max(devs.values()) < 0.08
    _report(6, "a.s. deterministic equivalent at p=400", ok,
            f"mean |B - equivalent| by nu rule {devs} (tol 0.08)")


def test_criterion_07_bilinear_clt():
    t0 = time.perf_counter()
    details = []
    ok = True
    for rule in ("0", "p^2"):
        cfg = ExperimentConfig.from_dict({
            "kind": "bilinear-clt", "p": 200, "n": 400, "reps": 2000, "seed": 101,
            "radius": {"nu_rule": rule},
            "population": {"spikes": [], "bulk": "ones"},
            "z_points": [[1.5, 1.0]], "pi": "e1",
        })
        res = run_experiment(cfg, jobs=JOBS)
        entry = res.summary["per_z"][0]
        ratio = entry["var_ratio_m1"]
        z_re = abs(entry["mean_m1"][0]) / entry["se_mean_m1"][0]
        z_im = abs(entry["mean_m1"][1]) / entry["se_mean_m1"][1]
        ok = ok and 0.85 <= ratio <= 1.15 and z_re < 3 and z_im < 3
        details.append(f"nu={rule}: var ratio {ratio:.3f}, mean z ({z_re:.2f},{z_im:.2f})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(7, "bilinear-form CLT variance and centering", ok,
            "; ".join(details) + f"; runtime {elapsed:.0f}s (< 600s)")


def test_criterion_08_goe_profile():
    cfg = ExperimentConfig.from_dict({
        "kind": "goe-entries", "p": 200, "n": 400, "reps": 2000, "seed": 202,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [8.0, 5.0], "bulk": "uniform"},
    })
    res = run_experiment(cfg, jobs=JOBS)
    e = res.summary["entries"]
    r11, r12 = e["O_11"]["var_ratio"], e["O_12"]["var_ratio"]
    zc = abs(e["cov_O11_O12"]["z"])
    ok = 0.85 <= r11 <= 1.15 and 0.85 <= r12 <= 1.15 and zc < 3
    _report(8, "GOE covariance profile of the spike matrix", ok,
            f"Var(O11)/s11^2={r11:.3f}, Var(O12)/s12^2={r12:.3f} "
            f"(window [0.85,1.15]), |cov z|={zc:.2f} (< 3)")


def test_criterion_09_spike_distribution():
    details = []
    ok = True
    for rule in ("p^2", "p", "sqrt_p", "0"):
        cfg = ExperimentConfig.from_dict({
            "kind": "spike-dist", "p": 100, "n": 200, "reps": 2000, "seed": 20260809,
            "radius": {"kind": "two-point", "nu_rule": rule},
            "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9,
                           "separation": 0.1},
        })
        res = run_experiment(cfg, jobs=JOBS)
        s, th = res.summary, res.theory
        mean_tol = 3 * th["theta"] * np.sqrt(th["sigma_delta_sq"]) \
            / np.sqrt(cfg.n * cfg.reps)
        mean_ok = abs(s["mean_lambda1"] - th["theta"]) < mean_tol
        var_ok = 0.85 <= s["var_ratio_standardized"] <= 1.15
        ks_ok = s["ks_statistic"] < 0.05
        ok = ok and mean_ok and var_ok and ks_ok
        details.append(f"nu={rule}: |mean-theta|={abs(s['mean_lambda1']-th['theta']):.4f}"
                       f"/{mean_tol:.4f}, var {s['var_ratio_standardized']:.3f}, "
                       f"KS {s['ks_statistic']:.4f}")
    _report(9, "spiked eigenvalue CLT across radius laws", ok, "; ".join(details))


def test_criterion_10_eigenvector_overlap():
    light_cfg = ExperimentConfig.from_dict({
        "kind": "eigvec-overlap", "p": 256, "n": 512, "reps": 500, "seed": 303,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [8.0], "bulk": "ones"},
    })
    light = run_experiment(light_cfg, jobs=JOBS).summary["per_p"][0]
    gap_light = abs(light["mean_overlap_sq"][0] - 0.9238)

    heavy_cfg = ExperimentConfig.from_dict({
        "kind": "eigvec-overlap", "p": 256, "n": 512, "reps": 500, "seed": 303,
        "radius": {"nu_rule": "p^2"},
        "population": {"spikes": [8.0], "bulk": "ones"},
    })
    heavy = run_experiment(heavy_cfg, jobs=JOBS).summary["per_p"][0]
    light_theory = 0.9238095238
    sep_se = abs(heavy["mean_overlap_sq"][0] - light_theory) / heavy["se"][0]
    gap_heavy = abs(heavy["mean_overlap_sq"][0] - heavy["theory_overlap_sq"][0])
    ok = gap_light < 0.02 and sep_se > 3 and gap_heavy < 0.03
    _report(10, "eigenvector overlap limit and phase transition", ok,
            f"|mean-0.9238|={gap_light:.4f} (<0.02); heavy tail departs light "
            f"theory by {sep_se:.0f} SE (>3) and matches its own theory within "
            f"{gap_heavy:.4f} (<0.03)")


def test_criterion_11_eigenvector_statistics_clt():
    cfg = ExperimentConfig.from_dict({
        "kind": "vesd", "p": 200, "n": 400, "reps": 2000, "seed": 404,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [], "bulk": "ones"}, "pi": "e1",
    })
    res = run_experiment(cfg, jobs=JOBS)
    ratio = res.summary["var_ratio"][0]
    conv = res.theory["quad_doubling_rel_change"]
    ok = 0.85 <= ratio <= 1.15 and conv < 1e-4
    _report(11, "eigenvector-statistic variance vs contour quadrature", ok,
            f"Var ratio {ratio:.3f} (window [0.85,1.15]), node-doubling change "
            f"{conv:.2e} (< 1e-4)")


def test_criterion_12_determinism(tmp_path):
    raw = {
        "kind": "spike-dist", "p": 50, "n": 100, "reps": 100, "seed": 424242,
        "radius": {"kind": "two-point", "nu_rule": "p"},
        "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9,
                       "separation": 0.1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    from elliprmt.cli import main
    assert main(["mc", "--config", str(cfg_path), "--jobs", "1",
                 "--out", str(tmp_path / "j1")]) == 0
    assert main(["mc", "--config", str(cfg_path), "--jobs", "8",
                 "--out", str(tmp_path / "j8")]) == 0
    b1 = (tmp_path / "j1" / "summary.json").read_bytes()
    b8 = (tmp_path / "j8" / "summary.json").read_bytes()
    ok = b1 == b8
    _report(12, "byte-identical summaries across worker counts", ok,
            f"{len(b1)} bytes at --jobs 1 vs --jobs 8")
