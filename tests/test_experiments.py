from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from elliprmt import experiments
from elliprmt.errors import ConfigError
from elliprmt.experiments import (EXPERIMENT_KINDS, ExperimentConfig,
                                  _ks_normal, _load_openblas, _one_blas_thread,
                                  _pi_pairs, _run_replicates, run_experiment)

OPENBLAS = _load_openblas()
needs_openblas = pytest.mark.skipif(
    OPENBLAS is None, reason="numpy's BLAS exports no OpenBLAS thread-count symbol")


def spike_cfg(**over):
    raw = {
        "kind": "spike-dist", "p": 40, "n": 80, "reps": 60, "seed": 7,
        "radius": {"kind": "two-point", "nu_rule": "0"},
        "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9,
                       "separation": 0.1},
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="'bogus'"):
        ExperimentConfig.from_dict({"kind": "spike-dist", "p": 4, "n": 8,
                                    "reps": 1, "seed": 0, "bogus": 1})
    with pytest.raises(ConfigError, match="'shape'"):
        spike_cfg(radius={"nu_rule": "0", "shape": 2})
    with pytest.raises(ConfigError, match="'rho'"):
        spike_cfg(population={"spikes": [8.0], "rho": 0.9})


def test_missing_required_key():
    with pytest.raises(ConfigError, match="'seed'"):
        ExperimentConfig.from_dict({"kind": "spike-dist", "p": 4, "n": 8, "reps": 1})


def test_unknown_kind_and_rule():
    with pytest.raises(ConfigError, match="kind"):
        spike_cfg(kind="noise")
    cfg = spike_cfg(radius={"nu_rule": "p^3"})
    with pytest.raises(ConfigError, match="nu_p rule"):
        cfg.radius_law()


def test_chi_square_nu_rule():
    # chi-square forces nu_p = 2p: no rule means "2p", any other rule is refused
    assert spike_cfg(radius={"kind": "chi-square"}).radius_law().nu_p == 80.0
    # and the summary reports the rule the law was built with
    res = run_experiment(spike_cfg(radius={"kind": "chi-square"}, reps=3))
    assert (res.summary["nu_rule"], res.summary["radius_kind"]) == ("2p", "chi-square")
    for rule in ("0", "p", "p^2"):
        with pytest.raises(ConfigError, match="chi-square radius forces nu_rule '2p'"):
            spike_cfg(radius={"kind": "chi-square", "nu_rule": rule}).radius_law()


def test_nu_rule_values():
    for rule, expect in (("0", 0.0), ("sqrt_p", np.sqrt(40)), ("p", 40.0),
                         ("p^2", 1600.0), ("2p", 80.0)):
        law = spike_cfg(radius={"kind": "two-point", "nu_rule": rule}).radius_law()
        assert law.nu_p == pytest.approx(expect)
    law = spike_cfg(radius={"kind": "chi-square", "nu_rule": "2p"}).radius_law()
    assert law.kind == "chi-square"


def test_config_round_trip():
    cfg = spike_cfg(z_points=[[1.5, 1.0]])
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_run_replicates_collects_failures():
    def worker(r):
        if r == 2:
            raise RuntimeError("boom")
        return [float(r)]

    records, failures = _run_replicates(5, 1, worker, 1)
    assert failures == 1
    assert np.isnan(records[2, 0])
    assert records[4, 0] == 4.0


@pytest.fixture
def caller_blas_threads():
    """The caller runs OpenBLAS on 2 threads; its own count comes back after."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    yield 2
    set_(before)


class _Abort(BaseException):
    """Escapes the replicate engine's per-replicate failure handling."""


@needs_openblas
@pytest.mark.parametrize("jobs", [1, 4])
def test_workers_run_on_one_blas_thread(caller_blas_threads, jobs):
    get, _ = OPENBLAS
    records, failures = _run_replicates(8, jobs, lambda r: [get()], 1)
    assert failures == 0
    assert np.all(records == 1.0)
    assert get() == caller_blas_threads


@needs_openblas
def test_blas_threads_restored_after_run(caller_blas_threads, monkeypatch):
    get, _ = OPENBLAS
    run_experiment(spike_cfg(reps=4), jobs=2)
    assert get() == caller_blas_threads

    def abort(*args, **kwargs):
        raise _Abort

    monkeypatch.setattr(experiments, "draw_sample", abort)
    for jobs in (1, 2):
        with pytest.raises(_Abort):
            run_experiment(spike_cfg(reps=4), jobs=jobs)
        assert get() == caller_blas_threads


@needs_openblas
def test_blas_pin_nests(caller_blas_threads):
    get, _ = OPENBLAS
    with _one_blas_thread():
        with _one_blas_thread():
            assert get() == 1
        assert get() == 1          # the outer pin is still held
    assert get() == caller_blas_threads


@needs_openblas
def test_blas_pin_shared_by_caller_threads(caller_blas_threads):
    """Overlapping pins from more caller threads than cores: every one sees
    one BLAS thread, and the caller's count returns once all have left."""
    get, _ = OPENBLAS
    seen = []

    def caller():
        for _ in range(200):
            with _one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 1200 and set(seen) == {1}
    assert get() == caller_blas_threads


@needs_openblas
def test_blas_pin_without_library_does_nothing(caller_blas_threads, monkeypatch):
    get, _ = OPENBLAS
    monkeypatch.setattr(experiments, "_OPENBLAS", None)
    with _one_blas_thread():
        assert get() == caller_blas_threads
    records, _ = _run_replicates(3, 2, lambda r: [get()], 1)
    assert np.all(records == caller_blas_threads)


def test_pi_pairs_forms():
    cfg = spike_cfg(pi="e1")
    (a, b), (c, d) = _pi_pairs(cfg, 40)
    assert a[0] == 1.0 and np.array_equal(a, b) and np.array_equal(a, c)
    cfg = spike_cfg(pi=["e1", "e2"])
    (a, b), (c, d) = _pi_pairs(cfg, 40)
    assert a[0] == 1.0 and b[1] == 1.0 and np.array_equal(a, c)
    cfg = spike_cfg(pi=[["e1", "e1"], ["e2", "e2"]])
    (a, b), (c, d) = _pi_pairs(cfg, 40)
    assert np.array_equal(a, b) and c[1] == 1.0 and not np.array_equal(a, c)
    cfg = spike_cfg(pi="uniform")
    (a, _), _ = _pi_pairs(cfg, 40)
    assert abs(np.linalg.norm(a) - 1) < 1e-12
    with pytest.raises(ConfigError):
        _pi_pairs(spike_cfg(pi="e99"), 40)


def test_spike_dist_outputs(tmp_path):
    cfg = spike_cfg()
    res = run_experiment(cfg, jobs=1)
    assert res.records.shape == (60, 1)
    assert res.failures == 0
    assert sum(res.hist["count"]) == 60
    assert res.summary["records_sha256"] == __import__("hashlib").sha256(
        res.records_csv().encode()).hexdigest()
    res.write(tmp_path / "out")
    for name in ("records.csv", "summary.json", "theory.json", "hist.csv"):
        assert (tmp_path / "out" / name).exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["kind"] == "spike-dist"
    assert summary["radius_conforming"] is True
    records_lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert records_lines[0] == "lambda_1"
    assert len(records_lines) == 61


@pytest.mark.parametrize("n", [1, 2, 300, 2000])
@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (0.4, 2.5), (-1.5, 0.3)])
def test_ks_normal_matches_scipy(n, shift, scale):
    from scipy import stats
    x = shift + scale * np.random.default_rng(n).standard_normal(n)
    ref = stats.kstest(x, "norm").statistic
    assert abs(_ks_normal(x) - ref) <= 1e-13 * ref


_COLD_START = """
import sys
import elliprmt, elliprmt.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
from elliprmt.experiments import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig.from_dict({
    "kind": "spike-dist", "p": 20, "n": 40, "reps": 20, "seed": 7,
    "radius": {"kind": "two-point", "nu_rule": "0"},
    "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9}}))
assert "scipy.stats" not in sys.modules
from elliprmt import RadiusLaw, radius_law_to_h2
h2 = radius_law_to_h2(RadiusLaw("gamma", p=20, nu_p=400.0))
assert h2.atoms.size == 512
"""


def test_cold_start_leaves_scipy_unloaded():
    # A fresh interpreter: this one has scipy loaded already.
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gamma_radius_flagged_nonconforming():
    cfg = spike_cfg(radius={"kind": "gamma", "nu_rule": "p"}, reps=5)
    res = run_experiment(cfg, jobs=1)
    assert res.summary["radius_conforming"] is False


def test_determinism_across_jobs():
    cfg = spike_cfg(reps=40)
    a = run_experiment(cfg, jobs=1)
    b = run_experiment(cfg, jobs=8)
    assert a.records_csv() == b.records_csv()
    assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)


def test_rerun_identical(tmp_path):
    cfg = spike_cfg(reps=20)
    run_experiment(cfg, jobs=2).write(tmp_path / "a")
    run_experiment(cfg, jobs=2).write(tmp_path / "a")  # overwrite in place
    run_experiment(cfg, jobs=1).write(tmp_path / "b")
    sa = (tmp_path / "a" / "summary.json").read_bytes()
    sb = (tmp_path / "b" / "summary.json").read_bytes()
    assert sa == sb


def test_eigvec_overlap_sweep():
    cfg = ExperimentConfig.from_dict({
        "kind": "eigvec-overlap", "p": 48, "n": 96, "reps": 40, "seed": 3,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [8.0], "bulk": "ones"},
        "grid": [48, 64],
    })
    res = run_experiment(cfg, jobs=2)
    assert len(res.summary["per_p"]) == 2
    for row in res.summary["per_p"]:
        assert abs(row["mean_overlap_sq"][0] - row["theory_overlap_sq"][0]) < 0.05
    assert res.records.shape[0] == 80  # reps per grid point


def test_bilinear_as_small():
    cfg = ExperimentConfig.from_dict({
        "kind": "bilinear-as", "p": 60, "n": 120, "reps": 8, "seed": 5,
        "radius": {"nu_rule": "p"},
        "population": {"spikes": [], "bulk": "ones"},
        "z_points": [[1.0, 1.0], [2.0, 0.5]],
        "pi": ["e1", "e2"],
    })
    res = run_experiment(cfg, jobs=2)
    assert res.summary["max_mean_abs_deviation"] < 0.2
    assert len(res.summary["mean_abs_deviation"]) == 2


def test_bilinear_clt_two_forms():
    cfg = ExperimentConfig.from_dict({
        "kind": "bilinear-clt", "p": 60, "n": 120, "reps": 200, "seed": 6,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [], "bulk": "ones"},
        "z_points": [[1.5, 1.0]],
        "pi": [["e1", "e1"], ["e2", "e2"]],
    })
    res = run_experiment(cfg, jobs=4)
    entry = res.summary["per_z"][0]
    assert "cov_m1_m2" in entry
    assert abs(entry["z_cov"]) < 5
    assert 0.5 < entry["var_ratio_m1"] < 2.0


def test_goe_entries_single_spike():
    cfg = ExperimentConfig.from_dict({
        "kind": "goe-entries", "p": 60, "n": 120, "reps": 150, "seed": 8,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [8.0], "bulk": "uniform"},
    })
    res = run_experiment(cfg, jobs=4)
    assert "O_11" in res.summary["entries"]
    assert 0.5 < res.summary["entries"]["O_11"]["var_ratio"] < 2.0


def test_vesd_const_stat_exactly_zero(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "vesd", "p": 40, "n": 80, "reps": 30, "seed": 9,
        "radius": {"nu_rule": "0"},
        "population": {"spikes": [], "bulk": "ones"},
        "pi": "e1",
    })
    res = run_experiment(cfg, jobs=2)
    assert res.summary["max_abs_stat_const"] < 1e-12
    res.write(tmp_path / "v")
    assert (tmp_path / "v" / "aniso_cdf.csv").exists()
    header = (tmp_path / "v" / "aniso_cdf.csv").read_text().splitlines()[0]
    assert header == "x,density,cdf"


def test_vesd_with_spike():
    from elliprmt.experiments import _population
    from elliprmt.sampler import nonspiked_spectrum_measure
    from elliprmt.spikes import predict_spike
    cfg = ExperimentConfig.from_dict({
        "kind": "vesd", "p": 20, "n": 40, "reps": 20, "seed": 5,
        "population": {"spikes": [8.0], "bulk": "ones"}, "pi": "uniform",
    })
    res = run_experiment(cfg)
    assert res.failures == 0
    assert all(np.all(np.isfinite(v)) for v in res.summary.values()
               if isinstance(v, (float, list)))
    spec, (_, evecs, evals), _, h2, _ = _population(cfg)
    theta = predict_spike(cfg.c, nonspiked_spectrum_measure(spec), h2, 8.0).theta
    # the reference CDF runs over the contour's span, which must enclose theta
    # and the whole finite-p law: its mass reaches 1 and int x dF = pi' Sigma pi
    grid = np.array([row.split(",") for row in
                     res.extra_files["aniso_cdf.csv"].splitlines()[1:]], dtype=float)
    assert grid[-1, 0] > theta
    assert abs(grid[-1, 2] - 1.0) < 1e-2
    pi = np.full(cfg.p, 1.0 / np.sqrt(cfg.p))
    exact_mean = float(((evecs.T @ pi) ** 2) @ evals)
    assert abs(res.theory["centering"]["x"] - exact_mean) < 1e-4 * exact_mean
    assert res.theory["quad_doubling_rel_change"] < 1e-4


# centering and covariance of this config as the per-node solver computed them
VESD_PINNED = {
    "centering": {"x": 0.8556345261257389, "x2": 0.9959582202046712},
    "cov": {"x_x": 0.7687434566965303, "x2_x2": 3.393487241242226,
            "x_x2": 1.5727178899974663},
}


def test_vesd_theory_pinned():
    cfg = ExperimentConfig.from_dict({
        "kind": "vesd", "p": 30, "n": 60, "reps": 4, "seed": 11,
        "radius": {"kind": "two-point", "nu_rule": "p"},
        "population": {"spikes": [], "bulk": "uniform", "toeplitz_rho": 0.5},
        "pi": "uniform",
    })
    theory = run_experiment(cfg).theory
    for group, values in VESD_PINNED.items():
        for key, want in values.items():
            assert abs(theory[group][key] - want) <= 1e-10 * abs(want), (group, key)
    assert theory["quad_doubling_rel_change"] < 1e-4


def test_vesd_records_match_eigh_statistic_at_any_jobs(tmp_path):
    # the Gauss-rule records equal the statistic read off the full
    # eigendecomposition, and the summary is byte-identical across workers
    from elliprmt.cli import main
    from elliprmt.covariance import build_scm
    from elliprmt.experiments import _population
    from elliprmt.sampler import draw_sample, replicate_seed
    raw = {
        "kind": "vesd", "p": 30, "n": 60, "reps": 12, "seed": 17,
        "radius": {"kind": "two-point", "nu_rule": "p^2"},
        "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9},
        "pi": "uniform",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    for jobs in ("1", "3"):
        assert main(["mc", "--config", str(cfg_path), "--jobs", jobs,
                     "--out", str(tmp_path / f"j{jobs}")]) == 0
    assert ((tmp_path / "j1" / "summary.json").read_bytes()
            == (tmp_path / "j3" / "summary.json").read_bytes())
    records = np.loadtxt(tmp_path / "j1" / "records.csv", delimiter=",", skiprows=1)
    centering = json.loads((tmp_path / "j1" / "theory.json").read_text())["centering"]
    cfg = ExperimentConfig.from_dict(raw)
    spec, _, law, _, gamma = _population(cfg)
    pi = np.full(cfg.p, 1.0 / np.sqrt(cfg.p))
    assert records.shape == (cfg.reps, 3)
    for r in range(cfg.reps):
        bundle = build_scm(draw_sample(spec, law, cfg.n, replicate_seed(cfg.seed, r)),
                           gamma=gamma)
        w = (bundle.eigenvectors.T @ pi) ** 2
        lam = bundle.eigenvalues
        want = np.sqrt(cfg.p) * np.array([w @ lam - centering["x"],
                                          w @ lam ** 2 - centering["x2"],
                                          w.sum() - 1.0])
        assert np.max(np.abs(records[r] - want)) <= 1e-12, r


def test_spike_dist_summary_identical_at_any_jobs(tmp_path):
    # lambda_1 comes from a certified Lanczos run per replicate: the records
    # equal the top eigenvalue of the full decomposition, and the summary
    # is byte-identical across workers
    from elliprmt.cli import main
    from elliprmt.covariance import build_scm
    from elliprmt.experiments import _population
    from elliprmt.sampler import draw_sample, replicate_seed
    raw = {
        "kind": "spike-dist", "p": 40, "n": 60, "reps": 24, "seed": 23,
        "radius": {"kind": "gamma", "nu_rule": "p^2"},
        "population": {"spikes": [6.0], "bulk": "uniform", "toeplitz_rho": 0.9},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    for jobs in ("1", "3"):
        assert main(["mc", "--config", str(cfg_path), "--jobs", jobs,
                     "--out", str(tmp_path / f"j{jobs}")]) == 0
    assert ((tmp_path / "j1" / "summary.json").read_bytes()
            == (tmp_path / "j3" / "summary.json").read_bytes())
    summary = json.loads((tmp_path / "j1" / "summary.json").read_text())
    assert summary["failures"] == 0
    records = np.loadtxt(tmp_path / "j1" / "records.csv", delimiter=",", skiprows=1)
    cfg = ExperimentConfig.from_dict(raw)
    spec, _, law, _, gamma = _population(cfg)
    for r in range(cfg.reps):
        ref = build_scm(draw_sample(spec, law, cfg.n, replicate_seed(cfg.seed, r)),
                        gamma=gamma).eigenvalues[-1]
        assert abs(records[r] - ref) <= 1e-12 * ref, r


def test_quadform_kind_z_scores():
    cfg = ExperimentConfig.from_dict({
        "kind": "quadform-oracle", "p": 10, "n": 2, "reps": 10, "seed": 10,
        "draws_per_rep": 5000,
    })
    res = run_experiment(cfg, jobs=2)
    assert len(res.summary["pairs"]) == 5
    for pair in res.summary["pairs"]:
        assert abs(pair["z"]) < 6


def test_all_kinds_dispatch():
    assert set(EXPERIMENT_KINDS) == {
        "spike-dist", "eigvec-overlap", "bilinear-as", "bilinear-clt",
        "vesd", "quadform-oracle", "goe-entries"}


_SMALL = {"p": 20, "n": 40, "reps": 6, "seed": 11, "radius": {"nu_rule": "p"}}
_KIND_CONFIGS = {
    "spike-dist": {"population": {"spikes": [8.0], "bulk": "uniform"}},
    "eigvec-overlap": {"population": {"spikes": [8.0], "bulk": "ones"},
                       "grid": [20, 24]},
    "bilinear-as": {"population": {"spikes": [], "bulk": "ones"},
                    "z_points": [[1.0, 1.0], [2.0, 0.5]], "pi": ["e1", "e2"]},
    "bilinear-clt": {"population": {"spikes": [], "bulk": "ones"},
                     "z_points": [[1.5, 1.0], [2.0, 0.5]],
                     "pi": [["e1", "e1"], ["e2", "e2"]]},
    "goe-entries": {"population": {"spikes": [10.0, 8.0], "bulk": "uniform"}},
    "vesd": {"population": {"spikes": [], "bulk": "ones"}, "pi": "uniform"},
    "quadform-oracle": {"draws_per_rep": 500},
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_kind_deterministic_across_jobs(kind):
    cfg = ExperimentConfig.from_dict({"kind": kind, **_SMALL, **_KIND_CONFIGS[kind]})
    a = run_experiment(cfg, jobs=1)
    b = run_experiment(cfg, jobs=2)
    assert a.failures == 0
    assert a.records_csv() == b.records_csv()
    assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)


def _numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, float):
        yield node


@pytest.mark.parametrize("kind", ["bilinear-as", "bilinear-clt", "eigvec-overlap"])
def test_one_failed_replicate_keeps_summary_finite(kind, monkeypatch):
    build_scm = experiments.build_scm
    calls = itertools.count()

    def flaky(*args, **kwargs):
        if next(calls) == 2:
            raise RuntimeError("injected failure")
        return build_scm(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_scm", flaky)
    cfg = ExperimentConfig.from_dict({"kind": kind, **_SMALL, **_KIND_CONFIGS[kind],
                                      "reps": 12})
    res = run_experiment(cfg, jobs=1)
    assert res.failures == 1
    assert res.summary["failures"] == 1
    values = list(_numbers(res.summary))
    assert values and all(np.isfinite(values))
    if kind == "bilinear-clt":
        assert "cross_cov_z0_z1" in res.summary
        return
    # the standard errors divide by the 11 finite rows, not by reps
    if kind == "bilinear-as":
        se, rows = res.summary["se"], res.records
    else:
        se, rows = res.summary["per_p"][0]["se"], res.records[:12, 1:2]
    want = np.nanstd(rows, axis=0, ddof=1) / np.sqrt(11)
    assert np.allclose(se, want, rtol=1e-12)
