from __future__ import annotations

import json
import os
from importlib import resources

import numpy as np
import pytest

from elliprmt.cli import main

jsonschema = pytest.importorskip("jsonschema")


def _schema(name):
    with resources.files("elliprmt.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lsd_solve_mp(capsys):
    code, out, _ = run_cli(capsys, "lsd", "solve", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--z", "1,1")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, _schema("lsd_solution.schema.json"))
    z = 1 + 1j
    roots = np.roots([0.5 * z, z - 1 + 0.5, 1.0])
    ref = roots[np.argmax(roots.imag)]
    assert abs(complex(*data["m"]) - ref) < 1e-10


def test_lsd_solve_real_axis(capsys):
    # Marchenko-Pastur at c = 0.5: the spike alpha = 8 sits at 60/7, where
    # m_under = -1/alpha; x = 1 is inside the bulk
    code, out, _ = run_cli(capsys, "lsd", "solve", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--z", f"{60 / 7!r},0")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, _schema("lsd_solution.schema.json"))
    assert abs(complex(*data["m_under"]) - (-0.125)) < 1e-12
    code, _, err = run_cli(capsys, "lsd", "solve", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--z", "1,0")
    assert code == 1
    assert "inside the bulk" in err


def test_lsd_solve_trivial_branch(capsys):
    code, out, _ = run_cli(capsys, "lsd", "solve", "--c", "0.5", "--h1", "delta:0",
                           "--h2", "delta:1", "--z", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is True
    assert abs(complex(*data["m"]) - (-1 / (2 + 1j))) < 1e-12


def test_lsd_solve_missing_z_exits_usage():
    with pytest.raises(SystemExit) as err:
        main(["lsd", "solve", "--c", "0.5", "--h1", "delta:1", "--h2", "delta:1"])
    assert err.value.code == 1


def test_lsd_solve_bad_measure(capsys):
    code, _, err = run_cli(capsys, "lsd", "solve", "--c", "0.5",
                           "--h1", "delta:nope", "--h2", "delta:1", "--z", "1,1")
    assert code == 1
    assert "delta" in err


def test_lsd_density(tmp_path, capsys):
    out_path = tmp_path / "dens.csv"
    code, out, _ = run_cli(capsys, "lsd", "density", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--grid", "0.001:4:200",
                           "--out", str(out_path))
    assert code == 0
    assert "bulk edges" in out
    lower = float(out.split("lower=")[1].split()[0])
    upper = float(out.split("upper=")[1].split()[0])
    assert abs(lower - (1 - np.sqrt(0.5)) ** 2) < 1e-2
    assert abs(upper - (1 + np.sqrt(0.5)) ** 2) < 1e-2
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,density,cdf"
    assert len(lines) == 201


def test_lsd_density_zero_mass_for_large_c(tmp_path, capsys):
    out_path = tmp_path / "dens.csv"
    code, out, _ = run_cli(capsys, "lsd", "density", "--c", "2", "--h1", "delta:1",
                           "--h2", "delta:1", "--grid", "0.001:6.5:200",
                           "--out", str(out_path))
    assert code == 0
    assert "point mass at zero: 0.5" in out


def test_lsd_density_solver_failure(tmp_path, capsys, monkeypatch):
    from elliprmt import lsd
    from elliprmt.errors import ConvergenceError

    def fail(c, h1, h2, z, **kwargs):
        raise ConvergenceError("no convergence", residual=1.0, iterations=0)

    monkeypatch.setattr(lsd, "solve_lsd", fail)
    out_path = tmp_path / "dens.csv"
    code, _, err = run_cli(capsys, "lsd", "density", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--grid", "0.25:4:200",
                           "--out", str(out_path))
    assert code == 2
    assert "grid point x=0.25" in err
    assert not out_path.exists()


def test_lsd_density_bad_steps(capsys):
    code, _, err = run_cli(capsys, "lsd", "density", "--c", "0.5", "--h1", "delta:1",
                           "--h2", "delta:1", "--grid", "0:4:0", "--out", "x.csv")
    assert code == 1


def test_spike_predict(capsys):
    code, out, _ = run_cli(capsys, "spike", "predict", "--alpha", "8", "--c", "0.5",
                           "--h1", "delta:1", "--h2", "delta:1")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, _schema("spike_prediction.schema.json"))
    assert abs(data["theta"] - 60 / 7) < 1e-8
    assert abs(data["overlap_sq"] - 0.9238095238) < 1e-8


def test_spike_predict_subcritical(capsys):
    code, _, err = run_cli(capsys, "spike", "predict", "--alpha", "1.01", "--c", "0.5",
                           "--h1", "delta:1", "--h2", "delta:1")
    assert code == 3
    assert "threshold" in err


def test_spike_predict_bad_measure_file(capsys):
    code, _, err = run_cli(capsys, "spike", "predict", "--alpha", "8", "--c", "0.5",
                           "--h1", "file:/nonexistent.csv", "--h2", "delta:1")
    assert code == 1


def test_measure_file_round_trip(tmp_path, capsys):
    path = tmp_path / "h2.csv"
    path.write_text("atom,weight\n0.0,0.5\n1.4142135623730951,0.5\n")
    code, out, _ = run_cli(capsys, "lsd", "solve", "--c", "0.5", "--h1", "delta:1",
                           "--h2", f"file:{path}", "--z", "1,0.5")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-10


def test_spike_predict_measure_file_is_a_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spike", "predict", "--alpha", "8", "--c", "0.5",
                           "--h1", f"file:{tmp_path}", "--h2", "delta:1")
    assert code == 1
    assert err.startswith("error: cannot read measure file")


def test_spike_predict_measure_file_named_atoms(tmp_path, capsys, monkeypatch):
    # a relative path that starts with "atom" is a file name, not CSV text
    monkeypatch.chdir(tmp_path)
    (tmp_path / "atoms.csv").write_text("atom,weight\n1.0,1.0\n")
    code, out, err = run_cli(capsys, "spike", "predict", "--alpha", "8", "--c", "0.5",
                             "--h1", "file:atoms.csv", "--h2", "delta:1")
    assert code == 0, err
    assert abs(json.loads(out)["theta"] - 60.0 / 7.0) < 1e-8


def _mc_config(tmp_path, **over):
    raw = {
        "kind": "spike-dist", "p": 30, "n": 60, "reps": 25, "seed": 77,
        "radius": {"kind": "two-point", "nu_rule": "0"},
        "population": {"spikes": [8.0], "bulk": "uniform", "toeplitz_rho": 0.9,
                       "separation": 0.1},
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_mc_run_and_idempotence(tmp_path, capsys):
    cfg = _mc_config(tmp_path)
    outdir = tmp_path / "exp"
    code, out, _ = run_cli(capsys, "mc", "--config", str(cfg), "--out", str(outdir))
    assert code == 0
    summary_path = outdir / "summary.json"
    first = summary_path.read_bytes()
    summary = json.loads(first)
    jsonschema.validate(summary, _schema("summary.schema.json"))
    code, _, _ = run_cli(capsys, "mc", "--config", str(cfg), "--jobs", "4",
                         "--out", str(outdir))
    assert code == 0
    assert summary_path.read_bytes() == first


def test_mc_unknown_config_key(tmp_path, capsys):
    cfg = _mc_config(tmp_path, extra_knob=1)
    code, _, err = run_cli(capsys, "mc", "--config", str(cfg), "--out",
                           str(tmp_path / "e"))
    assert code == 1
    assert "extra_knob" in err


@pytest.mark.parametrize("kind,pi,z_points", [
    ("vesd", ["e1", "e2"], []),
    ("bilinear-as", [["e1", "e1"], ["e2", "e3"]], [[1.0, 1.0]]),
])
def test_mc_refuses_a_pi_the_kind_does_not_read(tmp_path, capsys, kind, pi, z_points):
    # vesd reads one vector and bilinear-as one form; a pi that describes
    # more is an error, not silently cut to its first part
    cfg = _mc_config(tmp_path, kind=kind, p=12, n=24, reps=3, pi=pi, z_points=z_points,
                     population={"spikes": [], "bulk": "ones"})
    code, _, err = run_cli(capsys, "mc", "--config", str(cfg), "--out",
                           str(tmp_path / "out"))
    assert code == 1
    assert err.startswith(f"error: {kind} reads one")
    assert not (tmp_path / "out").exists()


def test_mc_repeated_z_points_fail_before_any_replicate(tmp_path, capsys, monkeypatch):
    # two equal z points would reach cov_m at coincident points; the config
    # is refused before a replicate runs
    from elliprmt import experiments

    def no_replicates(*args, **kwargs):
        raise AssertionError("replicates ran")

    monkeypatch.setattr(experiments, "_run_replicates", no_replicates)
    cfg = _mc_config(tmp_path, kind="bilinear-clt", p=12, n=24, reps=3, pi="e1",
                     z_points=[[1.5, 1.0], [1.5, 1.0]],
                     population={"spikes": [], "bulk": "ones"})
    code, _, err = run_cli(capsys, "mc", "--config", str(cfg), "--out",
                           str(tmp_path / "out"))
    assert code == 1
    assert err == "error: bilinear-clt z_points must be distinct\n"


def test_mc_seed_env_fallback(tmp_path, capsys, monkeypatch):
    raw = json.loads(_mc_config(tmp_path).read_text())
    del raw["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setenv("ELLIPRMT_SEED", "12345")
    code, out, _ = run_cli(capsys, "mc", "--config", str(path), "--out",
                           str(tmp_path / "env"))
    assert code == 0
    summary = json.loads((tmp_path / "env" / "summary.json").read_text())
    assert summary["seed"] == 12345


def test_mc_seed_env_not_an_integer(tmp_path, capsys, monkeypatch):
    raw = json.loads(_mc_config(tmp_path).read_text())
    del raw["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setenv("ELLIPRMT_SEED", "abc")
    code, _, err = run_cli(capsys, "mc", "--config", str(path), "--out",
                           str(tmp_path / "env"))
    assert code == 1
    assert err.startswith("error: ELLIPRMT_SEED")
    assert not (tmp_path / "env").exists()


def test_mc_seed_flag_overrides(tmp_path, capsys):
    cfg = _mc_config(tmp_path)
    code, _, _ = run_cli(capsys, "mc", "--config", str(cfg), "--seed", "99",
                         "--out", str(tmp_path / "s"))
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["seed"] == 99


def test_plot_histogram(tmp_path, capsys):
    cfg = _mc_config(tmp_path)
    outdir = tmp_path / "exp2"
    run_cli(capsys, "mc", "--config", str(cfg), "--out", str(outdir))
    svg_path = tmp_path / "hist.svg"
    code, _, _ = run_cli(capsys, "plot", "--hist", str(outdir / "hist.csv"),
                         "--out", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "<rect" in text and "<polyline" in text
    assert text.rstrip().endswith("</svg>")


def test_plot_single_row_csv(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("bin_left,bin_right,count,gauss_density\n0.0,1.0,5,0.5\n")
    svg_path = tmp_path / "one.svg"
    code, _, _ = run_cli(capsys, "plot", "--hist", str(path), "--out", str(svg_path))
    assert code == 0
    assert "<rect" in svg_path.read_text()


def test_plot_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "plot", "--hist", str(path),
                           "--out", str(tmp_path / "no.svg"))
    assert code == 1


def test_plot_xy_table(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text("p,mean,theory\n64,0.92,0.925\n96,0.923,0.924\n128,0.924,0.9239\n")
    svg_path = tmp_path / "sweep.svg"
    code, _, _ = run_cli(capsys, "plot", "--xy", str(path), "--out", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    assert "<circle" in text


def test_plot_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run_cli(capsys, "plot", "--out", str(tmp_path / "x.svg"))
    assert code == 1
