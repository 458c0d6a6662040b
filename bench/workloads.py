"""The three workloads: their inputs, one unit of work each, and its checks.

A unit is one whole call sequence with inputs drawn from (seed, unit
index): one ``elliprmt mc`` run for the Monte Carlo workloads, one sweep of
bulk edges and spike predictions for ``theory-spike``.  Inputs are made
here and handed to the program; the program's outputs are then checked
against ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import oracles

WORKLOADS = ("mc-spike-heavy", "mc-vesd-haar", "theory-spike")

P = 200
N = 400
SPIKE_ALPHA = 8.0
MC_REPS = {"mc-spike-heavy": 300, "mc-vesd-haar": 400}
# Monte Carlo agreement limit, in standard errors
Z_LIMIT = 5.0

THEORY_C = (0.5, 2.0)
THEORY_H2 = {"det": ("deterministic", 0.0), "tp-p": ("two-point", float(P)),
             "tp-p2": ("two-point", float(P) ** 2), "gamma-p2": ("gamma", float(P) ** 2)}
# One alpha is drawn from each range.  Every range lies above the largest
# detectability threshold of the sweep (about 8.4, at c = 2 with H1 = delta_1
# and the gamma law), so no prediction is subcritical.
ALPHA_RANGES = ((9.0, 11.0), (11.0, 14.0), (14.0, 18.0))


def unit_seed(seed: int, workload: str, unit: int) -> int:
    ss = np.random.SeedSequence([int(seed), WORKLOADS.index(workload), int(unit)])
    return int(ss.generate_state(1)[0])


@dataclass
class Unit:
    """Timings and counts of one unit of work."""

    wall_s: float
    items: int
    failed: int
    first_item: float | None = None   # perf_counter when the first item began
    items_phase_s: float | None = None
    cpu_s: float | None = None
    records_sha256: str | None = None


class Checks:
    """Named pass/fail results with the numbers behind them."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def close(self, name: str, value: float, ref: float, rtol: float) -> None:
        value, ref = float(value), float(ref)
        err = abs(value - ref) / max(abs(ref), 1e-300)
        self.add(name, err <= rtol, f"{value!r} vs {ref!r}: rel err {err:.2e} (tol {rtol:g})")

    def within_se(self, name: str, value: float, ref: float, se: float) -> None:
        z = (value - ref) / se if se > 0 else float("inf")
        self.add(name, abs(z) <= Z_LIMIT,
                 f"{value!r} vs {ref!r}, se {se:.3g}: z = {z:+.2f} (limit {Z_LIMIT})")

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if not r["ok"]]


def run_and_check(el, cli, workload: str, seed: int, unit: int, jobs: int | None,
                  outdir: str, probe, checks: Checks) -> Unit:
    """Run unit ``unit`` of a workload with ``probe`` installed, then check it."""
    if workload == "theory-spike":
        inputs = theory_inputs(seed, unit)
        result, out = run_theory_unit(el, inputs, probe)
        check_theory(inputs, out, checks)
        return result
    cfg = mc_config(workload, seed, unit)
    result = run_mc_unit(cli, cfg, jobs, outdir, probe)
    if result.records_sha256 is not None:
        check_mc(el, workload, cfg, outdir, checks)
    return result


# ---------------------------------------------------------------------------
# Monte Carlo workloads, run through the command line entry point
# ---------------------------------------------------------------------------

def mc_config(workload: str, seed: int, unit: int) -> dict:
    useed = unit_seed(seed, workload, unit)
    cfg = {"p": P, "n": N, "reps": MC_REPS[workload], "seed": useed % 2 ** 31}
    if workload == "mc-spike-heavy":
        cfg.update(kind="spike-dist",
                   radius={"kind": "two-point", "nu_rule": "p^2"},
                   population={"spikes": [SPIKE_ALPHA], "bulk": "uniform",
                               "toeplitz_rho": 0.9, "separation": 0.1})
    else:
        rng = np.random.default_rng([useed, 1])
        pi = rng.standard_normal(P)
        cfg.update(kind="vesd",
                   radius={"kind": "two-point", "nu_rule": "p"},
                   population={"spikes": [], "bulk": "ones"},
                   pi=(pi / np.linalg.norm(pi)).tolist())
    return cfg


def run_mc_unit(cli, cfg: dict, jobs: int, outdir: str, probe) -> Unit:
    """One ``elliprmt mc`` run; ``probe`` is installed around the call only."""
    os.makedirs(outdir, exist_ok=True)
    cfg_path = os.path.join(outdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    argv = ["mc", "--config", cfg_path, "--jobs", str(jobs), "--out", outdir]
    captured = io.StringIO()
    with probe, contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        return Unit(wall_s=wall, items=cfg["reps"], failed=cfg["reps"])
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    unit = Unit(wall_s=wall, items=cfg["reps"], failed=int(summary["failures"]),
                records_sha256=summary["records_sha256"])
    if getattr(probe, "observed", False):
        unit.first_item = probe.first_start
        unit.items_phase_s = probe.phase_s
        unit.cpu_s = probe.phase_cpu_s
    return unit


def _read_records(outdir: str) -> dict:
    with open(os.path.join(outdir, "records.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: rows[:, i] for i, name in enumerate(header)}


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_mc(el, workload: str, cfg: dict, outdir: str, checks: Checks) -> None:
    records = _read_records(outdir)
    summary = _load(outdir, "summary.json")
    theory = _load(outdir, "theory.json")
    first = next(iter(records.values()))
    checks.add("records.rows", first.size == cfg["reps"],
               f"{first.size} rows for {cfg['reps']} replicates")
    excfg = el.ExperimentConfig.from_dict(cfg)
    spec, law = excfg.population_spec(), excfg.radius_law()
    # replicates whose outputs are recomputed from their drawn samples
    picks = sorted({0, cfg["reps"] // 2, cfg["reps"] - 1})
    samples = {r: el.draw_sample(spec, law, cfg["n"], el.replicate_seed(cfg["seed"], r))
               for r in picks}
    if workload == "mc-spike-heavy":
        _check_spike(el, cfg, spec, law, records, summary, theory, samples, checks)
    else:
        _check_vesd(cfg, law, records, summary, theory, samples, checks)


def _check_spike(el, cfg, spec, law, records, summary, theory, samples, checks):
    lam = records["lambda_1"]
    ok = lam[np.isfinite(lam)]
    n = cfg["n"]
    theta, sdsq = theory["theta"], theory["sigma_delta_sq"]
    checks.close("spike.summary_mean", summary["mean_lambda1"], float(ok.mean()), 1e-12)
    checks.close("spike.summary_var", summary["var_lambda1"], float(ok.var(ddof=1)), 1e-9)
    checks.within_se("spike.mc_mean_vs_theta", float(ok.mean()), theta, oracles.mean_se(ok))
    std = np.sqrt(n) * (ok - theta) / (theta * np.sqrt(sdsq))
    checks.within_se("spike.mc_std_variance_vs_1", float(np.var(std, ddof=1)), 1.0,
                     oracles.variance_se(std))
    sigma = el.build_population(spec)[0]
    worst = 0.0
    for r, sample in samples.items():
        own = oracles.scm_top_eigenvalue(sample.data, sigma, law.m_p)
        worst = max(worst, abs(own - lam[r]) / own)
    checks.add("spike.lambda1_recomputed", worst < 1e-9,
               f"max rel diff {worst:.2e} over replicates {sorted(samples)} (tol 1e-9)")


def _check_vesd(cfg, law, records, summary, theory, samples, checks):
    p, n, m_p = cfg["p"], cfg["n"], law.m_p
    pi = np.asarray(cfg["pi"], dtype=float)
    pi /= np.linalg.norm(pi)
    centering = p / np.sqrt(m_p)   # (p / sqrt(m_p)) pi^T Sigma pi with Sigma = I
    checks.close("vesd.centering_x", theory["centering"]["x"], centering, 1e-4)
    checks.close("vesd.theory_cov_x_x", theory["cov"]["x_x"],
                 (p / n) * (3.0 - p * p / m_p), 1e-4)
    x = records["stat_x"]
    x = x[np.isfinite(x)]
    checks.within_se("vesd.mc_mean_stat_x", float(x.mean()), 0.0, oracles.mean_se(x))
    checks.within_se("vesd.mc_var_stat_x", float(x.var(ddof=1)),
                     oracles.vesd_stat_x_variance(p, n, m_p), oracles.variance_se(x))
    checks.close("vesd.summary_var", summary["var"][0], float(x.var(ddof=1)), 1e-9)
    const = float(np.nanmax(np.abs(records["stat_const"])))
    checks.add("vesd.max_abs_stat_const",
               summary["max_abs_stat_const"] < 1e-8 and const < 1e-8,
               f"summary {summary['max_abs_stat_const']:.2e}, records {const:.2e} (< 1e-8)")
    worst = 0.0
    for r, sample in samples.items():
        own = np.sqrt(p) * (oracles.scm_quadratic_form(sample.data, pi, m_p)
                            - theory["centering"]["x"])
        worst = max(worst, abs(own - records["stat_x"][r]))
    checks.add("vesd.stat_x_recomputed", worst < 1e-8,
               f"max abs diff {worst:.2e} over replicates {sorted(samples)} (tol 1e-8)")


# ---------------------------------------------------------------------------
# theory-spike: bulk edges, then spike predictions, no sampling
# ---------------------------------------------------------------------------

def theory_inputs(seed: int, unit: int) -> dict:
    useed = unit_seed(seed, "theory-spike", unit)
    rng = np.random.default_rng([useed, 1])
    pairs = [(c, h1, h2) for c in THEORY_C for h1 in ("delta1", "uniform")
             for h2 in THEORY_H2]
    alphas = {pair: [float(rng.uniform(lo, hi)) for lo, hi in ALPHA_RANGES]
              for pair in pairs}
    return {"bulk_seed": useed % 2 ** 31, "pairs": pairs, "alphas": alphas}


def run_theory_unit(el, inputs: dict, probe) -> tuple[Unit, dict]:
    """Measures and edges for every pair (set-up), then every prediction."""
    errors = (el.ElliprmtError, ValueError, ArithmeticError)
    out = {"h1": {}, "h2": {}, "edges": {}, "pred": {}}
    failed = 0
    with probe:
        t0 = time.perf_counter()
        for name, (kind, nu) in THEORY_H2.items():
            out["h2"][name] = el.radius_law_to_h2(el.RadiusLaw(kind, P, nu))
        out["h1"]["delta1"] = el.DiscreteMeasure.point_mass(1.0)
        out["h1"]["uniform"] = el.nonspiked_spectrum_measure(el.PopulationSpec(
            p=P, spikes=(SPIKE_ALPHA,), bulk="uniform", bulk_seed=inputs["bulk_seed"]))
        for pair in inputs["pairs"]:
            c, h1, h2 = pair
            try:
                out["edges"][pair] = el.find_bulk_edges(c, out["h1"][h1], out["h2"][h2])
            except errors:
                failed += len(inputs["alphas"][pair])
        t_items = time.perf_counter()
        for pair, edges in out["edges"].items():
            c, h1, h2 = pair
            for alpha in inputs["alphas"][pair]:
                try:
                    out["pred"][(pair, alpha)] = el.predict_spike(
                        c, out["h1"][h1], out["h2"][h2], alpha, edge=edges[1])
                except errors:
                    failed += 1
        t_end = time.perf_counter()
    items = sum(len(a) for a in inputs["alphas"].values())
    return Unit(wall_s=t_end - t0, items=items, failed=failed, first_item=t_items,
                items_phase_s=t_end - t_items), out


def check_theory(inputs: dict, out: dict, checks: Checks) -> None:
    for name, h2 in out["h2"].items():
        _, nu = THEORY_H2[name]
        m_p = nu + P * P
        checks.close(f"h2.{name}.mean", float(np.dot(h2.weights, h2.atoms)),
                     P / np.sqrt(m_p), 1e-9)
        checks.close(f"h2.{name}.second_moment",
                     float(np.dot(h2.weights, h2.atoms ** 2)), 1.0, 1e-9)
    closed = {("delta1", "det"): oracles.bbp, ("delta1", "tp-p2"): oracles.heavy_two_point}
    for pair, (_, upper) in out["edges"].items():
        c, h1n, h2n = pair
        tag = f"c={c} H1={h1n} H2={h2n}"
        ref = closed.get((h1n, h2n))
        if ref is not None:   # the closed-form edge does not depend on alpha
            checks.close(f"{tag} upper edge", upper, ref(SPIKE_ALPHA, c)["edge"], 1e-5)
        h1, h2 = out["h1"][h1n], out["h2"][h2n]
        thetas = []
        for alpha in inputs["alphas"][pair]:
            pred = out["pred"].get((pair, alpha))
            if pred is None:
                continue
            at = f"{tag} alpha={alpha:.4f}"
            thetas.append(pred.theta)
            if ref is not None:
                want = ref(alpha, c)
                for key in ("theta", "overlap_sq", "sigma_delta_sq"):
                    checks.close(f"{at} {key}", getattr(pred, key), want[key], 1e-9)
            resid, branch = oracles.fixed_point_residual(
                c, h1.atoms, h1.weights, h2.atoms, h2.weights, pred.theta, alpha)
            checks.add(f"{at} fixed point", resid < 1e-10 and branch,
                       f"residual {resid:.2e} (tol 1e-10), on branch: {branch}")
            checks.add(f"{at} properties",
                       pred.theta > upper and 0 < pred.overlap_sq < 1
                       and pred.sigma_delta_sq > 0,
                       f"theta {pred.theta!r} > edge {upper!r}, "
                       f"overlap {pred.overlap_sq!r} in (0,1), "
                       f"sigma^2 {pred.sigma_delta_sq!r} > 0")
        checks.add(f"{tag} theta increasing", all(np.diff(thetas) > 0),
                   f"thetas {thetas}")
