"""Command-line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
non-convergence, 3 subcritical spike.  ELLIPRMT_SEED is used as the seed
fallback when neither --seed nor the config supplies one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import (ConfigError, ConvergenceError, DomainError, ElliprmtError,
                     SubcriticalSpikeError)
from .experiments import ExperimentConfig, run_experiment
from .lsd import find_bulk_edges, solve_lsd, stieltjes_invert
from .measures import DiscreteMeasure
from .spikes import predict_spike
from .svgplot import svg_histogram, svg_xy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_SUBCRITICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; usage errors are 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_measure(text: str) -> DiscreteMeasure:
    if text.startswith("delta:"):
        try:
            return DiscreteMeasure.point_mass(float(text[6:]))
        except ValueError as exc:
            raise ConfigError(f"bad point mass spec {text!r}: {exc}") from exc
    if text.startswith("file:"):
        return DiscreteMeasure.from_csv(text[5:])
    raise ConfigError(f"measure spec {text!r} must be 'delta:<x>' or 'file:<path>'")


def _parse_z(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ConfigError(f"bad z spec {text!r}; expected 're,im'") from exc


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}; expected 'lo:hi:steps'") from exc
    if steps < 2 or hi <= lo:
        raise ConfigError(f"grid {text!r} needs lo < hi and steps >= 2")
    return np.linspace(lo, hi, steps)


def _cmd_lsd_solve(args) -> int:
    h1 = _parse_measure(args.h1)
    h2 = _parse_measure(args.h2)
    z = _parse_z(args.z)
    sol = solve_lsd(args.c, h1, h2, z, tol=args.tol, max_iter=args.max_iter)
    print(sol.to_json())
    return EXIT_OK


def _cmd_lsd_density(args) -> int:
    h1 = _parse_measure(args.h1)
    h2 = _parse_measure(args.h2)
    grid = _parse_grid(args.grid)
    law = stieltjes_invert(args.c, h1, h2, grid, eps=args.eps)
    law.write_csv(args.out)
    try:
        edges = find_bulk_edges(args.c, h1, h2)
        print(f"bulk edges: lower={edges[0]!r} upper={edges[1]!r}")
    except ElliprmtError as exc:
        print(f"bulk edges unavailable: {exc}", file=sys.stderr)
    if law.zero_mass > 0:
        print(f"point mass at zero: {law.zero_mass!r}")
    print(f"wrote {args.out} (total mass {law.total_mass!r})")
    return EXIT_OK


def _cmd_spike_predict(args) -> int:
    h1 = _parse_measure(args.h1)
    h2 = _parse_measure(args.h2)
    print(predict_spike(args.c, h1, h2, args.alpha).to_json())
    return EXIT_OK


def _cmd_mc(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    elif "seed" not in raw and os.environ.get("ELLIPRMT_SEED"):
        env_seed = os.environ["ELLIPRMT_SEED"]
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"ELLIPRMT_SEED must be an integer, got {env_seed!r}") from exc
    cfg = ExperimentConfig.from_dict(raw)
    result = run_experiment(cfg, jobs=args.jobs)
    outdir = args.out or f"{cfg.kind}-{cfg.seed}"
    result.write(outdir)
    print(json.dumps({"kind": cfg.kind, "outdir": outdir,
                      "failures": result.failures,
                      "records": int(result.records.shape[0])}))
    if result.failures:
        print(f"warning: {result.failures} replicate(s) failed", file=sys.stderr)
    return EXIT_OK


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"{path} is empty")
    header, data = rows[0], [r for r in rows[1:] if r]
    if not data:
        raise ConfigError(f"{path} has a header but no data rows")
    return header, data


def _cmd_plot(args) -> int:
    if (args.hist is None) == (args.xy is None):
        raise ConfigError("plot needs exactly one of --hist or --xy")
    if args.hist:
        header, data = _read_csv(args.hist)
        cols = {name: [float(r[i]) for r in data] for i, name in enumerate(header)}
        for required in ("bin_left", "bin_right", "count"):
            if required not in cols:
                raise ConfigError(f"histogram CSV lacks column {required!r}")
        gauss = cols.get("gauss_density")
        if gauss is None and args.theory:
            with open(args.theory, "r", encoding="utf-8") as fh:
                th = json.load(fh)
            mu, sd = th["theta"], th["sd_lambda1"]
            centers = 0.5 * (np.array(cols["bin_left"]) + np.array(cols["bin_right"]))
            gauss = np.exp(-0.5 * ((centers - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        svg = svg_histogram(cols["bin_left"], cols["bin_right"], cols["count"],
                            gauss_density=gauss, title=args.title,
                            xlabel=args.xlabel or "value")
    else:
        header, data = _read_csv(args.xy)
        if len(header) < 2:
            raise ConfigError("xy CSV needs an x column plus at least one series")
        x = [float(r[0]) for r in data]
        series = {name: [float(r[i]) for r in data]
                  for i, name in enumerate(header) if i > 0}
        svg = svg_xy(x, series, title=args.title, xlabel=args.xlabel or header[0])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="elliprmt",
                     description="Spectral limits of elliptical sample covariance "
                                 "matrices: solver, theory, Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    lsd = sub.add_parser("lsd", help="limit spectral law operations")
    lsd_sub = lsd.add_subparsers(dest="lsd_command", required=True)
    ls = lsd_sub.add_parser("solve", help="solve the coupled system at one z")
    ls.add_argument("--c", type=float, required=True)
    ls.add_argument("--h1", required=True)
    ls.add_argument("--h2", required=True)
    ls.add_argument("--z", required=True,
                    help="point as 're,im'; im = 0 solves on the real axis outside the bulk")
    ls.add_argument("--tol", type=float, default=1e-12)
    ls.add_argument("--max-iter", type=int, default=10_000)
    ls.set_defaults(func=_cmd_lsd_solve)
    ld = lsd_sub.add_parser("density", help="invert the law to density and CDF")
    ld.add_argument("--c", type=float, required=True)
    ld.add_argument("--h1", required=True)
    ld.add_argument("--h2", required=True)
    ld.add_argument("--grid", required=True, help="'lo:hi:steps'")
    ld.add_argument("--eps", type=float, default=1e-4)
    ld.add_argument("--out", default="density.csv")
    ld.set_defaults(func=_cmd_lsd_density)

    spike = sub.add_parser("spike", help="spiked-model predictions")
    spike_sub = spike.add_subparsers(dest="spike_command", required=True)
    sp = spike_sub.add_parser("predict", help="location/variance/overlap for one spike")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--h1", required=True, help="non-spiked population spectrum")
    sp.add_argument("--h2", required=True)
    sp.set_defaults(func=_cmd_spike_predict)

    mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    mc.add_argument("--config", required=True)
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--jobs", type=int, default=1)
    mc.add_argument("--out", default=None)
    mc.set_defaults(func=_cmd_mc)

    plot = sub.add_parser("plot", help="render experiment output as SVG")
    plot.add_argument("--hist", default=None)
    plot.add_argument("--xy", default=None)
    plot.add_argument("--theory", default=None)
    plot.add_argument("--out", required=True)
    plot.add_argument("--title", default="")
    plot.add_argument("--xlabel", default=None)
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SubcriticalSpikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"detectability threshold: {exc.threshold!r}", file=sys.stderr)
        return EXIT_SUBCRITICAL


if __name__ == "__main__":
    sys.exit(main())
