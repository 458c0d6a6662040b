"""Benchmark of elliprmt: Monte Carlo replicate throughput and limit-theory cost.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-spike-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats whole units of the workload until ``--seconds`` have
passed and prints the end-to-end metrics.  ``--trace 1`` runs a fixed set of
units (untraced, then traced) and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; details, the environment record
and traces go to ``bench/out/``.  See ``bench/README.md``.
"""

import os
import time

_T_START = time.perf_counter()

# The program's own BLAS thread policy is what gets measured.  OpenBLAS
# reads these when numpy loads it, so they go before any import of numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_REMOVED_VARS = {v: os.environ.pop(v) for v in BLAS_THREAD_VARS if v in os.environ}

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")


def _process_age_s() -> float:
    """Seconds between the process's start and this script's first line.

    Read from the kernel's start time (clock-tick resolution); 0 where
    /proc is not available or its clock disagrees with this one.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return 0.0
    age -= time.perf_counter() - _T_START
    return age if 0.0 <= age < 60.0 else 0.0


PROCESS_START = _T_START - _process_age_s()


def _fail(msg: str) -> "NoReturn":  # noqa: F821
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "elliprmt", "__init__.py")):
        _fail(f"no program source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    el = importlib.import_module("elliprmt")
    cli = importlib.import_module("elliprmt.cli")
    if not os.path.abspath(el.__file__).startswith(SRC + os.sep):
        _fail(f"imported elliprmt from {el.__file__}, not from {SRC}")
    return el, cli


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    info = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        if "numpy" not in path:
            continue
        lib = ctypes.CDLL(path)
        info["library"] = os.path.basename(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            info["threads"] = int(get_threads())
        if hasattr(lib, "scipy_openblas_get_config64_"):
            get_config = lib.scipy_openblas_get_config64_
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            info["config"] = get_config().decode("ascii", "replace").strip()
    return info


def _environment(args, jobs) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas(), "nproc": _nproc(),
            "jobs": jobs, "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "removed_env": sorted(_REMOVED_VARS)}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts processes the run waited for
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------

def _untraced(el, cli, workloads, probes, args, nproc, rundir, checks):
    """Whole units at jobs = nproc until ``args.seconds`` have passed."""
    units = []
    t_begin = time.perf_counter()
    while not units or time.perf_counter() - t_begin < args.seconds:
        k = len(units)
        probe = (contextlib.nullcontext() if args.workload == "theory-spike"
                 else probes.Markers())
        unit = workloads.run_and_check(el, cli, args.workload, args.seed, k, nproc,
                                       os.path.join(rundir, f"unit{k}"), probe, checks)
        _require_phase(unit)
        units.append(unit)
    metrics = {
        "wall_s": _metric(statistics.median(u.wall_s for u in units), "s"),
        "setup_s": _metric(units[0].first_item - PROCESS_START, "s"),
        "items_per_s": _metric(statistics.median(u.items / u.items_phase_s
                                                 for u in units), "1/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return metrics, units, [dataclasses.asdict(u) for u in units]


def _require_phase(unit) -> None:
    if unit.first_item is None:
        _fail("a unit has no item phase: its program call failed, or its "
              "replicates ran where sampler.draw_sample is not seen")


def _ms_per_call(summary, name, inclusive=True):
    calls = summary["calls"].get(name, 0)
    if not calls:
        return 0.0
    total = (summary["total_s"] if inclusive else summary["self_s"])[name]
    return 1e3 * total / calls


def _traced(el, cli, workloads, probes, args, nproc, rundir, checks):
    """Untraced unit(s), then the same unit traced at jobs = 1."""
    tracer = probes.Tracer()
    if args.workload == "theory-spike":
        plan = (("plain", None, contextlib.nullcontext()), ("traced", None, tracer))
    else:
        plan = (("jobsN", nproc, probes.Markers()), ("jobs1", 1, probes.Markers()),
                ("traced", 1, tracer))
    units = {label: workloads.run_and_check(el, cli, args.workload, args.seed, 0, jobs,
                                            os.path.join(rundir, label), probe, checks)
             for label, jobs, probe in plan}
    mc = args.workload != "theory-spike"
    for label, unit in units.items():
        if label != "traced":
            _require_phase(unit)
    if mc:
        shas = {label: u.records_sha256 for label, u in units.items()}
        checks.add("records_sha256 independent of jobs and tracing",
                   len(set(shas.values())) == 1, json.dumps(shas))
    baseline = units["jobs1" if mc else "plain"]
    tracer.write(os.path.join(rundir, "spans.json.gz"))
    s = tracer.summary()
    calls = s["calls"]
    n_scm = calls.get("covariance.build_scm", 0)
    gaps = tracer.replicate_gaps_s()
    metrics = {
        "sampler.draw_sample.ms": _metric(_ms_per_call(s, "sampler.draw_sample"), "ms"),
        "covariance.build_scm.self_ms": _metric(
            _ms_per_call(s, "covariance.build_scm", inclusive=False), "ms"),
        "covariance.eigh.ms": _metric(
            1e3 * s["eigh_in_build_scm_s"] / n_scm if n_scm else 0.0, "ms"),
        "experiments.statistic.ms": _metric(
            1e3 * statistics.fmean(gaps) if gaps else 0.0, "ms"),
        "experiments.cpu_ms_per_item": _metric(
            1e3 * units["jobsN"].cpu_s / units["jobsN"].items if mc else 0.0, "ms"),
        "experiments.items_per_s.jobs1": _metric(
            units["jobs1"].items / units["jobs1"].items_phase_s if mc else 0.0, "1/s"),
        "experiments.items_per_s.jobsN": _metric(
            units["jobsN"].items / units["jobsN"].items_phase_s if mc else 0.0, "1/s"),
        "lsd.solve_lsd.calls": _metric(calls.get("lsd.solve_lsd", 0), "count"),
        "lsd.solve_lsd.iterations": _metric(s["solve_lsd_iterations"], "count"),
        "lsd.solve_lsd.us": _metric(1e3 * _ms_per_call(s, "lsd.solve_lsd"), "us"),
        "lsd.solve_lsd_real.calls": _metric(calls.get("lsd.solve_lsd_real", 0), "count"),
        "lsd.find_bulk_edges.ms": _metric(_ms_per_call(s, "lsd.find_bulk_edges"), "ms"),
        "lsd.find_bulk_edges.calls": _metric(calls.get("lsd.find_bulk_edges", 0), "count"),
        "lsd.stieltjes_invert.ms": _metric(_ms_per_call(s, "lsd.stieltjes_invert"), "ms"),
        "spikes.predict_spike.ms": _metric(_ms_per_call(s, "spikes.predict_spike"), "ms"),
        "spikes.predict_spike.calls": _metric(calls.get("spikes.predict_spike", 0), "count"),
        "spikes.transition.calls": _metric(calls.get("spikes.transition", 0), "count"),
        "kernels.eigvec_stat_cov.ms": _metric(_ms_per_call(s, "kernels.eigvec_stat_cov"), "ms"),
        "kernels.eigvec_stat_cov.calls": _metric(
            calls.get("kernels.eigvec_stat_cov", 0), "count"),
        "kernels.contour_moment.ms": _metric(_ms_per_call(s, "kernels.contour_moment"), "ms"),
        "kernels.contour_moment.calls": _metric(
            calls.get("kernels.contour_moment", 0), "count"),
        "measures.radius_law_to_h2.ms": _metric(
            _ms_per_call(s, "measures.radius_law_to_h2"), "ms"),
        "trace.overhead_pct": _metric(
            100.0 * (units["traced"].wall_s / baseline.wall_s - 1.0), "%"),
    }
    for layer in probes.LAYERS:
        metrics[f"layer.{layer}.self_s"] = _metric(s["layer_self_s"].get(layer, 0.0), "s")
    details = {label: dataclasses.asdict(u) for label, u in units.items()}
    details["trace_summary"] = s
    return metrics, list(units.values()), details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    el, cli = _import_program()
    sys.path.insert(0, BENCH_DIR)
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.seed < 0:
        _fail("--seed must be non-negative")
    nproc = _nproc()
    jobs = nproc if args.workload != "theory-spike" else None
    rundir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(rundir, exist_ok=True)
    checks = workloads.Checks()
    run = _traced if args.trace else _untraced
    metrics, units, details = run(el, cli, workloads, probes, args, nproc, rundir, checks)

    result = {"correct": checks.ok,
              "attempted": sum(u.items for u in units),
              "failed": sum(u.failed for u in units),
              "metrics": metrics}
    record = {"result": result, "environment": _environment(args, jobs),
              "units": details, "checks": checks.results}
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    for bad in checks.failures():
        print(f"bench: check failed: {bad['name']}: {bad['detail']}", file=sys.stderr)
    print(f"bench: {len(checks.results)} checks, {len(checks.failures())} failed; "
          f"details in {os.path.relpath(rundir, ROOT)}/result.json", file=sys.stderr)
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
