"""Seeded Monte Carlo experiments validating every limit prediction.

One replicate engine runs every kind that samples elliptical data: it draws
replicate r's sample from its own seed, ``replicate_seed(seed, r)`` unless
the kind derives another, on a disjoint RNG substream.  Each kind supplies
only its theory, the statistic it computes from one sample, and the
reduction of those rows, which runs in replicate order.  Each experiment
writes ``records.csv`` (one row per replicate), ``summary.json`` (stats,
standard errors, z-scores, checksum) and ``theory.json`` (matched
predictions); identical config+seed gives byte-identical summaries at any
worker count.

While replicates run, numpy's OpenBLAS is pinned to one thread, so ``jobs``
worker threads use ``jobs`` cores instead of each starting BLAS threads of
its own; the caller's thread count is restored when the replicates end.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import (_population_root, bilinear_resolvent, build_scm,
                         gauss_rule, spiked_quadform, top_eigenvalue)
from .errors import ConfigError
from .kernels import (contour_moment, cov_m, cov_m_diagonal, default_contour,
                      deterministic_equivalent, eigvec_stat_cov)
from .lsd import solve_lsd, stieltjes_invert
from .measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2
from .sampler import (PopulationSpec, build_population, draw_sample,
                      nonspiked_spectrum_measure, quadform_moment_oracle,
                      replicate_seed)
from .spikes import goe_covariance_profile, predict_spike

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_spike_dist",
    "run_eigvec_overlap",
    "run_bilinear_as",
    "run_bilinear_clt",
    "run_goe_entries",
    "run_vesd",
    "run_quadform_oracle",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("spike-dist", "eigvec-overlap", "bilinear-as", "bilinear-clt",
                    "vesd", "quadform-oracle", "goe-entries")
NU_RULES = ("0", "sqrt_p", "p", "p^2", "2p")

_CONFIG_KEYS = {"kind", "p", "n", "reps", "seed", "radius", "population",
                "z_points", "grid", "pi", "z_real", "draws_per_rep"}
_RADIUS_KEYS = {"kind", "nu_rule"}
_POPULATION_KEYS = {"spikes", "bulk", "toeplitz_rho", "separation"}


def _nu_value(rule: str, p: int) -> float:
    table = {"0": 0.0, "sqrt_p": float(np.sqrt(p)), "p": float(p),
             "p^2": float(p) ** 2, "2p": 2.0 * p}
    if rule not in table:
        raise ConfigError(f"unknown nu_p rule {rule!r}; expected one of {NU_RULES}")
    return table[rule]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation study."""

    kind: str
    p: int
    n: int
    reps: int
    seed: int
    radius: dict = field(default_factory=lambda: {"kind": "two-point", "nu_rule": "0"})
    population: dict = field(default_factory=lambda: {"spikes": [], "bulk": "ones",
                                                      "toeplitz_rho": 0.9,
                                                      "separation": 0.1})
    z_points: tuple[complex, ...] = ()
    grid: tuple[int, ...] = ()
    pi: object = "e1"
    z_real: float | None = None
    draws_per_rep: int = 20_000

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.p < 2 or self.n < 2:
            raise ConfigError("p and n must be >= 2")
        unknown = set(self.radius) - _RADIUS_KEYS
        if unknown:
            raise ConfigError(f"unknown radius key {sorted(unknown)[0]!r}")
        unknown = set(self.population) - _POPULATION_KEYS
        if unknown:
            raise ConfigError(f"unknown population key {sorted(unknown)[0]!r}")
        object.__setattr__(self, "z_points", tuple(complex(z) for z in self.z_points))
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))

    @property
    def c(self) -> float:
        return self.p / self.n

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        for key in ("kind", "p", "n", "seed"):
            if key not in raw:
                raise ConfigError(f"config is missing required key {key!r}")
        kwargs = dict(raw)
        if "reps" not in kwargs:  # desk-scale defaults: 500 for sweeps, 2000 else
            kwargs["reps"] = 500 if kwargs.get("kind") == "eigvec-overlap" else 2000
        z_points = kwargs.pop("z_points", [])
        kwargs["z_points"] = tuple(complex(z[0], z[1]) if isinstance(z, (list, tuple))
                                   else complex(z) for z in z_points)
        kwargs["grid"] = tuple(kwargs.pop("grid", []))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "p": self.p, "n": self.n, "reps": self.reps,
            "seed": self.seed, "radius": dict(self.radius),
            "population": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                           for k, v in self.population.items()},
            "z_points": [[z.real, z.imag] for z in self.z_points],
            "grid": list(self.grid),
            "pi": self.pi, "z_real": self.z_real,
            "draws_per_rep": self.draws_per_rep,
        }

    @property
    def nu_rule(self) -> str:
        """The radius's nu_rule: "2p" for a chi-square radius that gives none, else "0"."""
        return self.radius.get("nu_rule", "2p" if self.radius.get("kind") == "chi-square" else "0")

    def radius_law(self, p: int | None = None) -> RadiusLaw:
        p = self.p if p is None else p
        kind, rule = self.radius.get("kind", "two-point"), self.nu_rule
        if kind == "chi-square" and rule != "2p":
            raise ConfigError(f"a chi-square radius forces nu_rule '2p', not {rule!r}")
        nu = _nu_value(rule, p)
        if kind == "two-point" and nu == 0.0:
            kind = "deterministic"
        return RadiusLaw(kind=kind, p=p, nu_p=nu)

    def population_spec(self, p: int | None = None) -> PopulationSpec:
        p = self.p if p is None else p
        raw = self.population
        bulk = raw.get("bulk", "ones")
        spikes = tuple(raw.get("spikes", ()))
        if bulk == "ones":
            bulk = (1.0,) * (p - len(spikes))
        return PopulationSpec(
            p=p, spikes=spikes, bulk=bulk,
            bulk_seed=_derive(self.seed, 2, p) if bulk == "uniform" else None,
            toeplitz_rho=float(raw.get("toeplitz_rho", 0.9)),
            separation=float(raw.get("separation", 0.1)))


def _derive(*parts: int) -> int:
    ss = np.random.SeedSequence(entropy=[int(x) for x in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _resolve_pi(spec, p: int, u0: np.ndarray | None = None) -> np.ndarray:
    if isinstance(spec, str):
        if spec.startswith("e") and spec[1:].isdigit():
            k = int(spec[1:])
            if not 1 <= k <= p:
                raise ConfigError(f"basis vector {spec!r} outside dimension {p}")
            v = np.zeros(p)
            v[k - 1] = 1.0
            return v
        if spec == "uniform":
            return np.full(p, 1.0 / np.sqrt(p))
        if spec == "top_population":
            if u0 is None:
                raise ConfigError("'top_population' needs a realized population")
            return u0[:, 0].copy()
        raise ConfigError(f"unknown projection vector spec {spec!r}")
    v = np.asarray(spec, dtype=np.float64).ravel()
    if v.size != p:
        raise ConfigError(f"projection vector has length {v.size}, expected {p}")
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ConfigError("projection vector is zero")
    return v / nrm


def _pi_pairs(cfg: ExperimentConfig, p: int, u0=None):
    """The config pi field as a list of one or two distinct (left, right)
    forms pi_a^T R pi_b.

    Accepted forms: a single vector spec ("e1", "uniform", explicit list of
    numbers) used on both sides of one form; a pair of specs [a, b] for one
    form; or two such pairs for two forms (one form when they are equal).
    """
    spec = cfg.pi

    def is_vector(s):
        return isinstance(s, str) or (isinstance(s, (list, tuple)) and s
                                      and isinstance(s[0], (int, float)))

    if is_vector(spec):
        spec = [spec]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ConfigError("pi must be a vector spec or a list of them")
    if all(is_vector(s) for s in spec):
        if len(spec) > 2:
            raise ConfigError("a flat pi list must hold one or two vector specs")
        spec = [[spec[0], spec[-1]]]
    pairs = []
    for s in spec:
        if not isinstance(s, (list, tuple)) or len(s) != 2:
            raise ConfigError("each pi entry must be a [left, right] pair")
        pairs.append((_resolve_pi(s[0], p, u0), _resolve_pi(s[1], p, u0)))
    if len(pairs) > 2:
        raise ConfigError("pi must describe one or two bilinear forms")
    if len(pairs) == 2 and all(np.array_equal(u, v) for u, v in zip(*pairs)):
        return pairs[:1]
    return pairs


@dataclass
class ExperimentResult:
    """Replicate records plus reduced summaries and matched theory."""

    kind: str
    config: dict
    columns: list
    records: np.ndarray      # (reps, len(columns)), NaN rows for failures
    summary: dict
    theory: dict
    failures: int
    hist: dict | None = None
    extra_files: dict = field(default_factory=dict)

    def records_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.records:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def hist_csv(self) -> str:
        h = self.hist
        lines = ["bin_left,bin_right,count,gauss_density"]
        for le, ri, ct, gd in zip(h["bin_left"], h["bin_right"], h["count"],
                                  h["gauss_density"]):
            lines.append(f"{float(le)!r},{float(ri)!r},{int(ct)},{float(gd)!r}")
        return "\n".join(lines) + "\n"

    def write(self, outdir) -> None:
        files = {"records.csv": self.records_csv(), "summary.json": _dumps(self.summary),
                 "theory.json": _dumps(self.theory)}
        if self.hist is not None:
            files["hist.csv"] = self.hist_csv()
        files.update(self.extra_files)
        os.makedirs(outdir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def _dumps(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _numpy_linalg_library():
    """numpy's own linalg extension opened with ``ctypes``, or None.

    Symbols looked up in it resolve in the library numpy loaded, not in
    some other copy.
    """
    try:
        from numpy.linalg import _umath_linalg
        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


def _load_openblas():
    """``(get, set)`` thread-count functions of the OpenBLAS behind
    ``numpy.linalg``, or None when numpy uses another BLAS.

    The symbols are looked up through numpy's own linalg extension
    (:func:`_numpy_linalg_library`).
    """
    lib = _numpy_linalg_library()
    if lib is None:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_OPENBLAS = _load_openblas()
# OpenBLAS keeps one thread count per process, so the pin's state is
# module-wide: every caller thread of run_experiment shares it.
_BLAS_LOCK = threading.Lock()
_blas_depth = 0
_blas_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread; restore the caller's count on exit.

    Nested or concurrent uses share one pin: the first to enter saves the
    count, the last to leave restores it.  Without OpenBLAS it does nothing.
    """
    global _blas_depth, _blas_saved
    lib = _OPENBLAS
    if lib is None:
        yield
        return
    get, set_ = lib
    with _BLAS_LOCK:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


def _run_replicates(reps: int, jobs: int, worker, width: int):
    """Execute replicate workers, reducing in replicate-index order.

    Each worker thread runs its linear algebra on one BLAS thread.
    """
    def safe(r):
        try:
            return np.asarray(worker(r), dtype=np.float64)
        except Exception:
            return np.full(width, np.nan)

    with _one_blas_thread():
        if jobs <= 1:
            rows = [safe(r) for r in range(reps)]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(safe, range(reps)))
    records = np.vstack(rows)
    failures = int(np.isnan(records).any(axis=1).sum())
    return records, failures


def _population(cfg: ExperimentConfig, p: int | None = None):
    """``(spec, pop, law, h2, gamma)`` of the configured population at
    dimension p; ``gamma`` is its square root, formed once for every
    replicate's ``build_scm`` or ``gauss_rule``."""
    spec = cfg.population_spec(p)
    pop = build_population(spec)
    law = cfg.radius_law(p)
    return spec, pop, law, radius_law_to_h2(law), _population_root(pop)


def _n_spikes(cfg: ExperimentConfig) -> int:
    k = len(cfg.population.get("spikes", ()))
    if k < 1:
        raise ConfigError(f"{cfg.kind} needs at least one population spike")
    return k


def _replicates(cfg: ExperimentConfig, jobs: int, columns, statistic, spec, law, *,
                n: int | None = None, seed=None):
    """Rows of ``statistic(sample)``; replicate r draws its sample from seed
    ``seed(r)``, by default ``replicate_seed(cfg.seed, r)``."""
    n = cfg.n if n is None else n
    seed = seed or (lambda r: replicate_seed(cfg.seed, r))

    def worker(r):
        return statistic(draw_sample(spec, law, n, seed(r)))

    return _run_replicates(cfg.reps, jobs, worker, len(columns))


def _result(cfg: ExperimentConfig, columns, records: np.ndarray, failures: int,
            summary: dict, theory: dict, **extra) -> ExperimentResult:
    """Assemble the result; the run's metadata heads its summary."""
    res = ExperimentResult(cfg.kind, cfg.to_dict(), list(columns), records, {},
                           theory, failures, **extra)
    law = cfg.radius_law()
    res.summary = {
        "kind": cfg.kind,
        "p": cfg.p, "n": cfg.n, "reps": cfg.reps, "seed": cfg.seed,
        "nu_rule": cfg.nu_rule,
        "radius_kind": law.kind,
        "radius_conforming": law.bounded_support,
        "failures": failures,
        "records_sha256": hashlib.sha256(res.records_csv().encode()).hexdigest(),
        **summary,
    }
    return res


def _finite(x: np.ndarray) -> np.ndarray:
    return x[np.isfinite(x)]


def _se(x: np.ndarray) -> float:
    """Standard error of the mean of x."""
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


def _nan_se(records: np.ndarray) -> np.ndarray:
    """Per-column standard error of the mean over the finite rows."""
    return np.nanstd(records, axis=0, ddof=1) / np.sqrt(np.isfinite(records).sum(axis=0))


def _zscore(value, target, se) -> float:
    return float((value - target) / se) if se > 0 else float("inf")


def _ks_normal(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample x and N(0, 1)."""
    x = np.sort(x)
    n = x.size
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2)) for v in x])
    d_plus = np.arange(1, n + 1) / n - cdf
    d_minus = cdf - np.arange(n) / n
    return float(max(d_plus.max(), d_minus.max()))


# ---------------------------------------------------------------------------
# spike-dist: distribution of the largest (spiked) sample eigenvalue
# ---------------------------------------------------------------------------

def run_spike_dist(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    _n_spikes(cfg)
    spec, pop, law, h2, gamma = _population(cfg)
    pred = predict_spike(cfg.c, nonspiked_spectrum_measure(spec), h2, spec.spikes[0])
    theta, sdsq = pred.theta, pred.sigma_delta_sq
    sd_lambda = theta * np.sqrt(sdsq / cfg.n)

    def statistic(sample):
        return [top_eigenvalue(sample, pop[1][:, 0], gamma=gamma)]

    columns = ["lambda_1"]
    records, failures = _replicates(cfg, jobs, columns, statistic, spec, law)
    ok = _finite(records[:, 0])
    mean, var = float(ok.mean()), float(ok.var(ddof=1))
    std_spike = np.sqrt(cfg.n) * (ok - theta) / (theta * np.sqrt(sdsq))
    ks = _ks_normal(std_spike)

    n_bins = max(10, min(60, int(np.sqrt(ok.size))))
    counts, edges = np.histogram(ok, bins=n_bins)
    centers = 0.5 * (edges[1:] + edges[:-1])
    gauss = np.exp(-0.5 * ((centers - theta) / sd_lambda) ** 2) \
        / (sd_lambda * np.sqrt(2 * np.pi))

    se_mean = sd_lambda / np.sqrt(ok.size)
    summary = {
        "mean_lambda1": mean,
        "var_lambda1": var,
        "se_mean": float(se_mean),
        "z_mean": _zscore(mean, theta, se_mean),
        "var_ratio_standardized": float(np.var(std_spike, ddof=1)),
        "ks_statistic": ks,
    }
    theory = {
        "alpha": spec.spikes[0], "theta": theta, "g_prime": pred.g_prime,
        "sigma_delta_sq": sdsq, "sd_lambda1": float(sd_lambda),
        "var_lambda1": float(sd_lambda ** 2), "overlap_sq": pred.overlap_sq,
        "light_tail": pred.light_tail,
    }
    hist = {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts,
            "gauss_density": gauss}
    return _result(cfg, columns, records, failures, summary, theory, hist=hist)


# ---------------------------------------------------------------------------
# eigvec-overlap: squared projection of sample onto population spike vectors
# ---------------------------------------------------------------------------

def run_eigvec_overlap(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    c = cfg.c
    k_spikes = _n_spikes(cfg)
    columns = (["p"] + [f"overlap_sq_{k+1}" for k in range(k_spikes)]
               + [f"sign_{k+1}" for k in range(k_spikes)])

    all_records = []
    per_p = []
    for p in cfg.grid or (cfg.p,):
        n = int(round(p / c))
        spec, pop, law, h2, gamma = _population(cfg, p)
        h1n = nonspiked_spectrum_measure(spec)
        theory_overlaps = [predict_spike(c, h1n, h2, alpha).overlap_sq
                           for alpha in spec.spikes]
        u1 = pop[1][:, :k_spikes]

        def statistic(sample, gamma=gamma, u1=u1, p=p):
            _, vecs = np.linalg.eigh(build_scm(sample, gamma=gamma))
            # eigh sorts ascending: the top k eigenvectors, largest first
            inner = np.sum(u1 * vecs[:, ::-1][:, :k_spikes], axis=0)
            return np.concatenate([[p], inner ** 2, np.sign(inner)])

        records, failures = _replicates(cfg, jobs, columns, statistic, spec, law, n=n,
                                        seed=lambda r, p=p: _derive(cfg.seed, 3, p, r))
        all_records.append(records)
        means = np.nanmean(records[:, 1:1 + k_spikes], axis=0)
        ses = _nan_se(records[:, 1:1 + k_spikes])
        per_p.append({
            "p": p, "n": n, "failures": failures,
            "mean_overlap_sq": list(map(float, means)),
            "se": list(map(float, ses)),
            "theory_overlap_sq": list(map(float, theory_overlaps)),
            "z": [_zscore(m, t, s) for m, t, s in zip(means, theory_overlaps, ses)],
        })

    records = np.vstack(all_records)
    failures = int(np.isnan(records).any(axis=1).sum())
    theory = {"per_p": [{"p": row["p"], "overlap_sq": row["theory_overlap_sq"]}
                        for row in per_p]}
    return _result(cfg, columns, records, failures, {"per_p": per_p}, theory)


# ---------------------------------------------------------------------------
# bilinear-as / bilinear-clt: resolvent bilinear forms against their
# deterministic equivalents, almost surely and in fluctuation
# ---------------------------------------------------------------------------

def _bilinear_setup(cfg: ExperimentConfig):
    """Population square root; the distinct pi as the columns of one matrix,
    with an index pair (a, b) into it for each of the one or two forms
    pi_a^T (S - z)^{-1} pi_b; and the deterministic equivalent of each form
    at each z point."""
    if not cfg.z_points:
        raise ConfigError(f"{cfg.kind} needs z_points")
    if len(set(cfg.z_points)) < len(cfg.z_points):
        raise ConfigError(f"{cfg.kind} z_points must be distinct")
    spec, pop, law, h2, gamma = _population(cfg)
    h1n = DiscreteMeasure.from_values(pop[2])
    forms = _pi_pairs(cfg, cfg.p, pop[1])
    pis, index = np.unique(np.column_stack([v for form in forms for v in form]),
                           axis=1, return_inverse=True)
    pairs = index.reshape(-1, 2).tolist()
    sig_eig = (pop[2], pop[1])
    deteqs = []
    for z in cfg.z_points:
        g2 = solve_lsd(cfg.c, h1n, h2, z).g2
        deteqs.append([deterministic_equivalent(z, g2, sig_eig, a, b) for a, b in forms])
    return spec, gamma, law, h1n, h2, sig_eig, forms, pis, pairs, deteqs


def run_bilinear_as(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    spec, gamma, law, _, _, _, forms, pis, pairs, deteqs = _bilinear_setup(cfg)
    if len(forms) > 1:
        raise ConfigError("bilinear-as reads one form pi_a^T (S - z)^{-1} pi_b, "
                          "but pi describes two")
    (a, b), = pairs

    def statistic(sample):
        s = build_scm(sample, gamma=gamma)
        return [abs(bilinear_resolvent(s, pis, z)[a, b] - de[0])
                for z, de in zip(cfg.z_points, deteqs)]

    columns = [f"abs_dev_z{i}" for i in range(len(cfg.z_points))]
    records, failures = _replicates(cfg, jobs, columns, statistic, spec, law)
    mean_dev = np.nanmean(records, axis=0)
    summary = {
        "mean_abs_deviation": list(map(float, mean_dev)),
        "max_mean_abs_deviation": float(np.max(mean_dev)),
        "se": list(map(float, _nan_se(records))),
    }
    theory = {"deterministic_equivalent": [[de[0].real, de[0].imag] for de in deteqs],
              "z_points": [[z.real, z.imag] for z in cfg.z_points]}
    return _result(cfg, columns, records, failures, summary, theory)


def run_bilinear_clt(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    spec, gamma, law, h1n, h2, sig_eig, forms, pis, pairs, deteqs = _bilinear_setup(cfg)
    two_forms = len(forms) == 2
    (pi1, pi2), (pi3, pi4) = forms[0], forms[-1]
    sqrt_p = np.sqrt(cfg.p)

    def statistic(sample):
        s = build_scm(sample, gamma=gamma)
        out = []
        for z, des in zip(cfg.z_points, deteqs):
            r = bilinear_resolvent(s, pis, z)
            for (a, b), de in zip(pairs, des):
                m = sqrt_p * (r[a, b] - de)
                out.extend([m.real, m.imag])
        return out

    per_z = 2 * len(forms)
    columns = [f"{part}_m{f}_z{i}" for i in range(len(cfg.z_points))
               for f in range(1, len(forms) + 1) for part in ("re", "im")]
    records, failures = _replicates(cfg, jobs, columns, statistic, spec, law)

    summary = {}
    theory = {"z_points": [[z.real, z.imag] for z in cfg.z_points], "per_z": []}
    stats_per_z = []
    for i, z in enumerate(cfg.z_points):
        base = per_z * i
        m1 = _finite(records[:, base] + 1j * records[:, base + 1])
        var1 = complex(np.mean(m1 ** 2) - np.mean(m1) ** 2)
        tvar1 = cov_m_diagonal(cfg.c, h1n, h2, sig_eig, (pi1, pi2, pi1, pi2), z)
        entry = {
            "z": [z.real, z.imag],
            "mean_m1": [float(np.mean(m1.real)), float(np.mean(m1.imag))],
            "se_mean_m1": [_se(m1.real), _se(m1.imag)],
            "var_m1": [var1.real, var1.imag],
            "var_ratio_m1": float(abs(var1) / abs(tvar1)),
        }
        tentry = {"z": [z.real, z.imag], "var_m1": [tvar1.real, tvar1.imag]}
        if two_forms:
            m2 = _finite(records[:, base + 2] + 1j * records[:, base + 3])
            cov12 = complex(np.mean(m1 * m2) - np.mean(m1) * np.mean(m2))
            tcov12 = cov_m_diagonal(cfg.c, h1n, h2, sig_eig, (pi1, pi2, pi3, pi4), z)
            se_cov = float(np.std((m1 - m1.mean()) * (m2 - m2.mean())) / np.sqrt(m1.size))
            entry.update({
                "var_m2": [float(np.mean(m2.real ** 2) - np.mean(m2.real) ** 2),
                           float(np.mean(m2.imag ** 2) - np.mean(m2.imag) ** 2)],
                "cov_m1_m2": [cov12.real, cov12.imag],
                "se_cov_m1_m2": se_cov,
                "z_cov": _zscore(abs(cov12 - tcov12), 0.0, se_cov),
            })
            tentry["cov_m1_m2"] = [tcov12.real, tcov12.imag]
        stats_per_z.append(entry)
        theory["per_z"].append(tentry)
    if len(cfg.z_points) >= 2:
        z1, z2 = cfg.z_points[0], cfg.z_points[1]
        tcross = cov_m(cfg.c, h1n, h2, sig_eig, (pi1, pi2, pi1, pi2), z1, z2)
        a = records[:, 0] + 1j * records[:, 1]
        b = records[:, per_z] + 1j * records[:, per_z + 1]
        both = np.isfinite(a) & np.isfinite(b)
        a, b = a[both], b[both]
        cross = complex(np.mean(a * b) - np.mean(a) * np.mean(b))
        summary["cross_cov_z0_z1"] = [cross.real, cross.imag]
        theory["cross_cov_z0_z1"] = [tcross.real, tcross.imag]
    summary["per_z"] = stats_per_z
    return _result(cfg, columns, records, failures, summary, theory)


# ---------------------------------------------------------------------------
# goe-entries: centered spike matrix against its GOE covariance profile
# ---------------------------------------------------------------------------

def run_goe_entries(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    k = _n_spikes(cfg)
    spec, pop, law, h2, _ = _population(cfg)
    h1n = nonspiked_spectrum_measure(spec)
    z = (float(cfg.z_real) if cfg.z_real is not None
         else predict_spike(cfg.c, h1n, h2, spec.spikes[0]).theta)
    g2n = solve_lsd(cfg.c, h1n, h2, z).g2.real
    profile = goe_covariance_profile(cfg.c, h1n, h2, z, k)
    sqrt_p = np.sqrt(cfg.p)

    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    columns = [f"O_{i+1}{j+1}" for i, j in pairs]

    def statistic(sample):
        q = spiked_quadform(sample, z, population=pop)
        o = sqrt_p * z * (q + g2n * np.eye(k))
        return [o[i, j] for i, j in pairs]

    records, failures = _replicates(cfg, jobs, columns, statistic, spec, law)
    ent = {}
    for col, (i, j), vals in zip(columns, pairs, records.T):
        vals = _finite(vals)
        var = float(np.var(vals, ddof=1))
        target = profile.cov(i, j, i, j)
        ent[col] = {
            "mean": float(np.mean(vals)),
            "var": var,
            "var_ratio": var / target if target else float("nan"),
            "se_var": float(var * np.sqrt(2.0 / max(vals.size - 1, 1))),
        }
    if k >= 2:
        o11 = records[:, columns.index("O_11")]
        o12 = records[:, columns.index("O_12")]
        mask = np.isfinite(o11) & np.isfinite(o12)
        cov = float(np.cov(o11[mask], o12[mask])[0, 1])
        se = float(np.std((o11[mask] - o11[mask].mean())
                          * (o12[mask] - o12[mask].mean()), ddof=1)
                   / np.sqrt(mask.sum()))
        ent["cov_O11_O12"] = {"value": cov, "se": se, "z": _zscore(cov, 0.0, se)}
    theory = {"z": z, "g2n": g2n, "sigma11_sq": profile.sigma11_sq,
              "sigma12_sq": profile.sigma12_sq}
    return _result(cfg, columns, records, failures, {"entries": ent}, theory)


# ---------------------------------------------------------------------------
# vesd: eigenvector statistics against the anisotropic reference law
# ---------------------------------------------------------------------------

def _vesd_row(sample, pi, gamma, centering) -> list[float]:
    """``[stat_x, stat_x2, stat_const]`` of one sample: sqrt(p) times
    int f dG_n less its centering, for f = x and x^2, and the mass less 1."""
    # int f dG_n reads only the spectral measure of pi under S.  A k-node
    # Gauss rule of it is exact for polynomials of degree up to 2k - 1; the
    # zetas x and x^2 of run_vesd have degree at most 2, so k = 2 is exact.
    nodes, w = gauss_rule(sample, pi, 2, gamma=gamma)
    sqrt_p = np.sqrt(sample.p)
    return [sqrt_p * (float(w @ nodes) - centering["x"]),
            sqrt_p * (float(w @ nodes ** 2) - centering["x2"]),
            sqrt_p * (float(w.sum()) - 1.0)]


def run_vesd(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    spec, pop, law, h2, gamma = _population(cfg)
    h1n = DiscreteMeasure.from_values(pop[2])
    forms = _pi_pairs(cfg, cfg.p, pop[1])
    if len(forms) > 1 or not np.array_equal(*forms[0]):
        raise ConfigError("vesd reads one projection vector, but pi describes more")
    pi = forms[0][0]
    sig_eig = (pop[2], pop[1])
    # The outer bracket of the finite-p law, spike atoms included, holds the
    # images of the spikes as well as the bulk; locating the spikes with
    # predict_spike needs the law without them and would clip the spike's
    # finite-p component.
    contour = default_contour(cfg.c, h1n, h2)
    zetas = {"x": lambda zz: zz, "x2": lambda zz: zz * zz}
    centering = dict(zip(zetas, contour_moment(cfg.c, h1n, h2, sig_eig, pi, zetas.values(),
                                               contour=contour, quad_n=256).tolist()))

    def statistic(sample):
        return _vesd_row(sample, pi, gamma, centering)

    columns = ["stat_x", "stat_x2", "stat_const"]
    records, failures = _replicates(cfg, jobs, columns, statistic, spec, law)

    cov = eigvec_stat_cov(cfg.c, h1n, h2, sig_eig, pi, [zetas["x"], zetas["x2"]],
                          contour=contour, quad_n=96)
    var_theory = {"x_x": float(cov[0, 0]), "x2_x2": float(cov[1, 1]),
                  "x_x2": float(cov[0, 1])}
    conv_check = float(eigvec_stat_cov(cfg.c, h1n, h2, sig_eig, pi, [zetas["x"]],
                                       contour=contour, quad_n=192)[0, 0])

    s1 = _finite(records[:, 0])
    s2 = _finite(records[:, 1])
    summary = {
        "mean": [float(s1.mean()), float(s2.mean())],
        "se_mean": [_se(s1), _se(s2)],
        "var": [float(s1.var(ddof=1)), float(s2.var(ddof=1))],
        "cov_x_x2": float(np.cov(s1, s2)[0, 1]),
        "var_ratio": [float(s1.var(ddof=1) / var_theory["x_x"]),
                      float(s2.var(ddof=1) / var_theory["x2_x2"])],
        "max_abs_stat_const": float(np.nanmax(np.abs(records[:, 2]))),
    }
    theory = {
        "centering": centering,
        "cov": var_theory,
        "quad_doubling_rel_change": abs(conv_check - var_theory["x_x"])
        / max(abs(conv_check), 1e-300),
    }
    grid = np.linspace(max(contour.x_left, 1e-3), contour.x_right, 400)
    ref = stieltjes_invert(cfg.c, h1n, h2, grid, eps=1e-4,
                           sigma_eig=sig_eig, pi=pi)
    return _result(cfg, columns, records, failures, summary, theory,
                   extra_files={"aniso_cdf.csv": ref.to_csv()})


# ---------------------------------------------------------------------------
# quadform-oracle: sphere-average covariance identity for the sampler
# ---------------------------------------------------------------------------

def run_quadform_oracle(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    p = cfg.p
    rng = np.random.default_rng([cfg.seed, 3])
    n_pairs = 5
    mats = [(rng.standard_normal((p, p)), rng.standard_normal((p, p)))
            for _ in range(n_pairs)]
    exact = [quadform_moment_oracle(a, b) for a, b in mats]

    def worker(r):
        sub = np.random.default_rng(replicate_seed(cfg.seed, r))
        y = sub.standard_normal((cfg.draws_per_rep, p))
        u = y / np.linalg.norm(y, axis=1, keepdims=True)
        out = []
        for a, b in mats:
            qa = np.einsum("ij,ij->i", u @ a, u)
            qb = np.einsum("ij,ij->i", u @ b, u)
            out.append(float(np.mean(qa * qb) - np.mean(qa) * np.mean(qb)))
        return out

    columns = [f"cov_pair{i}" for i in range(n_pairs)]
    records, failures = _run_replicates(cfg.reps, jobs, worker, n_pairs)
    pairs = []
    for i in range(n_pairs):
        vals = _finite(records[:, i])
        mc = float(vals.mean())
        se = _se(vals) if vals.size > 1 else 0.0
        pairs.append({"mc_cov": mc, "exact": float(exact[i]), "se": se,
                      "z": _zscore(mc, exact[i], se)})
    summary = {"pairs": pairs, "total_draws": cfg.reps * cfg.draws_per_rep}
    theory = {"exact_cov": list(map(float, exact))}
    return _result(cfg, columns, records, failures, summary, theory)


_RUNNERS = {
    "spike-dist": run_spike_dist,
    "eigvec-overlap": run_eigvec_overlap,
    "bilinear-as": run_bilinear_as,
    "bilinear-clt": run_bilinear_clt,
    "goe-entries": run_goe_entries,
    "vesd": run_vesd,
    "quadform-oracle": run_quadform_oracle,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Dispatch an experiment by its configured kind.

    The whole run, population and limit theory included, stays on one BLAS
    thread, so its float results do not depend on the host's core count.
    """
    with _one_blas_thread():
        return _RUNNERS[cfg.kind](cfg, jobs=jobs)
