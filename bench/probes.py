"""Wrappers around the program's public functions, installed from outside.

Two kinds of wrapper are installed for the length of one unit of work and
removed afterwards:

* ``Markers`` (untraced runs) only note when the first replicate started
  and when the last one ended, with the process CPU time at both points.
  That is two clock reads per replicate-layer call.
* ``Tracer`` (traced runs) records a span for every call of every public
  function of the measured modules, kept in memory and written when the
  run ends.

A module that imports a function by name (``from .lsd import solve_lsd``)
holds its own reference, so every ``elliprmt`` namespace that binds the
original object is patched, not only the defining module.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("sampler", "covariance", "experiments", "lsd", "spikes", "kernels",
          "measures")

# Eigendecompositions are timed where build_scm calls them; any of these
# entry points may be the one it uses.
EIGEN_TARGETS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                 ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"))


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


class Patcher:
    """Replace a function in every namespace that binds it; undo on close."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner_name: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[owner_name]
        orig = getattr(owner, attr)
        wrapper = make_wrapper(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (mod is owner or name == "elliprmt" or name.startswith("elliprmt.")):
                continue
            if vars(mod).get(attr) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def close(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()


def public_functions(layer: str) -> list[str]:
    """Names in a layer module's ``__all__`` that are plain functions."""
    mod = sys.modules[f"elliprmt.{layer}"]
    return [n for n in getattr(mod, "__all__", ())
            if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]


class Markers:
    """Replicate-phase boundaries of one Monte Carlo unit, untraced.

    The phase starts at the first ``draw_sample`` call and ends at the last
    return of ``draw_sample`` or ``build_scm``.  Replicates run on worker
    threads, so the first-call test takes a lock.
    """

    def __init__(self):
        self.first_start = None
        self.cpu_first = None
        self.last_end = None
        self.cpu_last = None
        self._lock = threading.Lock()
        self._patcher = Patcher()

    def _note_start(self) -> None:
        if self.first_start is None:
            with self._lock:
                if self.first_start is None:
                    self.cpu_first = _cpu_s()
                    self.first_start = time.perf_counter()

    def _note_end(self) -> None:
        t = time.perf_counter()
        with self._lock:
            if self.last_end is None or t > self.last_end:
                self.last_end = t
                self.cpu_last = _cpu_s()

    def __enter__(self):
        def make_draw(orig):
            def draw_sample(*args, **kwargs):
                self._note_start()
                out = orig(*args, **kwargs)
                self._note_end()
                return out
            return draw_sample

        def make_scm(orig):
            def build_scm(*args, **kwargs):
                out = orig(*args, **kwargs)
                self._note_end()
                return out
            return build_scm

        self._patcher.wrap("elliprmt.sampler", "draw_sample", make_draw)
        self._patcher.wrap("elliprmt.covariance", "build_scm", make_scm)
        return self

    def __exit__(self, *exc):
        self._patcher.close()
        return False

    @property
    def observed(self) -> bool:
        return self.first_start is not None

    @property
    def phase_s(self) -> float:
        return self.last_end - self.first_start

    @property
    def phase_cpu_s(self) -> float:
        return self.cpu_last - self.cpu_first


class Span:
    __slots__ = ("name", "start", "end", "parent", "extra")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.extra = None


class Tracer:
    """In-memory spans for every public function of the measured layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patcher = Patcher()

    def _make(self, name: str):
        spans = self.spans
        local = self._local
        record_iterations = name == "lsd.solve_lsd"

        def make_wrapper(orig):
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                span = Span(name, 0.0, stack[-1] if stack else None)
                spans.append(span)
                stack.append(span)
                span.start = time.perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                if record_iterations:
                    span.extra = out.iterations
                return out
            wrapper.__wrapped__ = orig
            return wrapper
        return make_wrapper

    def __enter__(self):
        for layer in LAYERS:
            for fn in public_functions(layer):
                self._patcher.wrap(f"elliprmt.{layer}", fn, self._make(f"{layer}.{fn}"))
        for owner, attr in EIGEN_TARGETS:
            if owner in sys.modules and hasattr(sys.modules[owner], attr):
                self._patcher.wrap(owner, attr, self._make(f"{owner}.{attr}"))
        return self

    def __exit__(self, *exc):
        self._patcher.close()
        return False

    def write(self, path: str) -> None:
        """Spans as gzip JSON: [name, start_s, duration_s, parent_index]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, round(s.start - t0, 7), round(s.end - s.start, 7),
                 index[id(s.parent)] if s.parent is not None else -1]
                for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "duration_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-function totals and per-layer self time, in seconds."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        iterations = 0
        eigh_in_scm = 0.0
        for s in self.spans:
            dur = s.end - s.start
            own = dur - child_time[id(s)]
            calls[s.name] += 1
            total[s.name] += dur
            self_time[s.name] += own
            layer = s.name.split(".")[0]
            if layer in LAYERS:
                layer_self[layer] += own
            if s.extra is not None:
                iterations += s.extra
            if s.parent is not None and s.parent.name == "covariance.build_scm" \
                    and s.name.split(".")[-1] in ("eigh", "eigvalsh"):
                eigh_in_scm += dur
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_time), "layer_self_s": dict(layer_self),
                "solve_lsd_iterations": iterations, "eigh_in_build_scm_s": eigh_in_scm}

    def replicate_gaps_s(self) -> list[float]:
        """Time between one replicate's build_scm return and the next draw.

        At jobs = 1 replicates run one after another, so this gap is the
        replicate's own statistic plus the engine's per-replicate work;
        time inside measured program calls that fall in the gap (such as
        ``replicate_seed``) is subtracted, as it belongs to their layers.
        """
        draws = [s for s in self.spans if s.name == "sampler.draw_sample"]
        if not draws:
            return []
        level = [s for s in self.spans if s.parent is draws[0].parent]
        gaps = []
        last_scm_end = None
        inside = 0.0
        for s in level:
            if s.name == "sampler.draw_sample":
                if last_scm_end is not None:
                    gaps.append(s.start - last_scm_end - inside)
                last_scm_end = None
            elif s.name == "covariance.build_scm":
                last_scm_end = s.end
                inside = 0.0
            elif last_scm_end is not None:
                inside += s.end - s.start
        return gaps
