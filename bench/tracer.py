"""In-memory span recorder that times calls into magnonlab's layers from
outside the package.

`Tracer.install()` replaces every module-level binding of each public
function of the layer modules (including the copies that other modules
imported by name, the `magnonlab` package namespace, and functions held
in module-level dicts such as `checks.CHECKS`) with a timing wrapper.
It also wraps the sector-operator conversions and the external
eigensolvers the layers call, to count dense-solve work (sum of dim^3)
and Lanczos matrix-vector products.  `Tracer.remove()` puts every
original object back.  Nothing under `src/` is modified.

A span is (id, parent id, name, layer, start, end, error); a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "magnonlab"
LAYERS = ("basis", "operators", "spectra", "boundlab", "checks", "magnongas", "cli")

# Metric groups: (layer, metric prefix) -> function names whose spans feed it.
GROUPS = {
    "basis.enumerate": ("basis", lambda f: f == "enumerate_sector_basis"),
    "operators.assemble": ("operators", lambda f: f.startswith("assemble_")),
    "operators.convert": ("operators", lambda f: f.startswith("HermitianOperator.")),
    "spectra.full_spectrum": ("spectra", lambda f: f == "full_spectrum"),
    "spectra.gap": ("spectra", lambda f: f == "spectral_gap"),
    "spectra.lanczos": ("spectra", lambda f: f == "lanczos"),
    "spectra.energy_spin_pairs": ("spectra", lambda f: f == "sector_energy_spin_pairs"),
    "spectra.free_energy": (
        "spectra", lambda f: f in ("free_energy", "free_energy_from_eigenvalues")),
    "boundlab.verify": ("boundlab", lambda f: f.startswith("verify_")),
    "boundlab.collapse": (
        "boundlab", lambda f: f in ("coordinate_collapse_matrix", "build_coordinate_map_v")),
}

MB = 1e6


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.spectrum_keys = set()
        self.largest = {}
        self._patches = []
        self._signatures = {}

    # -- spans -------------------------------------------------------------

    def _layer_of_caller(self):
        return self.stack[-1][1] if self.stack else "bench"

    def run_span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span named `name` that belongs to `layer`."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((sid, layer))
        error = None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, name, layer, t0, t1, error)

    def _wrap(self, fn, layer, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.run_span(f"{layer}.{name}", layer, fn, *args, **kwargs)
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- counting hooks ----------------------------------------------------

    def _note_largest(self, kind, size, fn, args, kwargs):
        if size > self.largest.get(kind, (-1,))[0]:
            self.largest[kind] = (size, fn, args, kwargs)

    def _on_enumerate(self, fn, args, kwargs, basis):
        self.counters["basis.states"] += basis.dim
        self._note_largest("basis.enumerate", basis.dim, fn, args, kwargs)

    def _on_assemble(self, fn, args, kwargs, op):
        nnz = len(getattr(op, "vals", ()))
        self.counters["operators.nnz"] += nnz
        self._note_largest("operators.assemble", max(nnz, op.basis.dim), fn, args, kwargs)

    def _on_run_check(self, fn, args, kwargs, certs):
        self.counters["checks.cells"] += len(certs)

    def _spectrum_key(self, fn, args, kwargs):
        sig = self._signatures.setdefault(fn, inspect.signature(fn))
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (a["lattice"], a["spin"], a["variant"])

    def _wrap_full_spectrum(self, fn):
        tracer = self
        wrapped = self._wrap(fn, "spectra", "full_spectrum")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = tracer._spectrum_key(fn, args, kwargs)
            tracer.counters["spectra.full_spectrum.repeats"] += key in tracer.spectrum_keys
            tracer.spectrum_keys.add(key)
            return wrapped(*args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    def _wrap_dense_solver(self, fn):
        """Count sum of dim^3 of dense symmetric eigensolves, per calling layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            layer = tracer._layer_of_caller()
            tracer.counters[f"{layer}.dense_dim3"] += len(a) ** 3
            return fn(a, *args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    def _wrap_eigsh(self, fn):
        """Time the Lanczos solve and count the operator applications."""
        tracer = self
        import scipy.sparse.linalg as spla

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            inner = spla.aslinearoperator(a)

            def matvec(x):
                tracer.counters["spectra.lanczos.matvecs"] += 1
                return inner.matvec(x)

            counted = spla.LinearOperator(inner.shape, matvec=matvec, dtype=inner.dtype)
            layer = tracer._layer_of_caller()
            return tracer.run_span(f"{layer}.lanczos", layer, fn, counted, *args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "enumerate_sector_basis": self._on_enumerate,
            "run_check": self._on_run_check,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module):
                if name == "full_spectrum":
                    wrappers[id(fn)] = self._wrap_full_spectrum(fn)
                    continue
                hook = hooks.get(name)
                if layer == "operators" and name.startswith("assemble_"):
                    hook = self._on_assemble if name != "assemble_projector_p" else None
                wrappers[id(fn)] = self._wrap(fn, layer, name, hook)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])

        operators = sys.modules[f"{PACKAGE}.operators"]
        cls = operators.HermitianOperator
        for meth in ("to_csr", "to_dense"):
            self._patch(cls, meth, self._wrap(
                vars(cls)[meth], "operators", f"HermitianOperator.{meth}"))

        import numpy.linalg
        import scipy.linalg
        import scipy.sparse.linalg
        for mod in (scipy.linalg, numpy.linalg):
            for name in ("eigvalsh", "eigh"):
                self._patch(mod, name, self._wrap_dense_solver(getattr(mod, name)))
        self._patch(scipy.sparse.linalg, "eigsh", self._wrap_eigsh(scipy.sparse.linalg.eigsh))

    def remove(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- analysis ----------------------------------------------------------

    def replay_peaks(self):
        """Peak traced heap (MB) of the largest enumerate and assemble call,
        re-run once each under tracemalloc after the timed pass so the
        allocation hooks do not distort the span timings."""
        peaks = {}
        for kind in ("basis.enumerate", "operators.assemble"):
            peaks[f"{kind}.peak_mb"] = 0.0
            if kind not in self.largest:
                continue
            _, fn, args, kwargs = self.largest[kind]
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[f"{kind}.peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()
        self.largest.clear()
        return peaks

    def span_records(self):
        return [s for s in self.spans if s is not None]


def self_times(spans):
    """Map span id -> self time (duration minus direct children)."""
    child_time = defaultdict(float)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    return {sid: (t1 - t0) - child_time[sid] for sid, _, _, _, t0, t1, _ in spans}


def summarize(spans, counters):
    """Per-layer metrics from one traced pass's spans and counters."""
    selfs = self_times(spans)
    out = {}
    layer_self = defaultdict(float)
    for sid, _, name, layer, *_ in spans:
        layer_self[layer] += selfs[sid]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = layer_self[layer]

    groups = {key: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "refused": 0, "wasted_s": 0.0}
              for key in GROUPS}
    for sid, _, name, layer, t0, t1, error in spans:
        func = name[len(layer) + 1:]
        for key, (glayer, match) in GROUPS.items():
            if layer == glayer and match(func):
                g = groups[key]
                g["calls"] += 1
                g["self_s"] += selfs[sid]
                g["total_s"] += t1 - t0
                if error is not None:
                    g["refused"] += 1
                    g["wasted_s"] += t1 - t0

    for key in ("basis.enumerate", "operators.assemble", "boundlab.verify", "spectra.lanczos"):
        out[f"{key}.calls"] = groups[key]["calls"]
    for key in GROUPS:
        out[f"{key}.self_s"] = groups[key]["self_s"]

    fs = groups["spectra.full_spectrum"]
    out["spectra.full_spectrum.calls"] = fs["calls"]
    out["spectra.full_spectrum.refused"] = fs["refused"]
    out["spectra.full_spectrum.wasted_s"] = fs["wasted_s"]
    out["spectra.full_spectrum.useful_ratio"] = (
        1.0 - fs["wasted_s"] / fs["total_s"] if fs["total_s"] > 0 else 1.0)
    out["spectra.full_spectrum.repeat_ratio"] = (
        counters["spectra.full_spectrum.repeats"] / fs["calls"] if fs["calls"] else 0.0)

    out["basis.states"] = counters["basis.states"]
    out["operators.nnz"] = counters["operators.nnz"]
    nnz = counters["operators.nnz"]
    out["operators.assemble.ns_per_nnz"] = (
        groups["operators.assemble"]["self_s"] / nnz * 1e9 if nnz else 0.0)
    out["spectra.dense_dim3"] = counters["spectra.dense_dim3"]
    out["boundlab.dense_dim3"] = counters["boundlab.dense_dim3"]
    out["spectra.lanczos.matvecs"] = counters["spectra.lanczos.matvecs"]
    out["checks.cells"] = counters["checks.cells"]
    out["magnongas.calls"] = sum(1 for s in spans if s[3] == "magnongas")
    out["cli.main.self_s"] = layer_self["cli"]
    out["trace.spans"] = len(spans)
    return out
