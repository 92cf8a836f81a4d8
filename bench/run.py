#!/usr/bin/env python3
"""magnonlab benchmark: one workload per process, closed loop, one client.

Usage (from the root of a checkout):

    python3 bench/run.py --workload gap-sweep --seed 1 --seconds 10 --trace 0

Workloads are defined in `workloads.py`.  A run imports the program from
the checkout's `src/`, builds the workload's inputs from `--seed`, and
executes whole passes (every operation of the workload once, in a seeded
order) until `--seconds` have elapsed; the pass running at the deadline
is finished, so every run measures complete passes.  Every operation's
output is checked.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one
untraced pass, then the same pass again with span wrappers installed
around every public function of the program's modules (see `tracer.py`),
and reports the per-layer metrics.  The lines before the result give the
environment, the sample counts, and any check failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
# The benchmark fixes the thread-pool size itself so that a user's shell
# cannot change what a workload does.
FORCED_WORKERS = "1"
SETUP_PROBES = 5


def metric_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import magnonlab from this checkout's src/; return the import time."""
    package = SRC / "magnonlab"
    if not (package / "__init__.py").is_file():
        die(f"no program sources at {package}; run from the root of a full checkout")
    os.environ["MAGNONLAB_WORKERS"] = FORCED_WORKERS
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import magnonlab
    import magnonlab.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if Path(magnonlab.__file__).resolve().parent != package.resolve():
        die(f"imported magnonlab from {magnonlab.__file__}, not from {package}")
    return import_s


def warm_linear_algebra():
    """Run a few dense symmetric eigensolves through numpy and scipy.

    On the 2-CPU reference machine the first ~1 s of LAPACK work in a fresh
    process runs several times slower (0.7-1.5 s extra, varying run to run)
    until a solve large enough to start the BLAS thread pool has run.  Doing
    that before the first operation keeps its noise off whichever operations
    happen to run first; it runs after set-up is ready, so `setup_s` does
    not include it.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    for n in (64, 256, 512):
        a = rng.standard_normal((n, n))
        a += a.T
        np.linalg.eigvalsh(a)
        scipy.linalg.eigvalsh(a)


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "magnonlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count of every OpenBLAS library mapped into this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[Path(lib_path).name] = fn()
                break
    return counts


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "MAGNONLAB_WORKERS": os.environ["MAGNONLAB_WORKERS"],
    }


# ---------------------------------------------------------------------------
# measurement


def run_op(op, failures):
    """Run one operation and its check; return the operation's latency."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        latency = time.perf_counter() - t0
        failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
        return latency
    latency = time.perf_counter() - t0
    try:
        op.check(result)
    except Exception as exc:  # a wrong or unreadable output is a failed operation
        failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return latency


def run_reference_ops(workload, failures):
    """Run the workload's untimed checks against committed references
    (outside the measured passes); return how many ran."""
    ops = workload.reference_ops() if hasattr(workload, "reference_ops") else []
    for op in ops:
        run_op(op, failures)
    return len(ops)


def setup_probe_times(workload_name, seed):
    """Start-to-ready times of fresh interpreters that import the program
    and build this workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
            "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"READY":
            die(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return times


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, seconds, failures):
    setup_times = setup_probe_times(workload.name, workload.seed)
    latencies = []
    by_label = {}
    passes = 0
    t0 = time.perf_counter()
    while True:
        for op in workload.ops(passes):
            latency = run_op(op, failures)
            latencies.append(latency)
            by_label.setdefault(op.label, []).append(latency)
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if hasattr(workload, "child_rss_kib"):
        # Commands ran in child interpreters: report the largest of them,
        # not this process, whose numpy/scipy footprint would mask them.
        rss_kib = workload.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(latencies) + run_reference_ops(workload, failures)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / wall,
        "op_p90_s": percentile(latencies, 90),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    # The median latency is reported here but not gated: it falls on
    # millisecond-scale operations whose run-to-run jitter on a shared
    # 2-CPU machine exceeds any usable bound (see README.md).
    info = {"passes": passes, "latency_samples": len(latencies), "setup_samples": len(setup_times),
            "wall_s": wall, "failed_ratio": len(failures) / attempted,
            "op_p50_s": statistics.median(latencies), "op_latency_s": by_label}
    return attempted, metrics, metric_units("end_to_end"), info


def traced_run(workload, import_s, failures, trace_path):
    attempted = 0
    t0 = time.perf_counter()
    for op in workload.ops(0):
        run_op(op, failures)
        attempted += 1
    untraced_wall = time.perf_counter() - t0

    tracer = tracing.Tracer()
    ops = workload.ops(0, traced=True)
    with tracer:
        t0 = time.perf_counter()
        for op in ops:
            tracer.run_span(f"bench.op {op.label}", "bench", run_op, op, failures)
        wall = time.perf_counter() - t0
    attempted += len(ops) + run_reference_ops(workload, failures)
    peaks = tracer.replay_peaks()
    spans = tracer.span_records()
    counters = dict(tracer.counters)

    # Operations that ran in child interpreters (cli-readme) report their
    # own spans; their wall time is moved out of the benchmark's own span.
    child_wall = child_import = child_main = 0.0
    for child in getattr(workload, "child_traces", []):
        offset = len(spans)
        for sid, parent, *rest in child["spans"]:
            spans.append((sid + offset, parent + offset if parent >= 0 else -1, *rest))
        for key, value in child["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in child["peaks"].items():
            peaks[key] = max(peaks.get(key, 0.0), value)
        child_wall += child["wall_s"]
        child_import += child["import_s"]
        child_main += sum(s[5] - s[4] for s in child["spans"] if s[1] < 0)

    metrics = tracing.summarize(spans, Counter(counters))
    metrics.update(peaks)
    metrics["bench.self_s"] -= child_wall
    if child_wall:
        metrics["cli.import_s"] = child_import
        metrics["cli.process_overhead_s"] = child_wall - child_import - child_main
    else:
        metrics["cli.import_s"] = import_s
        metrics["cli.process_overhead_s"] = 0.0
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    if child_wall:
        accounted += metrics["cli.import_s"] + metrics["cli.process_overhead_s"]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = wall / untraced_wall
    metrics["trace.unaccounted_s"] = wall - accounted
    metrics["trace.unaccounted_ratio"] = (wall - accounted) / wall

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "self_times": {k: v for k, v in metrics.items() if k.endswith("self_s")},
                   "metrics": metrics, "spans": spans}, fh)
    info = {"traced_ops": len(ops), "spans": len(spans), "trace_file": str(trace_path)}
    return attempted, metrics, metric_units("per_layer"), info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.probe_setup:
            print("READY", flush=True)
            return 0
        warm_linear_algebra()
        print(json.dumps({"environment": environment()}), flush=True)
        failures = []
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            attempted, metrics, units, info = traced_run(workload, import_s, failures, trace_path)
        else:
            attempted, metrics, units, info = timed_run(workload, args.seconds, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
