#!/usr/bin/env python3
"""Measure every workload over several seeds and append the medians to
bench/trajectory.json as one trajectory point.

Usage (from the root of a checkout):

    python3 bench/record.py --label "what changed"

For each workload this runs `run.py --trace 0` once per seed in SEEDS
and `run.py --trace 1` once (first seed), one process at a time.  For
every end-to-end metric it stores the median, the quartiles and the
spread (interquartile range over median) of the per-seed values, and
checks that spread against the metric's bound in BENCHMARK.json, except
for setup_s (see MEDIAN_ONLY).  It also stores the traced run's
per-layer metrics and the per-operation latency medians.  Exits with
code 1 if any run failed a check or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(101, 111))
TRAJECTORY = BENCH_DIR / "trajectory.json"
# Metrics whose spread is reported but not checked; their median over the
# ten runs is what a comparison between commits uses.  Each setup_s value is 5 fresh interpreters of
# ~0.7 s each; on a shared 2-vCPU machine their CPU time alone varies by
# 0.1-0.3 (IQR/median) between runs, so the spread tells nothing about
# the program, while the median of ten runs moves by a few percent.
MEDIAN_ONLY = {"setup_s"}


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0])["environment"]
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return env, info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": args.label, "seeds": [SEEDS[0], SEEDS[-1]],
             "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, latencies = {}, {}
        for seed in SEEDS:
            env, info, result = run(workload, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for label, samples in info["op_latency_s"].items():
                latencies.setdefault(label, []).extend(samples)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            within = m["name"] in MEDIAN_ONLY or spread <= m["bound"]
            ok &= within
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"], "runs": len(vals)}
            print(f"  {m['name']}: median {median:.5g} {m['unit']},"
                  f" spread {spread:.3f}"
                  f" (bound {m['bound']}){'' if within else '  EXCEEDS BOUND'}", flush=True)
        _, _, traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        ok &= traced["correct"]
        point["workloads"][workload] = {
            "end_to_end": summary,
            "op_latency_median_s": {k: statistics.median(v) for k, v in sorted(latencies.items())},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    point["environment"] = env

    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
    trajectory["points"].append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
