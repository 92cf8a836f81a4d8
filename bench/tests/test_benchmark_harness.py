"""Tests of the benchmark harness itself (not of magnonlab).

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import numpy.linalg  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from magnonlab import basis, operators, spectra  # noqa: E402

EXACT_COUNTS = ("basis.states", "operators.nnz", "spectra.dense_dim3", "checks.cells")


def test_self_times_on_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [
        (0, -1, "bench.op", "bench", 0.0, 10.0, None),
        (1, 0, "spectra.full_spectrum", "spectra", 1.0, 4.0, None),
        (2, 1, "basis.enumerate_sector_basis", "basis", 2.0, 3.0, None),
        (3, 0, "spectra.full_spectrum", "spectra", 5.0, 9.0, "ResourceLimitError"),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    summary = tracing.summarize(spans, Counter())
    assert summary["bench.self_s"] == 3.0
    assert summary["spectra.self_s"] == 6.0
    assert summary["basis.enumerate.self_s"] == 1.0
    assert summary["spectra.full_spectrum.refused"] == 1
    assert summary["spectra.full_spectrum.wasted_s"] == 4.0
    assert summary["spectra.full_spectrum.useful_ratio"] == pytest.approx(3.0 / 7.0)
    assert sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",)) == 10.0


def _bindings():
    """Every object the tracer may replace, keyed by where it is bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("magnonlab"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    out[(name, attr, key)] = item
    for meth in ("to_csr", "to_dense"):
        out[("HermitianOperator", meth)] = vars(operators.HermitianOperator)[meth]
    for mod in (scipy.linalg, numpy.linalg):
        for attr in ("eigvalsh", "eigh"):
            out[(mod.__name__, attr)] = getattr(mod, attr)
    out[("scipy.sparse.linalg", "eigsh")] = scipy.sparse.linalg.eigsh
    return out


def _unchanged(before):
    after = _bindings()
    return after.keys() == before.keys() and all(after[k] is before[k] for k in before)


class _TinyGapWorkload:
    name = "tiny"
    seed = 0

    def ops(self, pass_index, traced=False):
        return [op for op in workloads.GapSweep(0, None).ops(0)
                if op.label in ("gap l=4 2S=1", "gap l=5 2S=2")]


def test_traced_run_installs_wrappers_and_restores_them(tmp_path):
    before = _bindings()
    failures = []
    tracer = tracing.Tracer()
    with tracer:
        for binding in (spectra.enumerate_sector_basis, basis.enumerate_sector_basis,
                        spectra.assemble_heisenberg, sys.modules["magnonlab.checks"].CHECKS["su2"],
                        operators.HermitianOperator.to_csr, scipy.linalg.eigvalsh):
            assert hasattr(binding, "__bench_original__")
        spectra.spectral_gap(basis.SpinLattice.chain(4), basis.SpinMagnitude(1))
    assert tracer.counters["basis.states"] == 16
    assert _unchanged(before)

    attempted, metrics, units, _ = run.traced_run(
        _TinyGapWorkload(), 0.0, failures, tmp_path / "trace.json")
    assert _unchanged(before)
    assert not any(hasattr(v, "__bench_original__") for v in _bindings().values())
    assert failures == [] and attempted == 4
    assert set(units) <= set(metrics)
    assert metrics["spectra.gap.self_s"] > 0
    assert abs(metrics["trace.unaccounted_ratio"]) < 0.01
    saved = json.loads((tmp_path / "trace.json").read_text())
    assert len(saved["spans"]) == metrics["trace.spans"]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_same_inputs(cls, tmp_path):
    def inputs(seed, pass_index):
        w = cls(seed, tmp_path)
        extra = [getattr(w, "check_seed", None)]
        if hasattr(w, "betas"):
            extra.append(w.betas(pass_index))
        return [op.label for op in w.ops(pass_index)], extra

    assert inputs(7, 0) == inputs(7, 0)
    assert inputs(7, 1) == inputs(7, 1)
    assert inputs(7, 0) != inputs(8, 0)
    assert sorted(inputs(7, 0)[0]) == sorted(inputs(8, 3)[0])


def _traced_counts(ops):
    tracer = tracing.Tracer()
    failures = []
    with tracer:
        for op in ops:
            tracer.run_span("bench.op", "bench", run.run_op, op, failures)
    assert failures == []
    summary = tracing.summarize(tracer.span_records(), tracer.counters)
    return {key: summary[key] for key in EXACT_COUNTS}


def test_exact_counts_repeat_across_runs_and_seeds(tmp_path):
    def ops(seed):
        gap = [op for op in workloads.GapSweep(seed, tmp_path).ops(0)
               if int(op.label.split()[1][2:]) <= 8]
        thermo = [op for op in workloads.ThermoCurves(seed, tmp_path).ops(0)
                  if op.label.startswith("chain8")]
        certify = workloads.CertifySuites(seed, tmp_path).ops(0)
        return gap + thermo + certify

    first = _traced_counts(ops(1))
    assert all(first[key] > 0 for key in EXACT_COUNTS)
    assert _traced_counts(ops(1)) == first
    assert _traced_counts(ops(2)) == first


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    failures = []
    attempted, metrics, units, info = run.timed_run(
        workloads.CertifySuites(3, tmp_path), 0, failures)
    # nine suites per pass, plus the three seeded suites at the default seed
    assert failures == [] and info["latency_samples"] == 9 and attempted == 12
    assert set(metrics) == set(units) == set(run.metric_units("end_to_end"))
    assert all(value > 0 for value in metrics.values())
    assert metrics["ok_ratio"] == 1.0


def test_default_seed_ledger_check_catches_a_changed_ledger(tmp_path):
    workload = workloads.CertifySuites(3, tmp_path)
    ops = {op.label: op for op in workload.reference_ops()}
    assert set(ops) == {f"{name} (default seed)" for name in ("density", "laplacian", "vnorm")}
    ledger = ops["vnorm (default seed)"].run()
    ops["vnorm (default seed)"].check(ledger)
    with pytest.raises(workloads.CheckFailed):
        ops["vnorm (default seed)"].check(ledger.replace(b"}", b" }", 1))


def test_benchmark_json_names_this_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["paths"] == [BENCH_DIR.name]
    assert spec["command"] == ["python3", f"{BENCH_DIR.name}/run.py"]
