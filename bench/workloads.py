"""The four benchmark workloads.

Each workload generates its inputs from the run seed in its constructor
(this is the timed set-up) and hands out one *pass* of operations at a
time.  A pass is the full set of the workload's operations in a seeded
order; every pass of a run has the same operations, so a run's mix does
not depend on how many passes fit in its time budget.

An operation is a zero-argument callable into the program plus a check
of its output; the check raises `CheckFailed` on a wrong answer.
Program calls go through module attributes at call time (for example
`spectra.spectral_gap`), so a traced run sees them through its wrappers.

Why these four (each stresses different layers, so an optimization of
one layer has a workload that exercises it and one that bypasses it):

- gap-sweep: spectral gaps of open chains, l = 2..12 at 2S = 1, 2.  Large
  sectors stress `basis` and `operators`; the dense attempt that
  `spectral_gap` throws away before its sparse fallback stresses `spectra`.
- thermo-curves: full spectra plus free-energy curves on a seeded beta
  grid.  Dense per-sector eigensolves dominate; assembly is cheap.
- certify-suites: all nine certificate suites on the default grid.  Many
  small sectors driven by Python loops in `boundlab` and `checks`.
- cli-readme: the seven README commands, each in its own interpreter.
  Start-up, `cli` and `magnongas` dominate; exact diagonalization is
  nearly absent.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from magnonlab import basis, certificates, checks, spectra

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

GAP_TOL = 1e-9
MOMENT_RTOL = 1e-9
FREE_ENERGY_RTOL = 1e-10


class CheckFailed(AssertionError):
    """An operation returned a wrong answer."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pass_rng(seed, pass_index):
    return random.Random(f"{seed}/{pass_index}")


def gap_reference(ell, two_s):
    return two_s * (1.0 - math.cos(math.pi / ell))


# ---------------------------------------------------------------------------


class GapSweep:
    name = "gap-sweep"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cases = [
            (ell, two_s, basis.SpinLattice.chain(ell), basis.SpinMagnitude(two_s))
            for two_s in (1, 2) for ell in range(2, 13)
        ]

    def ops(self, pass_index, traced=False):
        order = list(self.cases)
        pass_rng(self.seed, pass_index).shuffle(order)
        return [self._op(*case) for case in order]

    @staticmethod
    def _op(ell, two_s, lattice, spin):
        def check(report):
            expected = gap_reference(ell, two_s)
            require(abs(report.gap - expected) <= GAP_TOL,
                    f"gap {report.gap!r} != 2S(1-cos(pi/l)) = {expected!r}")

        return Op(f"gap l={ell} 2S={two_s}",
                  lambda: spectra.spectral_gap(lattice, spin), check)


# ---------------------------------------------------------------------------

THERMO_CASES = (
    ("chain14-s1/2-free", ("chain", 14), 1, "free"),
    ("chain14-s1/2-pinned", ("chain", 14), 1, "dirichlet"),
    ("chain8-s1-free", ("chain", 8), 2, "free"),
    ("chain8-s1-pinned", ("chain", 8), 2, "dirichlet"),
    ("grid3x3-s1/2-free", ("square", 3), 1, "free"),
)
# Fixed inverse temperatures whose free energies are committed as references.
REFERENCE_BETAS = (0.5, 2.0, 8.0, 32.0)
BETA_RANGE = (0.25, 64.0)
BETAS_PER_PASS = 9


def make_lattice(shape):
    kind, size = shape
    return basis.SpinLattice.chain(size) if kind == "chain" else basis.SpinLattice.square(size)


def spectrum_summary(spectrum):
    """Seed-independent fingerprint of a SectorSpectrum: per-sector sizes,
    power sums p1..p4, extremes, the zero-mode count and fixed-beta
    free energies."""
    sectors = [[float(x) for x in ev] for ev in spectrum.sector_eigenvalues]
    return {
        "sector_dims": [len(ev) for ev in sectors],
        "moments": [[math.fsum(x**k for x in ev) for k in (1, 2, 3, 4)] for ev in sectors],
        "min": [min(ev) for ev in sectors],
        "max": [max(ev) for ev in sectors],
        "zero_modes": spectrum.zero_mode_count(),
        "free_energy": [spectra.free_energy(spectrum, b) for b in REFERENCE_BETAS],
    }


def independent_free_energy(eigenvalues, beta, nsites):
    emin = min(eigenvalues)
    z = math.fsum(math.exp(-beta * (e - emin)) for e in eigenvalues)
    return (emin - math.log(z) / beta) / nsites


def close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


class ThermoCurves:
    name = "thermo-curves"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.refs = load_references()["thermo-curves"]
        self.cases = [
            (label, make_lattice(shape), basis.SpinMagnitude(two_s), variant)
            for label, shape, two_s, variant in THERMO_CASES
        ]

    def betas(self, pass_index):
        rng = pass_rng(self.seed, f"beta/{pass_index}")
        lo, hi = (math.log(b) for b in BETA_RANGE)
        return sorted(math.exp(rng.uniform(lo, hi)) for _ in range(BETAS_PER_PASS))

    def ops(self, pass_index, traced=False):
        betas = self.betas(pass_index)
        order = list(self.cases)
        pass_rng(self.seed, pass_index).shuffle(order)
        return [self._op(*case, betas) for case in order]

    def _op(self, label, lattice, spin, variant, betas):
        ref = self.refs[label]

        def run():
            spectrum = spectra.full_spectrum(lattice, spin, variant)
            return spectrum, [spectra.free_energy(spectrum, b) for b in betas]

        def check(result):
            spectrum, curve = result
            m, two_s = lattice.nsites, spin.two_s
            evs = [float(x) for x in spectrum.all_eigenvalues]
            require(len(evs) == (two_s + 1) ** m, f"{label}: {len(evs)} states")
            got = spectrum_summary(spectrum)
            require(got["sector_dims"] == ref["sector_dims"], f"{label}: sector sizes")
            for n, (mom, ref_mom) in enumerate(zip(got["moments"], ref["moments"])):
                scale = max(1.0, max(abs(ref["min"][n]), abs(ref["max"][n])))
                for k, (a, b) in enumerate(zip(mom, ref_mom), 1):
                    atol = MOMENT_RTOL * ref["sector_dims"][n] * scale**k
                    require(abs(a - b) <= atol, f"{label}: sector {n} moment p{k}")
            for key in ("min", "max"):
                for a, b in zip(got[key], ref[key]):
                    require(abs(a - b) <= MOMENT_RTOL * max(1.0, abs(b)), f"{label}: {key}")
            require(got["zero_modes"] == ref["zero_modes"], f"{label}: zero modes")
            if variant == "free":
                require(got["zero_modes"] == two_s * m + 1,
                        f"{label}: {got['zero_modes']} zero modes, want 2SM+1")
            for a, b in zip(got["free_energy"], ref["free_energy"]):
                require(close(a, b, FREE_ENERGY_RTOL, 1e-12), f"{label}: reference f")
            if variant == "free" and lattice.dimension == 1:
                tol = 1e-10 * max(spectrum.scale, 1.0)
                gap = min(e for e in evs if e > tol)
                require(abs(gap - gap_reference(m, two_s)) <= GAP_TOL, f"{label}: gap")
            for beta, f in zip(betas, curve):
                want = independent_free_energy(evs, beta, m)
                require(close(f, want, FREE_ENERGY_RTOL, 1e-12),
                        f"{label}: f(beta={beta}) = {f!r}, want {want!r}")

        return Op(label, run, check)


# ---------------------------------------------------------------------------


def ledger_skeleton(ledger: bytes) -> str:
    """Digest of a ledger with the seed-dependent fields (slack, extras,
    seed) removed: names, parameters, tolerances and verdicts."""
    rows = []
    for line in ledger.decode().splitlines():
        rec = json.loads(line)
        rows.append([rec["name"], rec["params"], rec["verdict"]])
    return sha256(json.dumps(rows, sort_keys=True).encode())


class CertifySuites:
    name = "certify-suites"

    def __init__(self, seed, workdir):
        self.refs = load_references()["certify-suites"]
        self.seed = seed
        self.check_seed = random.Random(f"{seed}/checks").randrange(1, 2**31)
        self.workdir = workdir
        self.names = sorted(checks.CHECKS)
        self.first_ledgers = {}

    def ops(self, pass_index, traced=False):
        order = list(self.names)
        pass_rng(self.seed, pass_index).shuffle(order)
        return [self._op(name) for name in order]

    def _op(self, name):
        ref = self.refs[name]
        path = self.workdir / f"ledger-{name}.jsonl"

        def run():
            certs = checks.run_check(name, grid="default", seed=self.check_seed)
            certificates.write_certificate_ledger(certs, path)
            return certs

        def check(certs):
            failed = [c for c in certs if not c.passed]
            require(not failed, f"{name}: {len(failed)} certificates failed")
            ledger = path.read_bytes()
            require(len(certs) == ref["count"], f"{name}: {len(certs)} certificates")
            if ref["seeded"]:
                require(ledger_skeleton(ledger) == ref["skeleton"], f"{name}: ledger rows")
                first = self.first_ledgers.setdefault(name, ledger)
                require(ledger == first, f"{name}: ledger differs between passes")
            else:
                require(sha256(ledger) == ref["sha256"], f"{name}: ledger digest")

        return Op(name, run, check)

    def reference_ops(self):
        """The seeded suites once more at `checks.DEFAULT_SEED`, whose whole
        ledger (slacks and extras included) has a committed digest."""
        return [self._default_seed_op(name) for name in self.names if self.refs[name]["seeded"]]

    def _default_seed_op(self, name):
        path = self.workdir / f"ledger-{name}-default-seed.jsonl"

        def run():
            certs = checks.run_check(name, grid="default", seed=checks.DEFAULT_SEED)
            certificates.write_certificate_ledger(certs, path)
            return path.read_bytes()

        def check(ledger):
            require(sha256(ledger) == self.refs[name]["sha256_default_seed"],
                    f"{name}: ledger digest at the default seed")

        return Op(f"{name} (default seed)", run, check)


# ---------------------------------------------------------------------------

README_COMMANDS = (
    ("free-energy --two-s 1 --length 12 --beta logspace:1:32:9 --scaled --out curves.csv",
     "curves.csv"),
    ("free-energy --extent 3 --beta 1,2,4 --out grid.csv", "grid.csv"),
    ("verify --check php-leq-t --grid default --out certs.jsonl", "certs.jsonl"),
    ("verify --check casimir --ell 4 --two-s 1", None),
    ("asymptotics --beta-s 1e4,1e6,1e8 --upper-scale 0.5 --lower-scale 0.3 "
     "--out envelopes.csv", "envelopes.csv"),
    ("asymptotics --beta-s 1e6,1e8 --dimension 2 --out envelopes2d.csv", "envelopes2d.csv"),
    ("budget --ell 34,66 --beta 20000 --out budget.csv", "budget.csv"),
)
# Equivalent of the `magnonlab` console script.
CONSOLE_SCRIPT = "import sys; from magnonlab.cli import main; sys.exit(main())"
CLI_CHILD = BENCH_DIR / "cli_child.py"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MAGNONLAB_WORKERS"] = "1"
    return env


def run_child(argv, cwd, env):
    """Run a child interpreter to completion; return (exit code, stdout,
    stderr, peak RSS in KiB) using wait4 so the RSS is this child's own."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err_path.read_bytes(), usage.ru_maxrss


class CliReadme:
    name = "cli-readme"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.refs = load_references()["cli-readme"]
        self.workdir = workdir
        self.env = child_env()
        self.child_rss_kib = 0
        self.child_traces = []

    def ops(self, pass_index, traced=False):
        order = list(README_COMMANDS)
        pass_rng(self.seed, pass_index).shuffle(order)
        return [self._op(cmd, out, traced) for cmd, out in order]

    def _op(self, command, out_name, traced):
        ref = self.refs[command]
        argv = command.split()
        trace_path = self.workdir / "child-trace.json"
        if traced:
            full = [sys.executable, str(CLI_CHILD), str(trace_path), *argv]
        else:
            full = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]

        def run():
            if out_name:
                (self.workdir / out_name).unlink(missing_ok=True)
            t0 = time.perf_counter()
            code, stdout, stderr, rss = run_child(full, self.workdir, self.env)
            wall = time.perf_counter() - t0
            self.child_rss_kib = max(self.child_rss_kib, rss)
            if traced and code == 0:
                record = json.loads(trace_path.read_text())
                self.child_traces.append({"wall_s": wall, **record})
            return code, stdout, stderr

        def check(result):
            code, stdout, stderr = result
            require(code == 0, f"{command}: exit {code}: {stderr.decode()[-500:]}")
            require(sha256(stdout) == ref["stdout"], f"{command}: stdout digest")
            if out_name:
                data = (self.workdir / out_name).read_bytes()
                require(sha256(data) == ref["file"], f"{command}: {out_name} digest")

        return Op(command.split(" --")[0] + f" ({out_name or 'stdout'})", run, check)


WORKLOADS = {w.name: w for w in (GapSweep, ThermoCurves, CertifySuites, CliReadme)}
