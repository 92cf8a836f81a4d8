#!/usr/bin/env python3
"""Regenerate bench/references.json from the program in this checkout.

Usage: python3 bench/make_references.py

The references pin the program's outputs at the commit that defined the
benchmark: spectral fingerprints for thermo-curves, ledger digests for
certify-suites and output digests for cli-readme.  Regenerate them only
when the program's outputs are meant to change, and say so in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

run.import_program()

import workloads as w  # noqa: E402
from magnonlab import certificates, checks, spectra  # noqa: E402


def thermo_references():
    out = {}
    for label, shape, two_s, variant in w.THERMO_CASES:
        spectrum = spectra.full_spectrum(
            w.make_lattice(shape), w.basis.SpinMagnitude(two_s), variant)
        out[label] = w.spectrum_summary(spectrum)
    return out


def ledger(name, seed, path):
    certs = checks.run_check(name, grid="default", seed=seed)
    assert all(c.passed for c in certs), f"{name}: failing certificates"
    certificates.write_certificate_ledger(certs, path)
    return len(certs), path.read_bytes()


def certify_references(tmp):
    out = {}
    path = tmp / "ledger.jsonl"
    for name in sorted(checks.CHECKS):
        count, first = ledger(name, 11, path)
        _, second = ledger(name, 12, path)
        seeded = first != second
        ref = {"count": count, "seeded": seeded}
        if seeded:
            ref["skeleton"] = w.ledger_skeleton(first)
            assert ref["skeleton"] == w.ledger_skeleton(second), name
            _, fixed = ledger(name, checks.DEFAULT_SEED, path)
            ref["sha256_default_seed"] = w.sha256(fixed)
        else:
            ref["sha256"] = w.sha256(first)
        out[name] = ref
    return out


def cli_references(tmp):
    out = {}
    env = w.child_env()
    for command, out_name in w.README_COMMANDS:
        argv = [sys.executable, "-c", w.CONSOLE_SCRIPT, *command.split()]
        code, stdout, stderr, _ = w.run_child(argv, tmp, env)
        assert code == 0, (command, stderr)
        ref = {"stdout": w.sha256(stdout)}
        if out_name:
            ref["file"] = w.sha256((tmp / out_name).read_bytes())
        out[command] = ref
    return out


def main():
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        refs = {
            "thermo-curves": thermo_references(),
            "certify-suites": certify_references(tmp),
            "cli-readme": cli_references(tmp),
        }
    with open(w.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
