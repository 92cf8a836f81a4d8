"""Every suite's default-grid ledger is byte-identical to its committed digest.

`bench/references.json` pins the sha256 of each ledger: `sha256` for a
suite whose ledger does not depend on the seed, `sha256_default_seed`
for one that does, written at `DEFAULT_SEED`.  A change that reorders a
floating-point reduction in a verifier fails here, not only in the
benchmark.  The file is only read.

The digests were written with scipy's OpenBLAS at two threads on two
CPUs, and its eigensolvers round differently at one: under
`OPENBLAS_NUM_THREADS=1` the casimir, laplacian and php-leq-t ledgers
fail here with no change to the program.  Each failure message names
the CPU count and that variable.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from magnonlab.certificates import CHECK_NAMES, DEFAULT_SEED, write_certificate_ledger
from magnonlab.checks import run_check

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"
# what the digests depend on besides the program
BLAS_SETTING = (f"cpu_count={os.cpu_count()} "
                f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_default_ledger_matches_the_reference_digest(tmp_path, name):
    ref = json.loads(REFERENCES.read_text())["certify-suites"][name]
    ledger = tmp_path / "ledger.jsonl"
    write_certificate_ledger(run_check(name, grid="default", seed=DEFAULT_SEED), ledger)
    digest = hashlib.sha256(ledger.read_bytes()).hexdigest()
    assert digest == ref["sha256_default_seed" if ref["seeded"] else "sha256"], BLAS_SETTING
