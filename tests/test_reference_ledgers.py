"""Every suite's default-grid ledger is byte-identical to its committed digest.

`bench/references.json` pins the sha256 of each ledger: `sha256` for a
suite whose ledger does not depend on the seed, `sha256_default_seed`
for one that does, written at `DEFAULT_SEED`.  A change that reorders a
floating-point reduction in a verifier fails here, not only in the
benchmark.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from magnonlab.certificates import CHECK_NAMES, DEFAULT_SEED, write_certificate_ledger
from magnonlab.checks import run_check

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_default_ledger_matches_the_reference_digest(tmp_path, name):
    ref = json.loads(REFERENCES.read_text())["certify-suites"][name]
    ledger = tmp_path / "ledger.jsonl"
    write_certificate_ledger(run_check(name, grid="default", seed=DEFAULT_SEED), ledger)
    digest = hashlib.sha256(ledger.read_bytes()).hexdigest()
    assert digest == ref["sha256_default_seed" if ref["seeded"] else "sha256"]
