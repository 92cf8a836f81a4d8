"""Every README command writes byte-identical output to its committed digest.

`bench/references.json["cli-readme"]` pins the sha256 of each README
command's standard output and, for a command with `--out`, of the file
it writes.  Each command runs in-process through `magnonlab.cli.main`
inside a fresh directory.  The references file is only read.

The digests were written with scipy's OpenBLAS at two threads on two
CPUs, and its eigensolvers round differently at one: under
`OPENBLAS_NUM_THREADS=1` the free-energy command's `curves.csv` and
php-leq-t's `certs.jsonl` fail here with no change to the program.
Each failure message names the CPU count and that variable.
"""

import hashlib
import json
import os
import shlex
from pathlib import Path

import pytest

from magnonlab.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"
COMMANDS = json.loads(REFERENCES.read_text())["cli-readme"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# what the digests depend on besides the program
BLAS_SETTING = (f"cpu_count={os.cpu_count()} "
                f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_command_output_matches_the_reference_digest(tmp_path, monkeypatch, capsys, command):
    ref = COMMANDS[command]
    argv = shlex.split(command)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == ref["stdout"], BLAS_SETTING
    if "file" in ref:
        out = tmp_path / argv[argv.index("--out") + 1]
        assert sha256(out.read_bytes()) == ref["file"], BLAS_SETTING
