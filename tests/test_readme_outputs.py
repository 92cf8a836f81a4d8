"""Every README command writes byte-identical output to its committed digest.

`bench/references.json["cli-readme"]` pins the sha256 of each README
command's standard output and, for a command with `--out`, of the file
it writes.  Each command runs in-process through `magnonlab.cli.main`
inside a fresh directory.  The references file is only read.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from magnonlab.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"
COMMANDS = json.loads(REFERENCES.read_text())["cli-readme"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_command_output_matches_the_reference_digest(tmp_path, monkeypatch, capsys, command):
    ref = COMMANDS[command]
    argv = shlex.split(command)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == ref["stdout"]
    if "file" in ref:
        out = tmp_path / argv[argv.index("--out") + 1]
        assert sha256(out.read_bytes()) == ref["file"]
