"""Every function in `src/magnonlab` is reached by a command-line run, or
it is named in `ALLOWLIST` with the ROADMAP item that will wire it.

One interpreter runs, under `sys.setprofile`, these commands through
`magnonlab.cli.main` in a fresh directory: the README commands (the keys
of `bench/references.json["cli-readme"]`, which is only read), an
exact-ED `budget`, one `free-energy` each with `--format json`,
`--plot-script` and `--config`, one of chain 14 (whose sectors above
`spectra.WHOLE_SECTOR_MAX` come from the free chain's highest-weight
blocks), and every suite on `--grid quick`.  Each frame whose code lives in the package is
matched to a `def` that `ast` finds there, methods and nested functions
included, by file, first line and name; that needs no `co_qualname`, so
it runs on Python 3.10 too.
The functions never called must be exactly the allowlist: wiring one
means deleting its entry, and a new function that no run reaches fails.
"""

import ast
import json
import re
import shlex
import sys
from pathlib import Path

import magnonlab
from magnonlab.certificates import CHECK_NAMES
from magnonlab.cli import main

PACKAGE = Path(magnonlab.__file__).parent  # spelled as the code objects spell their files
REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"

CONFIG = "length=4\nbeta=1,2\nscaled=true\n"
RUNS = [
    *sorted(json.loads(REFERENCES.read_text())["cli-readme"]),
    "budget --ell 4,6 --beta 4,8 --e0-source exact-ed --out budget-ed.csv",
    "free-energy --length 4 --beta 1,2 --format json --out fe.jsonl",
    "free-energy --length 4 --beta 1,2 --out fe.csv --plot-script plot.py",
    "free-energy --config fe.cfg --out fe-config.csv",
    "free-energy --length 14 --beta 1 --out fe14.csv",
    *(f"verify --check {name} --grid quick" for name in CHECK_NAMES),
]

# Each function no run calls, with the ROADMAP item that will wire it.
# Entries may only go: wiring a function deletes its entry.
ALLOWLIST = {
    # the f_gas column of `limit`
    "magnongas.free_boson_integral": "item 2",
    "magnongas._integral_1d_quad": "item 2",
    "magnongas._integral_2d_quad": "item 2",
    "magnongas._integral_2d_quad.inner": "item 2",
    "magnongas._log_occupation_integral": "item 2",
    "magnongas._log_occupation_integral.plain": "item 2",
    "magnongas._log_occupation_integral.smooth": "item 2",
    "magnongas._log_shifted_antiderivative": "item 2",
    "magnongas._quad": "item 2",
    "magnongas.log_one_minus_exp": "item 2",
    # the `variational` suite
    "magnongas.missing_mode_term": "item 3",
    "magnongas.wick_occupation": "item 3",
    "magnongas.dirichlet_modes": "item 3",
    "magnongas.DirichletModeSet.count": "item 3",
    "magnongas.DirichletModeSet.eigenfunction_weights": "item 3",
    "spectra.free_boson_propagator": "item 3",
    "spectra.gibbs_variational_upper": "item 3",
    # criterion 3 and the gap-sweep workload; a `verify --check gap` suite
    "spectra.spectral_gap": "item 19",
    # the bench fingerprints and tracer
    "spectra.SectorSpectrum.scale": "item 1",
    "spectra.SectorSpectrum.zero_mode_count": "item 1",
    "operators.HermitianOperator.to_csr": "item 6",
}
ALLOWLIST_CEILING = 21


def package_functions():
    """{(file, first line, name): dotted name} of every `def` in the
    package.  The first line of a decorated function is its first
    decorator's, as in its code object."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return found


def called_functions(tmp_path, monkeypatch):
    """(file, first line, name) of every package function the runs call."""
    from magnonlab import spectra

    # the BLAS library is looked up once per process: look it up afresh,
    # whichever test ran first
    monkeypatch.setattr(spectra, "_numpy_openblas_found", None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fe.cfg").write_text(CONFIG)
    prefix = str(PACKAGE)
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    sys.setprofile(profile)
    try:
        for command in RUNS:
            codes.append(main(shlex.split(command)))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(RUNS)
    return called


def test_every_package_function_is_reached_or_allowlisted(tmp_path, monkeypatch):
    functions = package_functions()
    called = called_functions(tmp_path, monkeypatch)
    never_called = {name for key, name in functions.items() if key not in called}
    assert sorted(never_called - set(ALLOWLIST)) == [], "no run reaches these: wire or delete them"
    assert sorted(set(ALLOWLIST) - never_called) == [], "reached or gone: delete their entries"
    assert len(ALLOWLIST) <= ALLOWLIST_CEILING
    for name, item in ALLOWLIST.items():
        assert re.fullmatch(r"item \d+", item), name
