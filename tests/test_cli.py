import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magnonlab
from magnonlab import certificates, checks
from magnonlab.cli import main, parse_beta_grid


def read_lines(path):
    with open(path) as fh:
        return fh.read()


def test_parse_beta_grid():
    assert parse_beta_grid("1,2,4") == [1.0, 2.0, 4.0]
    grid = parse_beta_grid("logspace:1:32:6")
    assert len(grid) == 6
    assert grid[0] == pytest.approx(1.0) and grid[-1] == pytest.approx(32.0)
    with pytest.raises(ValueError):
        parse_beta_grid("")
    with pytest.raises(ValueError):
        parse_beta_grid("1,-2")
    with pytest.raises(ValueError):
        parse_beta_grid("logspace:banana")


def test_free_energy_csv_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["free-energy", "--two-s", "1", "--length", "4", "--beta", "1,2",
            "--scaled", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    text = read_lines(out1)
    assert text == read_lines(out2)  # byte-identical reruns
    lines = text.splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == "beta,f,variant,ell,two_s,scaled_f,ratio_c1"
    assert len(lines) == 2 + 2 * 2  # two variants x two betas


def test_free_energy_without_scaled_columns(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["free-energy", "--length", "3", "--beta", "2", "--out", str(out)]) == 0
    assert read_lines(out).splitlines()[1] == "beta,f,variant,ell,two_s"


def test_free_energy_json_format(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["free-energy", "--length", "3", "--beta", "2", "--format", "json",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in read_lines(out).splitlines()]
    assert {r["variant"] for r in rows} == {"free", "dirichlet"}


def test_free_energy_empty_beta_grid_is_config_error(tmp_path):
    rc = main(["free-energy", "--length", "3", "--beta", ",", "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2


def test_free_energy_resource_guidance(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["free-energy", "--two-s", "3", "--length", "14", "--beta", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_verify_exit_codes(tmp_path):
    ledger = tmp_path / "certs.jsonl"
    rc = main(["verify", "--check", "su2", "--out", str(ledger)])
    assert rc == 0
    rows = [json.loads(line) for line in read_lines(ledger).splitlines()]
    assert all(r["verdict"] == "pass" for r in rows)
    assert {"name", "params", "slack", "tolerance", "verdict", "seed"} <= set(rows[0])


def test_verify_with_no_certificates_is_config_error(tmp_path, capsys):
    # every laplacian cell needs n <= ell, so this run would certify nothing
    ledger = tmp_path / "certs.jsonl"
    rc = main(["verify", "--check", "laplacian", "--ell", "3", "--n", "5",
               "--out", str(ledger)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not ledger.exists()


@pytest.mark.parametrize(
    "check,argv,value",
    [
        # laplacian cells need n <= ell: n=2 runs, n=5 fits no ell
        ("laplacian", ["--ell", "3", "--n", "2,5", "--grid", "quick"], "5"),
        # random-state cells need n <= 2S*ell: n=9 fits neither spin at ell=4
        ("vnorm", ["--ell", "4", "--two-s", "1,2", "--n", "2,9"], "9"),
        ("density", ["--ell", "4", "--n", "3,9", "--grid", "quick"], "9"),
    ],
)
def test_verify_rejects_an_n_override_that_fits_no_cell(tmp_path, capsys, check, argv, value):
    ledger = tmp_path / "certs.jsonl"
    rc = main(["verify", "--check", check, *argv, "--out", str(ledger)])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"n={value}" in err[0]
    assert "certificates passed" not in captured.out
    assert not ledger.exists()


def test_verify_choices_are_the_suites_of_checks():
    assert tuple(sorted(checks.CHECKS)) == certificates.CHECK_NAMES


def test_verify_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "bogus"])
    assert exc.value.code == 2


def test_verify_quick_grids_all_pass(tmp_path):
    for check in ("php-leq-t", "casimir", "laplacian", "vnorm", "density",
                  "truncation", "subadditivity", "localization"):
        assert main(["verify", "--check", check, "--grid", "quick"]) == 0


def test_asymptotics_1d_table(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["asymptotics", "--beta-s", "1e4,1e6", "--upper-scale", "0.5",
                 "--lower-scale", "0.3", "--out", str(out)]) == 0
    lines = read_lines(out).splitlines()
    assert lines[1].startswith("beta_s,two_s,ell_upper,upper,informative_upper")
    first = lines[2].split(",")
    assert first[4] == "false"  # the composed upper bound is vacuous at 1e4


def test_asymptotics_2d_table(tmp_path):
    out = tmp_path / "a2.csv"
    assert main(["asymptotics", "--beta-s", "1e6", "--dimension", "2",
                 "--out", str(out)]) == 0
    lines = read_lines(out).splitlines()
    assert lines[1] == "beta_s,two_s,ell,envelope,informative,leading,ratio,scale"
    assert lines[2].split(",")[4] == "true"


def test_asymptotics_noninformative_rows_flagged(tmp_path):
    out = tmp_path / "a3.csv"
    assert main(["asymptotics", "--beta-s", "10", "--lower-scale", "0.3",
                 "--out", str(out)]) == 0
    row = read_lines(out).splitlines()[2].split(",")
    assert row[4] == "false"


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize(
    "flag,dimension",
    [("--upper-scale", "1"), ("--upper-scale", "2"), ("--lower-scale", "1")],
)
def test_asymptotics_rejects_a_scale_that_is_not_positive_and_finite(
    tmp_path, capsys, flag, dimension, value
):
    out = tmp_path / "a.csv"
    argv = ["asymptotics", "--beta-s", "1e4", "--dimension", dimension,
            f"{flag}={value}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    side = flag[2:7]
    assert len(err) == 1 and err[0].startswith(f"error: the {side}-envelope box scale")
    assert not out.exists()


def test_budget_rows_and_error_marker(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["budget", "--ell", "34,3", "--beta", "20000", "--out", str(out)]) == 0
    lines = read_lines(out).splitlines()
    assert lines[1].startswith("ell,beta,two_s,e0_source,e0,n0,delta,ell0")
    good = lines[2].split(",")
    assert good[0] == "34" and good[10] == ""
    bad = lines[3]
    assert "needs ell >= l0/2" in bad


@pytest.mark.parametrize("ells", ["0", "-3", "34,0", ","])
def test_budget_rejects_box_sizes_below_one(tmp_path, capsys, ells):
    out = tmp_path / "b.csv"
    assert main(["budget", "--ell", ells, "--beta", "20000", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--ell" in err[0]
    assert not out.exists()


def test_budget_exact_ed(tmp_path):
    out = tmp_path / "be.csv"
    assert main(["budget", "--ell", "6", "--beta", "8", "--e0-source", "exact-ed",
                 "--out", str(out)]) == 0
    row = read_lines(out).splitlines()[2].split(",")
    assert float(row[4]) >= 0.0


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=3\nbeta=2\n# comment line\ntwo-s=2\n")
    out = tmp_path / "o.csv"
    assert main(["free-energy", "--config", str(cfg), "--two-s", "1",
                 "--out", str(out)]) == 0
    rows = read_lines(out).splitlines()[2:]
    # flag wins over config for two_s; config supplies length and beta
    assert all(r.split(",")[4] == "1" for r in rows)
    assert all(r.split(",")[3] == "3" for r in rows)
    assert {r.split(",")[0] for r in rows} == {"2.0"}


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-option=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["free-energy", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def test_plot_script_artifact(tmp_path):
    out = tmp_path / "fe.csv"
    script = tmp_path / "plot_fe.py"
    assert main(["free-energy", "--length", "3", "--beta", "1,2",
                 "--out", str(out), "--plot-script", str(script)]) == 0
    text = read_lines(script)
    assert "matplotlib" in text and str(out) in text


def test_verify_single_cell_overrides(tmp_path):
    ledger = tmp_path / "one.jsonl"
    rc = main(["verify", "--check", "casimir", "--ell", "4", "--two-s", "1",
               "--out", str(ledger)])
    assert rc == 0
    rows = [json.loads(line) for line in read_lines(ledger).splitlines()]
    assert len(rows) == 1 and rows[0]["params"] == {"ell": 4, "two_s": 1}


def test_verify_ledger_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify", "--check", "vnorm", "--grid", "quick", "--out", str(a)])
    main(["verify", "--check", "vnorm", "--grid", "quick", "--out", str(b)])
    assert read_lines(a) == read_lines(b)


def test_verify_accepts_a_comma_list_of_spins(tmp_path):
    ledger = tmp_path / "su2.jsonl"
    assert main(["verify", "--check", "su2", "--two-s", "1,2", "--out", str(ledger)]) == 0
    rows = [json.loads(line) for line in read_lines(ledger).splitlines()]
    assert [r["params"]["two_s"] for r in rows] == [1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--two-s", "1.5", "--length", "3", "--beta", "1"],
        ["asymptotics", "--two-s", "x"],
        ["budget", "--two-s", "1,2"],
    ],
)
def test_non_integer_two_s_is_a_one_line_config_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--two-s must be an integer" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("beta", ["nan,inf", "1,inf", "nan", "logspace:1:inf:3"])
def test_non_finite_beta_is_rejected(tmp_path, beta):
    with pytest.raises(ValueError):
        parse_beta_grid(beta)
    out = tmp_path / "x.csv"
    assert main(["free-energy", "--length", "3", "--beta", beta, "--out", str(out)]) == 2
    assert not out.exists()


def _one_error_line_and_no_ledger(capsys, ledger):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "certificates passed" not in captured.out
    assert not ledger.exists()
    return err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--check", "casimir", "--ell", "16", "--two-s", "2"],
        ["--check", "php-leq-t", "--ell", "12", "--n", "12"],
        ["--check", "subadditivity", "--ell", "30"],
    ],
)
def test_verify_resource_limit_is_a_one_line_error(tmp_path, capsys, argv):
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    _one_error_line_and_no_ledger(capsys, ledger)


def test_verify_vnorm_refuses_a_sector_above_the_cap(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sector enumerated before the size check")

    monkeypatch.setattr(checks, "enumerate_sector_basis", refuse)
    ledger = tmp_path / "certs.jsonl"
    argv = ["--check", "vnorm", "--ell", "30", "--n", "15", "--two-s", "1"]
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    err = _one_error_line_and_no_ledger(capsys, ledger)
    assert err == "error: sector n=15 has dimension 155117520 > 1048576"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--check", "su2", "--ell", "99", "--n", "7", "--beta", "3"], "--ell"),
        (["--check", "localization", "--ell", "99", "--two-s", "3", "--grid", "quick"],
         "--ell"),
        (["--check", "casimir", "--n", "5", "--grid", "quick"], "--n"),
    ],
)
def test_verify_rejects_an_override_the_suite_does_not_take(tmp_path, capsys, argv, flag):
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    err = _one_error_line_and_no_ledger(capsys, ledger)
    assert f"{flag} does not apply to {argv[1]}" in err


def test_verify_has_no_format_flag(tmp_path, capsys):
    # verify always writes JSON lines; a --format it ignored would mislead
    ledger = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "su2", "--format", "csv", "--out", str(ledger)])
    assert exc.value.code == 2 and not ledger.exists()
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


# one case per subcommand: argv without a config, a config value that
# argparse must reject, and a config spelling out every default
CONFIG_CASES = {
    "free-energy": (
        ["free-energy"],
        "format=xml",
        "two-s=1\nlength=8\nbeta=logspace:1:32:9\nformat=csv\nscaled=false\n",
    ),
    "verify": (
        ["verify", "--check", "su2"],
        "grid=bogus",
        "grid=default\nseed=20260811\n",
    ),
    "asymptotics": (
        ["asymptotics"],
        "dimension=3",
        "two-s=1\nbeta-s=1e4,1e6,1e8\ndimension=1\nupper-scale=1.0\n"
        "lower-scale=1.0\nformat=csv\n",
    ),
    "budget": (
        ["budget"],
        "e0-source=bogus",
        "two-s=1\nell=6\nbeta=logspace:1:32:9\ne0-source=preliminary\nformat=csv\n",
    ),
}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_values_get_the_checks_of_flags(tmp_path, capsys, command):
    argv, bad_line, defaults = CONFIG_CASES[command]
    bad, full = tmp_path / "bad.cfg", tmp_path / "defaults.cfg"
    bad.write_text(f"# comment\n\n{bad_line}\n")
    full.write_text(defaults)
    out = tmp_path / "bad.out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(bad), "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert bad_line.split("=")[1] in capsys.readouterr().err

    plain, configured = tmp_path / "plain.out", tmp_path / "configured.out"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--config", str(full), "--out", str(configured)]) == 0
    assert read_lines(plain) == read_lines(configured)


def test_config_booleans_and_underscore_keys(tmp_path):
    header = {}
    for value in ("true", "false"):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"length=3\nbeta=2\ntwo_s=2\nscaled={value}\n")
        out = tmp_path / f"{value}.csv"
        assert main(["free-energy", "--config", str(cfg), "--out", str(out)]) == 0
        lines = read_lines(out).splitlines()
        header[value] = lines[1]
        assert all(r.split(",")[4] == "2" for r in lines[2:])
    assert header["true"] == "beta,f,variant,ell,two_s,scaled_f,ratio_c1"
    assert header["false"] == "beta,f,variant,ell,two_s"


def test_config_line_without_equals_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=3\nbeta 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["free-energy", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"{cfg}:2:" in capsys.readouterr().err


# Each command runs in a fresh interpreter: the in-process tests above
# have already loaded every layer.
LOADED_SCIPY = """
import json, sys
from magnonlab.cli import main
if sys.argv[1:]:
    code = main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.startswith("scipy._") and hasattr(module, "__path__")
)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["budget", "--ell", "34,66", "--beta", "20000", "--out", "budget.csv"],
        ["asymptotics", "--beta-s", "1e6,1e8", "--dimension", "2", "--out", "a2.csv"],
        ["asymptotics", "--beta-s", "1e4,1e6,1e8", "--upper-scale", "0.5",
         "--lower-scale", "0.3", "--out", "a1.csv"],
    ],
)
def test_closed_form_commands_load_no_scipy_subpackage(tmp_path, argv):
    src = str(Path(magnonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCIPY, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(magnonlab.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "magnonlab"):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
