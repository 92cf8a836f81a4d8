import ast
import csv
import hashlib
import inspect
import json
import math
import os
import re
import runpy
import subprocess
import sys
import types
import warnings
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
        ("laplacian", ["--ell", "3", "--n", "2,5"], "5"),
        # vnorm cells need n <= ell and density cells n <= 2S*ell: at ell=4,
        # n=9 fits neither vnorm spin, nor density's 2S=2 (its 2S=3 would fit)
        ("vnorm", ["--ell", "4", "--two-s", "1,2", "--n", "2,9"], "9"),
        ("density", ["--ell", "4", "--two-s", "2", "--n", "3,9"], "9"),
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


def test_every_suite_has_one_grid_named_default():
    for run in checks.CHECKS.values():
        assert "grid" not in inspect.signature(run).parameters
    named = checks.run_check("su2", grid="default", seed=certificates.DEFAULT_SEED)
    assert [c.params for c in named] == [c.params for c in checks.run_check("su2")]
    with pytest.raises(ValueError, match="'quick'"):
        checks.run_check("su2", grid="quick")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "su2", "--grid", "quick"])
    assert exc.value.code == 2


def test_verify_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "bogus"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("value", ["-5", "0.5", "nan"])
def test_asymptotics_2d_refuses_a_lower_scale_it_would_ignore(tmp_path, capsys, value):
    # the 2d table has no lower envelope; only the default 1 is accepted
    out = tmp_path / "a.csv"
    argv = ["asymptotics", "--beta-s", "1e6", "--dimension", "2", "--out", str(out)]
    assert main(argv + [f"--lower-scale={value}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --lower-scale")
    assert not out.exists()
    assert main(argv + ["--lower-scale", "1"]) == 0


def test_budget_rows_and_error_marker(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["budget", "--ell", "34,3", "--beta", "20000", "--out", str(out)]) == 0
    lines = read_lines(out).splitlines()
    assert lines[1].startswith("ell,beta,two_s,e0_source,e0,n0,delta,ell0")
    good = lines[2].split(",")
    assert good[0] == "34" and good[10] == ""
    bad = lines[3]
    assert "needs ell >= l0/2" in bad


def test_budget_error_cell_prints_l0_in_short_form(tmp_path):
    # l0/2 at beta 1e308 has 153 digits before the point; the message
    # gives it to six significant digits
    out = tmp_path / "b.csv"
    assert main(["budget", "--ell", "3", "--beta", "1e308", "--out", str(out)]) == 0
    (row,) = list(csv.DictReader(read_lines(out).splitlines()[1:]))
    assert "l0/2 = 1.87937e+152 " in row["error"]
    assert max(len(number) for number in re.findall(r"\d[\d.e+-]*", row["error"])) <= 12


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


def test_budget_exact_ed_builds_one_spectrum_per_box(tmp_path, monkeypatch):
    from magnonlab import spectra

    calls = []
    exact = spectra.full_spectrum

    def counted(lattice, spin, variant="free"):
        calls.append((lattice.nsites, spin.two_s, variant))
        return exact(lattice, spin, variant)

    monkeypatch.setattr(spectra, "full_spectrum", counted)
    out = tmp_path / "be.csv"
    assert main(["budget", "--ell", "5,6", "--beta", "4,8,16", "--e0-source", "exact-ed",
                 "--out", str(out)]) == 0
    assert calls == [(5, 1, "free"), (6, 1, "free")]
    assert len(read_lines(out).splitlines()) == 2 + 2 * 3


def test_budget_exact_ed_reports_a_refused_box_on_every_row(tmp_path):
    out = tmp_path / "be.csv"
    # beta = 1 has beta*S <= 1, but the box is refused before any row is built
    assert main(["budget", "--ell", "30", "--beta", "1,8", "--e0-source", "exact-ed",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_lines(out).splitlines()[1:]))
    assert [row["beta"] for row in rows] == ["1.0", "8.0"]
    for row in rows:
        assert row["error"].startswith("total dimension 1073741824 exceeds cap")
        assert row["e0"] == ""


def test_budget_exact_ed_between_the_two_logarithms_has_data_and_no_implied_c(tmp_path):
    # 2S = 4, beta = 0.8, 0.9: (beta/2) S <= 1 < (beta/2) S^3
    out = tmp_path / "be.csv"
    assert main(["budget", "--two-s", "4", "--ell", "3", "--beta", "0.8,0.9",
                 "--e0-source", "exact-ed", "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_lines(out).splitlines()[1:]))
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == "" and row["implied_c"] == ""
        assert float(row["e0"]) > 0 and float(row["delta"]) > 0


def test_budget_box_scale_stays_finite_where_four_beta_s_overflows(tmp_path):
    # l0 = sqrt(4x / ln x) at x = beta S = 5e307, where 4x is past the largest double
    out = tmp_path / "be.csv"
    assert main(["budget", "--ell", "3", "--beta", "1e308", "--e0-source", "exact-ed",
                 "--out", str(out)]) == 0
    (row,) = csv.DictReader(read_lines(out).splitlines()[1:])
    x = 1e308 * 0.5
    assert float(row["ell0"]) == pytest.approx(
        math.sqrt(4.0 * (x / math.log(x))), rel=1e-15, abs=0
    )


# sha256 of each table the README does not pin: every table command in
# JSON lines (free energy with and without the scaled pair, both envelope
# dimensions, a budget with error rows, an exact-ED budget with the
# single-site box, a beta*S <= 1 row and data rows), and the first
# budget's CSV, whose error rows leave the value columns empty
TABLE_DIGESTS = {
    "free-energy --length 4 --beta 1,2 --format json":
        "80b7ad8323508620f9812218325dd6843e9816bbb9c80134aa50275da2b5f4da",
    "free-energy --length 4 --beta 1,2 --scaled --format json":
        "9a3bde4a5ce77fd6fc118bb791c386d89e4015f654cd34ae96d609fc5e7fa92a",
    "asymptotics --beta-s 1e4,1e8 --format json":
        "9467d54bee8a81c3d31e3832adfba7f853a56aa9cc1ac3d2f7cca2b3ea7fe509",
    "asymptotics --dimension 2 --two-s 2 --beta-s 1e4,1e8 --format json":
        "b5a0a3ef272e6c9a2a3491f4be6ac57c4f334acbe09e1f560d29db37042586d5",
    "budget --ell 1,40 --beta 4,32 --format json":
        "ee95be754545258314314dbb23ff28567f098e09dd22db9b7d9c6007c151f07a",
    "budget --ell 1,40 --beta 4,32":
        "e4f1f947219b6a0841e5de6f3b3f23c1b1d9a1518e92ed0a3f70baddcd3e4062",
    "budget --ell 1,4,6 --beta 1,4,8 --e0-source exact-ed --format json":
        "75d3183c87fc26cf0e33aa0657a43ab938d512be14885cd1d16b0f658025f361",
}


@pytest.mark.parametrize("command", sorted(TABLE_DIGESTS))
def test_table_bytes_match_their_digest(tmp_path, command):
    out = tmp_path / "table"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_DIGESTS[command]


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
    # the CSV is named relative to the script's directory, not as given to --out
    assert "matplotlib" in text and repr(out.name) in text and str(out) not in text


def _run_plot_script(script, monkeypatch):
    """Run a generated plot script against a stub matplotlib; return the
    (label, xs, ys) of each plotted line."""
    plotted = []
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.plot = lambda xs, ys, label=None: plotted.append((label, list(xs), list(ys)))
    pyplot.xlabel = pyplot.ylabel = pyplot.legend = pyplot.show = lambda *a, **k: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    runpy.run_path(str(script))
    return plotted


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@pytest.mark.parametrize(
    "argv,xcol,ycol,labels",
    [
        (["free-energy", "--length", "4", "--beta", "1,2"], "beta", "f",
         ["free", "dirichlet"]),
        (["asymptotics", "--beta-s", "1e4,1e6"], "beta_s", "width", ["width"]),
    ],
    ids=["free-energy", "asymptotics"],
)
def test_plot_script_plots_the_csv_columns(tmp_path, monkeypatch, argv, xcol, ycol, labels):
    out = tmp_path / "table.csv"
    script = tmp_path / "plot.py"
    assert main(argv + ["--out", str(out), "--plot-script", str(script)]) == 0
    plotted = _run_plot_script(script, monkeypatch)
    rows = _csv_rows(out)
    assert [label for label, _, _ in plotted] == labels
    assert [x for _, xs, _ in plotted for x in xs] == [float(r[xcol]) for r in rows]
    assert [y for _, _, ys in plotted for y in ys] == [float(r[ycol]) for r in rows]


def test_plot_script_reads_the_csv_next_to_it_from_any_directory(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["free-energy", "--length", "3", "--beta", "1,2",
                 "--out", "sub/fe.csv", "--plot-script", "sub/plot.py"]) == 0
    rows = _csv_rows(sub / "fe.csv")
    for cwd in (sub, tmp_path.parent):
        monkeypatch.chdir(cwd)
        plotted = _run_plot_script(sub / "plot.py", monkeypatch)
        assert [y for _, _, ys in plotted for y in ys] == [float(r["f"]) for r in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--length", "3", "--beta", "1,2"],
        ["asymptotics", "--beta-s", "1e4,1e6"],
    ],
    ids=["free-energy", "asymptotics"],
)
def test_plot_script_refuses_json_tables(tmp_path, capsys, argv):
    out = tmp_path / "table.jsonl"
    script = tmp_path / "plot.py"
    code = main(argv + ["--format", "json", "--out", str(out), "--plot-script", str(script)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "--format csv" in err[0]
    assert not out.exists() and not script.exists()


def test_verify_single_cell_overrides(tmp_path):
    ledger = tmp_path / "one.jsonl"
    rc = main(["verify", "--check", "casimir", "--ell", "4", "--two-s", "1",
               "--out", str(ledger)])
    assert rc == 0
    rows = [json.loads(line) for line in read_lines(ledger).splitlines()]
    assert len(rows) == 1 and rows[0]["params"] == {"ell": 4, "two_s": 1}


def test_verify_ledger_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify", "--check", "vnorm", "--out", str(a)])
    main(["verify", "--check", "vnorm", "--out", str(b)])
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


def test_free_energy_refuses_a_non_finite_f(tmp_path, capsys):
    # beta=1e-320 overflows f = -ln Z / (beta l) to -inf
    out = tmp_path / "fe.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["free-energy", "--length", "3", "--beta", "1e-320,1e-300",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("check", ["subadditivity", "truncation"])
def test_verify_fails_an_overflowing_free_energy_without_a_warning(capsys, check):
    # beta=1e-320 overflows f = -ln Z / (beta l) to -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--check", check, "--beta", "1e-320"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("FAIL ")


def test_truncation_at_a_huge_beta_passes_without_a_warning(capsys, tmp_path):
    # chain 4's zero modes round to about -5.5e-17, so exp(-beta E)
    # overflows at beta=1e20; those sums are taken again with the energies
    # clamped at 0 (H >= 0), and the sums of the default grid, all finite,
    # are not, so its committed ledger keeps its bytes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--check", "truncation", "--beta", "1e20"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("PASS ")
    ledger = tmp_path / "ledger.jsonl"
    assert main(["verify", "--check", "truncation", "--out", str(ledger)]) == 0
    references = json.loads((Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())
    digest = references["certify-suites"]["truncation"]["sha256"]
    assert hashlib.sha256(ledger.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("check", ["subadditivity", "truncation"])
def test_a_non_finite_ledger_value_is_written_as_strict_json(tmp_path, check):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "s.jsonl"
    assert main(["verify", "--check", check, "--beta", "1e-320", "--out", str(out)]) == 1
    (record,) = [json.loads(line, parse_constant=refuse) for line in out.read_text().splitlines()]
    assert record["slack"] == "nan" and record["verdict"] == "fail"
    cert = certificates.InequalityCertificate(
        "x", {"beta": -math.inf}, math.nan, math.inf, extras={"e0": math.inf, "n": 1.0})
    assert json.loads(cert.to_json(), parse_constant=refuse) == {
        "name": "x", "params": {"beta": "-inf"}, "slack": "nan", "tolerance": "inf",
        "verdict": "fail", "seed": None, "extras": {"e0": "inf", "n": 1.0}}


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotics", "--beta-s", "1e89"],
        ["asymptotics", "--beta-s", "1e250", "--dimension", "2"],
        ["asymptotics", "--beta-s", "1e6", "--upper-scale", "1e300"],
        ["free-energy", "--length", "3", "--beta", "1e210", "--scaled"],
    ],
    ids=["entropy-error", "2d-envelope", "upper-scale", "scaled-f"],
)
def test_a_value_that_overflows_is_a_one_line_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_an_envelope_past_the_mode_sum_term_bound_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["asymptotics", "--beta-s", "1e70", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the 1d mode sum")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--length", "3", "--beta", "1", "--config", "{tmp}/missing.cfg",
         "--out", "{tmp}/f.csv"],
        ["free-energy", "--length", "3", "--beta", "1", "--out", "{tmp}/missing/f.csv"],
        ["asymptotics", "--out", "{tmp}/missing/a.csv"],
        ["budget", "--out", "{tmp}/missing/b.csv"],
        ["verify", "--check", "su2", "--out", "{tmp}/missing/certs.jsonl"],
        ["free-energy", "--length", "3", "--beta", "1", "--out", "{tmp}/f.csv",
         "--plot-script", "{tmp}/missing/plot.py"],
        ["asymptotics", "--out", "{tmp}/a.csv", "--plot-script", "{tmp}/missing/plot.py"],
        # a plot script that would overwrite the table it plots
        ["free-energy", "--length", "4", "--beta", "1", "--out", "{tmp}/x.csv",
         "--plot-script", "{tmp}/x.csv"],
        ["asymptotics", "--out", "{tmp}/x.csv", "--plot-script", "{tmp}/./x.csv"],
    ],
    ids=["config", "free-energy-out", "asymptotics-out", "budget-out", "verify-out",
         "free-energy-plot-script", "asymptotics-plot-script", "free-energy-plot-over-out",
         "asymptotics-plot-over-out"],
)
def test_a_file_that_cannot_be_read_or_written_is_a_one_line_error(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--length", "12", "--beta", "1", "--out", ""],
        ["free-energy", "--length", "12", "--beta", "1", "--out", "{tmp}/outdir"],
        ["free-energy", "--length", "12", "--beta", "1", "--out", "{tmp}/f.csv",
         "--plot-script", ""],
        ["free-energy", "--length", "12", "--beta", "1", "--out", "{tmp}/f.csv",
         "--plot-script", "{tmp}/outdir"],
        ["verify", "--check", "casimir", "--out", ""],
        ["verify", "--check", "casimir", "--out", "{tmp}/outdir"],
    ],
    ids=["free-energy-empty-out", "free-energy-directory-out", "empty-plot-script",
         "directory-plot-script", "verify-empty-out", "verify-directory-out"],
)
def test_an_empty_or_directory_output_path_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv
):
    from magnonlab import spectra

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(spectra, "full_spectrum", refuse)
    monkeypatch.setattr(checks, "run_check", refuse)
    (tmp_path / "outdir").mkdir()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.rglob("*")) == [tmp_path / "outdir"]


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


def test_verify_php_refuses_a_sector_above_the_dense_cap(tmp_path, capsys, monkeypatch):
    from magnonlab import boundlab

    def refuse(*args, **kwargs):
        raise AssertionError("sector enumerated before the size check")

    monkeypatch.setattr(boundlab, "enumerate_sector_basis", refuse)
    ledger = tmp_path / "certs.jsonl"
    argv = ["--check", "php-leq-t", "--ell", "8", "--n", "8", "--two-s", "1"]
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    err = _one_error_line_and_no_ledger(capsys, ledger)
    assert err == "error: sector n=8 has dimension 6435 > 6000"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--check", "subadditivity", "--ell", "1"],
         "error: subadditivity splits a chain of L >= 2 sites, got L=1"),
        (["--check", "php-leq-t", "--n", "-1"], "error: n must be >= 0, got n=-1"),
    ],
)
def test_verify_refuses_a_cell_outside_its_check_before_any_work(
    tmp_path, capsys, monkeypatch, argv, message
):
    from magnonlab import boundlab, spectra

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the cell was checked")

    monkeypatch.setattr(spectra, "full_spectrum", refuse)
    monkeypatch.setattr(boundlab, "enumerate_sector_basis", refuse)
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    assert _one_error_line_and_no_ledger(capsys, ledger) == message


@pytest.mark.parametrize(
    "argv,first_work,message",
    [
        (["--check", "su2", "--two-s", "1,0"], "verify_su2_representation", "two_s must be"),
        (["--check", "php-leq-t", "--ell", "3,1"], "verify_php_leq_t", "extent must be"),
        (["--check", "casimir", "--ell", "11,1"], "verify_casimir_lower_bound",
         "extent must be"),
        (["--check", "laplacian", "--ell", "9,1"], "verify_laplacian_lower_bound",
         "extent must be"),
        (["--check", "laplacian", "--two-s", "2,0"], "verify_laplacian_lower_bound",
         "two_s must be"),
        (["--check", "vnorm", "--ell", "4,1", "--two-s", "2"], "enumerate_sector_basis",
         "extent must be"),
        (["--check", "density", "--ell", "4", "--two-s", "1,0"], "dense_sectors",
         "two_s must be"),
        (["--check", "truncation", "--ell", "4,1"], "verify_low_energy_truncation",
         "extent must be"),
        (["--check", "subadditivity", "--ell", "13,1"], "check_subadditivity", "got L=1"),
        (["--check", "subadditivity", "--two-s", "1,0"], "check_subadditivity",
         "two_s must be"),
        # every cell's sectors are sized before the first cell runs: the
        # n = 0..4 laplacian cells and the chain-7 casimir cell fit
        (["--check", "laplacian", "--ell", "14", "--two-s", "2"],
         "verify_laplacian_lower_bound", "error: sector n=5 has dimension 7098 > 6000"),
        (["--check", "casimir", "--ell", "7,16", "--two-s", "2"],
         "verify_casimir_lower_bound", "error: sector n=5 has dimension 13328 > 6000"),
        (["--check", "php-leq-t", "--n", "8,-1"], "verify_php_leq_t",
         "error: n must be >= 0, got n=-1"),
        (["--check", "density", "--ell", "4,15", "--n", "2,7", "--two-s", "1"],
         "dense_sectors", "error: sector n=7 has dimension 6435 > 6000"),
        # the spectrum suites size every sector of each cell's longest chain
        (["--check", "truncation", "--ell", "5,15"], "verify_low_energy_truncation",
         "error: sector n=7 has dimension 6435 > 6000"),
        (["--check", "subadditivity", "--ell", "12,16"], "check_subadditivity",
         "error: sector n=6 has dimension 8008 > 6000"),
        (["--check", "laplacian", "--n", "2,-1"], "verify_laplacian_lower_bound",
         "error: n must be >= 0, got n=-1"),
        (["--check", "vnorm", "--n", "2,-1"], "enumerate_sector_basis",
         "error: n must be >= 0, got n=-1"),
        (["--check", "density", "--n", "2,-1"], "dense_sectors",
         "error: n must be >= 0, got n=-1"),
        # the collapse map of a vnorm cell needs n <= ell, though n=6 fits 2S*ell
        (["--check", "vnorm", "--ell", "4", "--n", "1,6", "--two-s", "2"],
         "enumerate_sector_basis", "n=6 gives no cell"),
        # the spectrum suites also size each cell's whole chain, as full_spectrum does
        (["--check", "subadditivity", "--ell", "2", "--two-s", "1,1024"], "check_subadditivity",
         "error: total dimension 1050625 exceeds cap 1048576"),
        # a negative seed is refused by every suite, whether it draws or not
        (["--check", "laplacian", "--ell", "2", "--two-s", "1", "--seed", "-5"],
         "verify_laplacian_lower_bound", "error: --seed must be >= 0, got -5"),
        (["--check", "vnorm", "--seed", "-5"], "enumerate_sector_basis",
         "error: --seed must be >= 0, got -5"),
        (["--check", "su2", "--seed", "-1"], "verify_su2_representation",
         "error: --seed must be >= 0, got -1"),
    ],
)
def test_verify_refuses_a_bad_cell_before_the_first_cell_runs(
    tmp_path, capsys, monkeypatch, argv, first_work, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(checks, first_work, refuse)
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", *argv, "--out", str(ledger)]) == 2
    assert message in _one_error_line_and_no_ledger(capsys, ledger)


def test_verify_localization_runs_each_cell_once_per_beta(tmp_path):
    # the default cells (7, 2, 1, 2.0) and (7, 2, 1, 4.0) share one triple
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", "--check", "localization", "--beta", "2", "--out", str(ledger)]) == 0
    params = [json.dumps(json.loads(line)["params"], sort_keys=True)
              for line in read_lines(ledger).splitlines()]
    assert len(params) == len(set(params)) == 4


def _laplacian_params(ell):
    params = []
    for n in range(ell + 1):
        params.append({"ell": ell, "two_s": 1, "n": n})
        if n >= 1:
            params.append({"ell": ell, "n": n, "samples": 100})
    return params


@pytest.mark.parametrize(
    "argv,params",
    [
        # casimir, truncation and subadditivity run their fallback block
        (["casimir", "--ell", "4"], [{"ell": 4, "two_s": 1}]),
        (["truncation", "--beta", "2"], [{"ell": 4, "two_s": 1, "beta": 2.0}]),
        (["subadditivity", "--two-s", "2"], [{"L": 6, "two_s": 2, "beta": 2.0}]),
        # each default triple once, with both override betas
        (["localization", "--beta", "2,2"],
         [{"L": total, "ell": ell, "two_s": two_s, "beta": 2.0}
          for total, ell, two_s in ((7, 2, 1), (9, 3, 1), (10, 2, 1), (7, 2, 2))
          for _ in range(2)]),
        # n runs 0..ell (2S = 2 is left out: its ell = 9 sectors take seconds)
        (["laplacian", "--ell", "9", "--two-s", "1"], _laplacian_params(9)),
        # a repeated override value repeats its cells
        (["vnorm", "--ell", "4,4"],
         [{"ell": 4, "n": n, "two_s": two_s, "samples": 100}
          for _ in range(2) for n in (2, 3) for two_s in (1, 2)]),
    ],
)
def test_verify_override_cells_run_in_a_pinned_order(tmp_path, argv, params):
    ledger = tmp_path / "certs.jsonl"
    assert main(["verify", "--check", *argv, "--out", str(ledger)]) == 0
    assert [json.loads(line)["params"] for line in read_lines(ledger).splitlines()] == params


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--check", "su2", "--ell", "99", "--n", "7", "--beta", "3"], "--ell"),
        (["--check", "localization", "--ell", "99", "--two-s", "3"], "--ell"),
        (["--check", "casimir", "--n", "5"], "--n"),
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


def test_config_line_naming_another_config_file_is_refused(tmp_path, capsys):
    # read as --config=..., it would replace the file being read and never be opened
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=3\nconfig=missing.cfg\n")
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["free-energy", "--config", str(cfg), "--beta", "1", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert f"{cfg}:2:" in capsys.readouterr().err


# Each command runs in a fresh interpreter: the in-process tests above
# have already loaded every layer.
def _run_fresh(cwd, script, argv):
    """stdout of `script` run with `argv` in a fresh interpreter."""
    src = str(Path(magnonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout


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
    assert json.loads(_run_fresh(tmp_path, LOADED_SCIPY, argv)) == []


LOADED_LINALG = """
import json, shlex, sys
from magnonlab.cli import main
for command in sys.argv[1:]:
    assert main(shlex.split(command)) == 0, command
    print("loaded:", json.dumps(sorted(
        name for name in sys.modules if name.split(".")[:2] in (["scipy", "linalg"], ["scipy", "special"])
    )))
"""

EXACT_DIAGONALIZATION_COMMANDS = [
    "free-energy --two-s 1 --length 12 --beta logspace:1:32:9 --scaled --out curves.csv",
    "free-energy --extent 3 --beta 1,2,4 --out grid.csv",
    "verify --check php-leq-t --grid default --out certs.jsonl",
    "verify --check casimir --ell 4 --two-s 1",
    "budget --ell 4,6 --beta 4,8 --e0-source exact-ed --out budget-ed.csv",
    *(f"verify --check {name}" for name in certificates.CHECK_NAMES),
]


def test_exact_diagonalization_loads_neither_scipy_linalg_nor_special(tmp_path):
    # the dense solves go through magnonlab.lapack, which loads scipy's
    # LAPACK extension alone, and the free energy's logsumexp is numpy's;
    # sys.modules only grows, so one interpreter serves every command
    out = _run_fresh(tmp_path, LOADED_LINALG, EXACT_DIAGONALIZATION_COMMANDS)
    loaded = [json.loads(line[len("loaded:"):]) for line in out.splitlines() if line.startswith("loaded:")]
    assert len(loaded) == len(EXACT_DIAGONALIZATION_COMMANDS)
    assert set(loaded[-1]) <= {"scipy.linalg._flapack"}


LOADED_MAGNONLAB = """
import json, sys
import magnonlab.magnongas
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "magnonlab")))
"""


def test_the_closed_forms_import_no_other_magnonlab_module(tmp_path):
    # exact diagonalization uses the closed forms, never the reverse
    loaded = json.loads(_run_fresh(tmp_path, LOADED_MAGNONLAB, []))
    assert loaded == ["magnonlab", "magnonlab.magnongas"]


LOADED_SPARSE = """
import sys
if sys.argv[1:]:
    from magnonlab.cli import main
    code = main(sys.argv[1:])
    assert code == 0, code
else:
    import magnonlab.checks  # every solver module, and no command run
print("scipy.sparse" in sys.modules, "scipy.sparse.linalg" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--length", "3", "--beta", "1", "--out", "fe.csv"],
        ["verify", "--check", "casimir", "--ell", "4", "--two-s", "1"],
        ["free-energy", "--two-s", "1", "--length", "12", "--beta", "logspace:1:32:9",
         "--scaled", "--out", "curves.csv"],
        ["free-energy", "--extent", "3", "--beta", "1,2,4", "--out", "grid.csv"],
        ["verify", "--check", "php-leq-t", "--grid", "default", "--out", "certs.jsonl"],
        [],
    ],
)
def test_exact_diagonalization_commands_leave_sparse_linalg_unloaded(tmp_path, argv):
    # neither scipy.sparse nor its linalg: only HermitianOperator.to_csr
    # imports scipy.sparse, and no command calls it
    assert _run_fresh(tmp_path, LOADED_SPARSE, argv).splitlines()[-1] == "False False"


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(magnonlab.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "magnonlab"):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_no_module_caches_results_across_calls():
    # reuse of spectra is scoped to one call; a memoizing decorator would
    # carry results from one call into the next.  The one cached function
    # is the lookup of numpy's OpenBLAS: it takes no arguments and returns
    # a handle on a library of the process, the same for every caller.
    package = Path(magnonlab.__file__).parent
    caching = {"cache", "lru_cache", "cached_property"}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        lookup = [decorator for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_find_numpy_openblas"
                  and ast.unparse(node.args) == "" for decorator in node.decorator_list]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}: {a.name}" for a in node.names if a.name in caching]
            elif (isinstance(node, ast.Attribute) and node.attr in caching
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"
                  and node not in lookup):
                found.append(f"{path.name}: functools.{node.attr}")
    assert found == []


def test_every_relative_approx_names_its_absolute_slack():
    # approx(x, rel=r) also passes anything within its default absolute
    # slack of 1e-12, which exceeds r|x| once |x| < 1e-12 / r; with abs=
    # given, the call checks the tolerance it names
    loose = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "approx":
                named = {keyword.arg for keyword in node.keywords}
                if "rel" in named and "abs" not in named:
                    loose.append(f"{path.name}:{node.lineno}")
    assert loose == []
