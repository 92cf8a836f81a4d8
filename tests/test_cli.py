import json

import pytest

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
    rc = main(["free-energy", "--two-s", "3", "--length", "14", "--beta", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "reduce --length" in capsys.readouterr().err


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


def test_budget_rows_and_error_marker(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["budget", "--ell", "34,3", "--beta", "20000", "--out", str(out)]) == 0
    lines = read_lines(out).splitlines()
    assert lines[1].startswith("ell,beta,two_s,e0_source,e0,n0,delta,ell0")
    good = lines[2].split(",")
    assert good[0] == "34" and good[10] == ""
    bad = lines[3]
    assert "needs ell >= l0/2" in bad


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


def test_worker_pool_ledger_is_order_independent(tmp_path, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("MAGNONLAB_WORKERS", "4")
    main(["verify", "--check", "php-leq-t", "--grid", "quick", "--out", str(a)])
    monkeypatch.delenv("MAGNONLAB_WORKERS")
    main(["verify", "--check", "php-leq-t", "--grid", "quick", "--out", str(b)])
    assert read_lines(a) == read_lines(b)


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
