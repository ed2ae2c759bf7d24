import json
import os
from importlib import resources

import jsonschema
import pytest

import isingcorr as ic
from isingcorr import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header, [ln.split(",") for ln in rows]


def test_table_row_count_and_schema(capsys):
    code, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                       "--N", "1..6", "--orders", "3", "--routes", "det,exp,ff")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "N,route,value,est_error,M,n_max"
    assert len(rows) == 18
    assert [r[1] for r in rows[:3]] == ["det", "exp", "ff"]


def test_table_direct_above(capsys):
    code, out, _ = run(capsys, "table", "--direct", "0.2", "3.0",
                       "--N", "1..4", "--routes", "det,ff")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 8
    # routes agree to the requested tolerance class
    for N in range(1, 5):
        det = float(next(r[2] for r in rows if r[0] == str(N) and r[1] == "det"))
        ff = float(next(r[2] for r in rows if r[0] == str(N) and r[1] == "ff"))
        assert abs(det - ff) < 1e-6


def test_table_adds_determinant_route(capsys):
    code, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                       "--N", "2", "--routes", "exp")
    assert code == 0
    _, rows = csv_rows(out)
    assert sorted(r[1] for r in rows) == ["det", "exp"]


def test_table_critical_point_exit_code(capsys):
    code, _, err = run(capsys, "table", "--diagonal", "--alpha2", "1.0", "--N", "1..2")
    assert code == 2
    assert "CriticalPoint" in err


def test_table_requires_one_param_style(capsys):
    code, _, err = run(capsys, "table", "--N", "1..2")
    assert code == 2
    code, _, err = run(capsys, "table", "--diagonal", "--K1", "0.3", "--N", "1")
    assert code == 2


def test_table_floats_have_17_significant_digits(capsys):
    _, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                    "--N", "1", "--routes", "det")
    _, rows = csv_rows(out)
    mantissa = rows[0][2].replace(".", "").replace("-", "").lstrip("0")
    assert len(mantissa) >= 16


def test_table_determinism_apart_from_timestamp(capsys):
    args = ("table", "--diagonal", "--alpha2", "0.5", "--N", "1..3",
            "--routes", "det,exp")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("# timestamp=")]
    assert strip(out1) == strip(out2)
    assert out1.splitlines()[1].startswith("# timestamp=")


def test_table_json_validates_against_shipped_schema(capsys):
    code, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                       "--N", "1..2", "--routes", "det,ff", "--format", "json")
    assert code == 0
    report = json.loads(out)
    schema = json.loads(resources.files("isingcorr").joinpath("data/report_schema.json")
                        .read_text())
    jsonschema.validate(report, schema)
    assert report["header"]["tool"] == "corr"
    assert all(row["est_error"] is None or row["est_error"] >= 0.0
               for row in report["rows"])


def test_table_rows_sorted(capsys):
    _, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                    "--N", "3,1,2", "--routes", "ff,det")
    _, rows = csv_rows(out)
    keys = [(int(r[0]), r[1]) for r in rows]
    assert keys == sorted(keys)


def test_table_refinement_cap_exit_three(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5", "--N", "1",
                     "--routes", "det", "--tol", "0", "--M", "8", "--M-max", "16",
                     "--out", str(out_file))
    assert code == 3
    assert out_file.exists()
    assert "det" in out_file.read_text()


def test_verify_cauchy(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cauchy", "--trials", "100",
                       "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 100
    assert all(rec["residual"] < 1e-12 for rec in report["records"])


def test_verify_lemma2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma2")
    assert code == 0
    report = json.loads(out)
    assert all(rec["residual"] < 1e-9 for rec in report["records"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [
        {"name": "x", "params": "", "residual": 1.0, "tolerance": 0.5, "pass": False}])
    code, out, _ = run(capsys, "verify", "--suite", "cauchy")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_sweep_M_doubling(capsys):
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--M-list", "16,32,64,128", "--routes", "exp")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 4
    diffs = [float(r[3]) for r in rows[1:]]
    assert diffs[1] < diffs[0] / 10 and diffs[2] < diffs[1] / 10


def test_sweep_order_list(capsys):
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--order-list", "1,2,3", "--routes", "ff")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 3
    assert [r[5] for r in rows] == ["1", "2", "3"]
    assert float(rows[2][3]) <= float(rows[1][3])


def test_sweep_M_list_header_names_the_grids_swept(capsys):
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--M-list", "16,32", "--routes", "exp")
    assert code == 0
    assert "grid=M=16,32,r=auto n_max=3" in out.splitlines()[0]
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--M-list", "16,32", "--orders", "2", "--format", "json")
    header = json.loads(out)["header"]
    assert (header["grid"], header["n_max"]) == ("M=16,32,r=auto", 2)


def test_sweep_order_list_header_names_the_largest_order(capsys):
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--order-list", "1,2", "--routes", "ff")
    assert code == 0
    assert "grid=M=64,r=auto n_max=2" in out.splitlines()[0]
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--order-list", "2,0", "--M", "32", "--format", "json")
    header = json.loads(out)["header"]
    assert (header["grid"], header["n_max"]) == ("M=32,r=auto", 2)


def test_sweep_empty_list(capsys):
    code, _, err = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                       "--M-list", "", "--routes", "exp")
    assert code == 2


def test_sweep_requires_exactly_one_list(capsys):
    code, _, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                     "--routes", "exp")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "3",
                     "--M-list", "16,32", "--order-list", "1,2", "--routes", "exp")
    assert code == 2


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diagonal = true\nalpha2 = 0.5\nN = 1..2\nroutes = det\n")
    code, out, _ = run(capsys, "--config", str(cfg), "table")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 2


def test_config_flags_override_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diagonal = true\nalpha2 = 0.5\nN = 1..2\nroutes = det\n")
    code, out, _ = run(capsys, "--config", str(cfg), "table", "--N", "1..4")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 4


def test_config_key_of_another_subcommand_is_ignored(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diagonal = true\nalpha2 = 0.5\nN = 1..2\nroutes = det\ntrials = 5\n")
    seen = {}
    table = cli.cmd_table

    def spy(ns):
        seen.update(vars(ns))
        return table(ns)

    monkeypatch.setattr(cli, "cmd_table", spy)
    code, out, _ = run(capsys, "--config", str(cfg), "table")
    assert code == 0
    assert "trials" not in seen and seen["alpha2"] == 0.5
    _, rows = csv_rows(out)
    assert len(rows) == 2


def test_bad_route_and_bad_N(capsys):
    code, _, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                     "--N", "1..2", "--routes", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                     "--N", "0..2", "--routes", "det")
    assert code == 2
    code, _, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5",
                     "--N", "63..70", "--routes", "det")
    assert code == 2


@pytest.mark.parametrize("argv, config", [
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "2", "--M", "100"], ""),
    (["verify", "--suite", "fredholm", "--M", "100"], ""),
    (["sweep", "--diagonal", "--alpha2", "0.5", "--N", "2", "--M-list", "16,100"], ""),
    (["--config", "{cfg}", "table", "--diagonal", "--alpha2", "0.5", "--N", "2"], "orders = 7\n"),
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "1..x"], ""),
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "3", "--M-max", "100",
      "--tol", "1e-13", "--routes", "det"], ""),
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "3", "--M", "128", "--M-max", "64",
      "--tol", "1e-13", "--routes", "det"], ""),
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "3", "--tol", "-1", "--routes", "det"], ""),
    (["table", "--diagonal", "--alpha2", "0.5", "--N", "3", "--tol", "nan", "--routes", "det"], ""),
    (["verify", "--suite", "cauchy", "--trials", "0"], ""),
    (["verify", "--suite", "cauchy", "--seed", "-1"], ""),
    (["--config", "{cfg}", "table", "--diagonal", "--alpha2", "0.5", "--N", "2"], "format = xml\n"),
    (["--config", "{cfg}", "table", "--N", "2"], "direct = 0.2\n"),
    (["--config", "{cfg}", "table", "--N", "2"], "diagonal = maybe\nalpha2 = 0.5\n"),
    (["--config", "{cfg}", "verify", "--suite", "cauchy"], "seed = x\n"),
], ids=["table-M", "verify-M", "sweep-M-list", "config-orders", "N-spec",
        "M-max-not-power-of-two", "M-max-below-M", "tol-negative", "tol-nan", "trials-zero",
        "seed-negative", "config-format", "config-direct-arity", "config-boolean",
        "config-type"])
def test_bad_grid_or_order_exits_two(capsys, tmp_path, monkeypatch, argv, config):
    """Bad flags and config values are usage errors found before any work:
    one stderr line, exit 2.  Config values get the checks of their flags."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(cli, "correlation", forbidden)
    monkeypatch.setattr(cli, "run_suite", forbidden)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, _, err = run(capsys, *[a.format(cfg=cfg) for a in argv])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("corr: ")
    assert "Traceback" not in err


def test_missing_config_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "--config", str(tmp_path / "absent.cfg"), "table",
                         "--diagonal", "--alpha2", "0.5", "--N", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("corr: cannot read config ")


def test_unwritable_out_path_exits_two(capsys, tmp_path, monkeypatch):
    """An --out that cannot be written is exit 2 before any work, and no file
    is made; exit 1 stays the code of a failed identity."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "run_suite", forbidden)
    monkeypatch.setattr(cli, "correlation", forbidden)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    paths = [tmp_path / "no_such_dir" / "report.json", tmp_path, a_file / "report.json"]
    if not os.access(locked, os.W_OK):        # root writes anywhere
        paths.append(locked / "report.json")
    for out_path in paths:
        for argv in (["table", "--diagonal", "--alpha2", "0.5", "--N", "2", "--routes", "det"],
                     ["verify", "--suite", "szego"],
                     ["sweep", "--diagonal", "--alpha2", "0.5", "--M-list", "16,32"]):
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith(f"corr: cannot write {out_path}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "locked"]
    assert not any(locked.iterdir())


def test_config_values_take_their_flags_types(capsys, tmp_path, monkeypatch):
    """A config file sets the same values the flags would: typed, arity and all."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("direct = 0.2 3.0\nN = 1..2\nroutes = det\nformat = json\n"
                   "orders = 2\nM = 128\n")
    seen = {}
    table = cli.cmd_table

    def spy(ns):
        seen.update(vars(ns))
        return table(ns)

    monkeypatch.setattr(cli, "cmd_table", spy)
    code, out, _ = run(capsys, "--config", str(cfg), "table")
    assert code == 0
    assert seen["direct"] == [0.2, 3.0] and seen["orders"] == 2 and seen["M"] == 128
    assert [row["N"] for row in json.loads(out)["rows"]] == [1, 2]


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "correlation", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["table", "--diagonal", "--alpha2", "0.5", "--N", "2"])


def test_table_refinement_from_default_grid(capsys):
    """--tol refines up from the default M=64 at N=40 and settles next to ff."""
    code, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5", "--N", "40",
                       "--routes", "det,ff", "--tol", "1e-10")
    assert code == 0
    _, rows = csv_rows(out)
    det, ff = (float(r[2]) for r in rows)
    assert abs(det - ff) < 1e-12


def test_table_json_method_labels(capsys):
    for argv, labels in ((["--diagonal", "--alpha2", "0.5"], {"section"}),
                         (["--direct", "0.2", "3.0"], {"combination"})):
        code, out, _ = run(capsys, "table", *argv, "--N", "3", "--routes", "ff",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        ff_terms = [t for row in rows if row["route"] == "ff" for t in row["terms"]]
        assert {t["method"] for t in ff_terms} == labels


@pytest.mark.parametrize("mode", [["--M-list", "16,32,64"], ["--order-list", "0,1,3"]])
def test_sweep_rows_match_correlation(capsys, mode):
    code, out, _ = run(capsys, "sweep", "--diagonal", "--alpha2", "0.5", "--N", "2,3",
                       "--routes", "exp,ff", "--format", "json", *mode)
    assert code == 0
    rows = json.loads(out)["rows"]
    params = ic.diagonal_from_alpha2(0.5)
    if mode[0] == "--M-list":
        settings = [(M, 3) for M in (16, 32, 64)]
    else:
        settings = [(64, n_max) for n_max in (0, 1, 3)]
    expected = []
    for N in (2, 3):
        for route in ("exp", "ff"):
            prev = None
            for M, n_max in settings:
                value = ic.correlation(params, N, route, n_max, ic.make_grid(params, M)).value
                diff = None if prev is None else abs(value - prev)
                expected.append({"N": N, "route": route, "value": value,
                                 "est_error": diff, "M": M, "n_max": n_max})
                prev = value
    assert rows == expected


def test_M_max_is_checked_only_with_tol(capsys):
    """Without --tol there is no refinement, so --M may exceed the default cap."""
    code, out, _ = run(capsys, "table", "--diagonal", "--alpha2", "0.5", "--N", "2",
                       "--routes", "det", "--M", "2048")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][4] == "2048"
