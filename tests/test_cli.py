import argparse
import csv
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rzlab import cli, verify
from rzlab.counterexamples import SCANS
from rzlab.grid import Field, GridSpec, read_field, write_field


def run_cli(*argv):
    return cli.main(list(argv))


def test_check_interp_writes_reports(tmp_path):
    out = tmp_path / "rep"
    rc = run_cli(
        "check", "INTERP", "--d", "1", "--n", "16", "--p", "2",
        "--trials", "10", "--out", str(out),
    )
    assert rc == 0
    rows = list(csv.DictReader(open(out / "reports.csv")))
    assert len(rows) == 1
    assert rows[0]["check_id"] == "INTERP"
    assert rows[0]["verdict"] == "pass"
    assert float(rows[0]["bound"]) in (1.0, 2.0)
    assert list(rows[0].keys()) == list(cli.CSV_COLUMNS)
    reports = json.loads((out / "reports.json").read_text())
    assert reports[0]["check_id"] == "INTERP"


def test_check_csv_deterministic_modulo_runtime(tmp_path):
    def one(where):
        run_cli(
            "check", "GREEN_MASS", "--d", "1", "--n", "16",
            "--trials", "8", "--out", str(where),
        )
        rows = list(csv.DictReader(open(where / "reports.csv")))
        for r in rows:
            r.pop("runtime_s")
        return rows

    assert one(tmp_path / "a") == one(tmp_path / "b")


def test_scan_ce2_emits_tidy_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = run_cli("scan", "CE2", "--p", "4", "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["scan", "delta", "value"]
    assert len(rows) > 3
    assert rows[1][0] == "ce2"


def test_scan_ce3():
    assert run_cli("scan", "CE3") == 0


@pytest.mark.parametrize("which, header", [
    ("CE1", ["scan", "delta", "value"]),
    ("CE3", ["scan", "rho", "value"]),
])
def test_scan_csv_header_names_the_scans_abscissa(which, header, tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", which, "--out", str(out)) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == header and rows[1][0] == which.lower()


def test_scan_choices_are_the_scan_table():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in subs.choices["scan"]._actions if a.dest == "which")
    assert list(which.choices) == sorted(SCANS)


@pytest.mark.parametrize("which, deltas", [
    ("CE1", "0.1,0.2"),  # not decreasing
    ("CE1", "0.1,abc"),  # not a number
    ("CE2", "0.5,1e-9"),  # below 4h
    ("CE2", "4,2,0.1"),  # outside the profile's support [-1, 1)
    ("CE3", "10,100"),  # inside the inner radius 100
    ("CE3", "0.5,2,3"),
    ("CE3", "1e3,1e6,inf"),
    ("CE3", "1000"),  # too few points to judge a fit
    ("CE1", "0.1"),
    ("CE2", "0.5,0.25"),  # two points fit any line with r2 = 1
])
def test_scan_bad_deltas_exit_2_with_one_line(which, deltas, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli("scan", which, "--deltas", deltas)
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("CE2", "--p", "nan"),  # ce2_scan never reads the mass at p, so it must reject it
    ("CE2", "--p", "2"),  # ce2 needs p > 2
    ("CE2", "--p", "inf"),
    ("CE1", "--eps", "nan"),
    ("CE1", "--p", "0.5"),  # p < 1
    ("CE1", "--p", "inf"),
    ("CE2", "--eps", "0.25"),  # a flag the scan does not read
    ("CE3", "--p", "4"),
])
def test_scan_bad_params_exit_2_with_one_line(argv, capsys):
    rc = run_cli("scan", *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert captured.out == ""


def test_check_theorem_at_n4_drops_degenerate_fields(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("check", "THEOREM", "--n", "4", "--out", str(out)) == 0
    report = json.loads((out / "reports.json").read_text())[0]
    # d = 3, n = 4: one structured indicator is empty and is left out
    assert report["config"]["trials_by_d"] == {"1": 72, "2": 72, "3": 71}


def test_csv_p_column_lists_the_exponents_a_check_ran(tmp_path):
    # VHALF runs fixed exponents whatever --p says, COMPOSITION takes none,
    # and THEOREM runs the p list it is given
    rows = {}
    for cid, p_list in (("VHALF", "3"), ("COMPOSITION", "3"), ("THEOREM", "1.5,2")):
        out = tmp_path / cid
        assert run_cli("check", cid, "--p", p_list, "--n", "4", "--out", str(out)) == 0
        rows[cid] = next(csv.DictReader(open(out / "reports.csv")))
    assert rows["VHALF"]["p"] == "1.25;1.5;2"
    assert rows["COMPOSITION"]["p"] == ""
    assert rows["THEOREM"]["p"] == "1.5;2"


def test_csv_row_states_the_grid_and_potential_a_check_ran(tmp_path):
    # THEOREM and VHALF run d = 1, 2, 3 on cfg's n and R; CE1-CE3 run their
    # own sections, which their notes record, and no cfg potential; the
    # oracles run their own grids and catalogs, whatever cfg's n
    rows = {}
    for argv in (("check", "THEOREM"), ("check", "VHALF"), ("verify", "--suite", "counterexamples"),
                 ("verify", "--suite", "oracles")):
        out = tmp_path / argv[-1]
        assert run_cli(*argv, "--n", "4", "--out", str(out)) == 0
        rows.update((row["check_id"], row) for row in csv.DictReader(open(out / "reports.csv")))
    for cid in ("THEOREM", "VHALF"):
        assert [rows[cid][k] for k in ("d", "n", "R", "potential")] == ["1;2;3", "4", "4", "harmonic"]
    for cid in ("CE1", "CE2", "CE3"):
        assert [rows[cid][k] for k in ("d", "n", "R", "potential")] == ["", "", "", ""]
        assert rows[cid]["verdict"] == "pass"
    assert [rows["FK_ORACLE"][k] for k in ("d", "n", "R", "potential")] == [
        "1", "64", "4", "zero;const(2);harmonic"]
    assert [rows["QUAD_VS_DENSE"][k] for k in ("d", "n", "R", "potential")] == [
        "1;2", "32;16", "4", "zero;const(2);harmonic;ce2(4);ce3;ce1(0.25)"]


def test_kernel_fk_runs(capsys):
    rc = run_cli(
        "kernel", "--fk", "--potential", "const:2", "--x", "0", "--y", "0.25",
        "--t", "0.3", "--paths", "500", "--seed", "5",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel_estimate=" in out
    assert "stderr=" in out


@pytest.mark.parametrize("argv", [
    ("--potential", "nope"),
    ("--paths", "0"),
    ("--t", "-1"),
    ("--x", "0,0", "--y", "0"),  # endpoints of different dimensions
    ("--x", "abc"),
    ("--slices", "0"),
    ("--x", "nan"),
    ("--t", "inf"),
    ("--potential", "ce1", "--x", "0", "--y", "0"),  # ce1 reads two coordinates
])
def test_kernel_bad_input_exit_2_with_one_line(argv, capsys):
    rc = run_cli("kernel", "--fk", *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert captured.out == ""


@pytest.mark.parametrize("field_d, argv, names", [
    (None, (), "No such file"),
    (1, ("--x", "0,0", "--y", "0,0"), "d = 1 field, the endpoints have d = 2"),
    (2, (), "d = 2 field, the endpoints have d = 1"),
], ids=["missing-file", "d1-field-2d-endpoints", "d2-field-1d-endpoints"])
def test_kernel_custom_field_exits_2_with_one_line(field_d, argv, names, tmp_path, capsys):
    path = tmp_path / "V.rzf"
    if field_d is not None:
        g = GridSpec(field_d, 16, 4.0)
        write_field(Field(g, np.ones(g.shape)), path)
    rc = run_cli("kernel", "--fk", "--potential", f"custom:{path}", "--paths", "100", *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert names in captured.err and captured.out == ""


def test_check_bad_out_exits_2_before_any_check_runs(tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")

    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_check", no_check)
    rc = run_cli("check", "CE3", "--out", str(tmp_path / "file" / "sub"))
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert "Not a directory" in captured.err and captured.out == ""


@pytest.mark.parametrize("action, content, flags", [
    ("load", "x1,value\n" + "0,1.0\n" * 15 + "0,abc\n", ("--d", "1", "--n", "16", "--R", "4")),
    ("load", "# RZF1 d=1 n=5 R=4.0\nx1,value\n" + "0,1.0\n" * 5, ()),
    ("dump", "x1,value\n0,1.0\n", ()),  # not an RZF1 file
    ("load", "# RZF1 d=1 n=16\nx1,value\n" + "0,1.0\n" * 16, ()),
    ("load", None, ()),
    ("load", "x1,value\n" + "0,1.0\n" * 15, ("--d", "1", "--n", "16", "--R", "4")),
    ("load", "x1,value\n" + "0,1.0\n" * 16, ()),
], ids=["non-numeric", "odd-n-header", "not-rzf1", "header-lacks-R", "load-missing-file",
        "wrong-value-count", "no-header-no-grid"])
def test_field_bad_input_exit_2_with_one_line(action, content, flags, tmp_path, capsys):
    src = tmp_path / "in.dat"
    if content is not None:
        src.write_text(content)
    rc = run_cli("field", action, str(src), "--out", str(tmp_path / "out"), *flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("rzlab: error: ")
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_field_dump_and_load_roundtrip(tmp_path):
    g = GridSpec(2, 4, 1.5)
    rng = np.random.default_rng(0)
    f = Field(g, rng.standard_normal(g.shape))
    src = tmp_path / "field.rzf"
    write_field(f, src)
    rc = run_cli("field", "dump", str(src), "--out", str(tmp_path / "field.csv"))
    assert rc == 0
    rc = run_cli(
        "field", "load", str(tmp_path / "field.csv"), "--out", str(tmp_path / "back.rzf")
    )
    assert rc == 0
    back = read_field(tmp_path / "back.rzf")
    assert back.spec == g
    np.testing.assert_array_equal(back.values, f.values)


def test_field_dump_missing_file(tmp_path, capsys):
    rc = run_cli("field", "dump", str(tmp_path / "missing.rzf"))
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("rzlab: error: ")
    assert "missing.rzf" in err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--wat")
    assert exc.value.code != 0


def test_unknown_check_id_rejected():
    with pytest.raises(SystemExit):
        run_cli("check", "NOT_A_CHECK")


def test_kernel_without_fk_flag(capsys):
    rc = run_cli("kernel")
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("rzlab: error: ") and "--fk" in err


def test_custom_potential_through_check(tmp_path):
    g = GridSpec(1, 16, 4.0)
    rng = np.random.default_rng(3)
    write_field(Field(g, rng.uniform(0.5, 2.0, g.shape)), tmp_path / "V.rzf")
    out = tmp_path / "rep"
    rc = run_cli(
        "check", "COMPOSITION", "--d", "1", "--n", "16",
        "--potential", f"custom:{tmp_path / 'V.rzf'}", "--out", str(out),
    )
    assert rc == 0


def test_custom_potential_on_another_grid_exits_2_with_one_line(tmp_path, capsys):
    g = GridSpec(1, 16, 4.0)
    write_field(Field(g, np.ones(g.shape)), tmp_path / "V.rzf")
    rc = run_cli(
        "check", "COMPOSITION", "--d", "2", "--n", "16",
        "--potential", f"custom:{tmp_path / 'V.rzf'}", "--out", str(tmp_path / "rep"),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rzlab: error: ") and err.count("\n") == 1
    assert "GridSpec(d=1, n=16, R=4.0)" in err and "GridSpec(d=2, n=16, R=4.0)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("THEOREM", "--potential", "ce1:0.25"),
        ("VHALF", "--potential", "ce1:0.25"),
        ("COMPOSITION", "--d", "1", "--potential", "ce1:0.25"),
    ],
    ids=["theorem", "vhalf", "composition-d1"],
)
def test_ce1_at_d1_exits_2_with_one_line(tmp_path, capsys, argv):
    rc = run_cli("check", *argv, "--out", str(tmp_path / "rep"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rzlab: error: ") and err.count("\n") == 1
    assert "ce1 needs d >= 2" in err and "GridSpec(d=1," in err


@pytest.mark.parametrize("check", ["THEOREM", "QUAD_VS_DENSE"])
def test_unreachable_quad_tol_exits_2_with_one_line(tmp_path, capsys, check):
    out = tmp_path / "rep"
    rc = run_cli("check", check, "--quad-tol", "1e-30", "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rzlab: error: ") and err.count("\n") == 1
    assert "1e-30" in err and "Traceback" not in err
    assert not out.exists()


def test_v_under_the_zero_mode_floor_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = run_cli("check", "THEOREM", "--potential", "const:1e-8", "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rzlab: error: ") and err.count("\n") == 1
    assert "zero-mode floor" in err and "Traceback" not in err
    assert not out.exists()


def test_grid_past_the_dense_cap_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = run_cli("check", "COMPOSITION", "--d", "3", "--n", "24", "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rzlab: error: ") and err.count("\n") == 1
    assert "13824 points exceed dense cap" in err and "Traceback" not in err
    assert not out.exists()


def test_verify_with_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 1, "n": 16, "trials": 8, "seed": 5}))
    out = tmp_path / "rep"
    rc = run_cli("check", "L2_CONTRACT", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    reports = json.loads((out / "reports.json").read_text())
    assert reports[0]["config"]["seed"] == 5
    assert reports[0]["config"]["trials"] == 8


def _config_flags(command):
    """Option string -> dest for one subcommand."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {s: a.dest for a in subs.choices[command]._actions for s in a.option_strings}


@pytest.mark.parametrize("command", ["check", "verify"])
def test_every_runconfig_field_is_a_flag(command):
    flags = _config_flags(command)
    renamed = {"p_list": "--p", "out_dir": "--out"}
    for f in fields(verify.RunConfig):
        flag = renamed.get(f.name, "--" + f.name.replace("_", "-"))
        assert flags.get(flag) == f.name, flag
    assert "--jobs" not in flags


def test_new_flags_land_in_report_config(tmp_path):
    out = tmp_path / "rep"
    rc = run_cli(
        "check", "COMPOSITION", "--d", "1", "--n", "16", "--strang-tau", "0.02",
        "--fk-paths", "7", "--theorem-trials", "9", "--fk-slices", "5", "--out", str(out),
    )
    assert rc == 0
    config = json.loads((out / "reports.json").read_text())[0]["config"]
    assert (config["strang_tau"], config["fk_paths"]) == (0.02, 7)
    assert (config["theorem_trials"], config["fk_slices"]) == (9, 5)
    assert "jobs" not in config


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 1, "n": 32, "p_list": [3.0], "seed": 5}))
    args = cli.build_parser().parse_args(
        ["check", "INTERP", "--config", str(cfg_path), "--n", "16", "--p", "1.5,2"]
    )
    cfg = cli._load_config(args)
    assert (cfg.d, cfg.n, cfg.p_list, cfg.seed) == (1, 16, (1.5, 2.0), 5)


@pytest.mark.parametrize("flags, config", [
    (["--n", "5"], None),
    (["--trials", "0"], None),
    (["--potential", "foo"], None),
    ([], {"n": "16"}),
    ([], {"jobs": 2}),
    ([], "missing"),
    (["--potential", "const:nan"], None),
    (["--potential", "const:inf"], None),
    (["--potential", "ce2:inf"], None),
    (["--potential", "zero:5"], None),
    (["--potential", "harmonic:2"], None),
    (["--potential", "ce3:2"], None),
    (["--p", "inf"], None),
])
def test_bad_settings_exit_2_with_one_line(flags, config, tmp_path, capsys):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        if config != "missing":
            cfg_path.write_text(json.dumps(config))
        flags = [*flags, "--config", str(cfg_path)]
    out = tmp_path / "rep"
    rc = run_cli("check", "INTERP", "--d", "1", *flags, "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("rzlab: error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_catalog_check_csv_names_the_potentials_it_ran(tmp_path):
    out = tmp_path / "rep"
    rc = run_cli("check", "L2_CONTRACT", "--d", "1", "--n", "16", "--trials", "4",
                 "--potential", "ce3", "--out", str(out))
    assert rc == 0
    row = next(csv.DictReader(open(out / "reports.csv")))
    config = json.loads((out / "reports.json").read_text())[0]["config"]
    assert config["potential"] == "ce3"  # JSON keeps cfg.potential next to the catalog
    assert row["potential"] == ";".join(config["catalog"])
    assert row["potential"].split(";")[:3] == ["zero", "const(2)", "harmonic"]
