"""Tests for the experiment driver CLI: exit codes, report files and
byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockindex
from fockindex.cli import main

SMALL_GRID = {"grid": {"m": 2, "S": 30}}
GOLDEN = Path(__file__).parent / "data" / "golden"


def child_env():
    """The environment for a child interpreter that must import this
    checkout's package, installed or not."""
    source = str(Path(fockindex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def run(tmp_path, command, config=None, name="config.json", outdir="out"):
    out = tmp_path / outdir
    argv = [command, "--out", str(out)]
    if config is not None:
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return main(argv), out


def test_membership_example(tmp_path, capsys):
    status, out = run(tmp_path, "membership", {"zeta": {"kind": "constant", "value": 2.0}})
    assert status == 0
    report = json.loads((out / "membership_report.json").read_text())
    assert report["in_E"] is False
    assert report["zeta_limit"] == 2.0
    assert report["witness_kind"] == "rejected"
    assert report["schema_version"] == "1"


def test_membership_member_with_complex_limit_field(tmp_path):
    status, out = run(tmp_path, "membership", {"zeta": {"kind": "constant", "value": [1.0, 0.5]}})
    assert status == 0
    report = json.loads((out / "membership_report.json").read_text())
    assert report["in_E"] is False
    assert report["zeta_limit"] == {"re": 1.0, "im": 0.5}


def test_approx_columns_nonincreasing(tmp_path):
    config = {**SMALL_GRID, "zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}, "ns": [2, 4, 6, 8, 10]}
    status, out = run(tmp_path, "approx", config)
    assert status == 0
    lines = (out / "approx_table.csv").read_text().splitlines()
    assert lines[0] == "n,sup_dist,index_dist,kernel_dist,semigroup_dist,probe_kernel_dist"
    table = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    for col in range(1, 6):
        values = [row[col] for row in table]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    report = json.loads((out / "approx_report.json").read_text())
    assert report["passed"] is True


def test_deterministic_outputs(tmp_path):
    config = {**SMALL_GRID, "ns": [2, 4, 6]}
    _, first = run(tmp_path, "approx", config, outdir="out1")
    _, second = run(tmp_path, "approx", config, outdir="out2")
    for name in ("approx_table.csv", "approx_report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    _, first = run(tmp_path, "unitalg", SMALL_GRID, outdir="out3")
    _, second = run(tmp_path, "unitalg", SMALL_GRID, outdir="out4")
    assert (first / "unitalg_cases.csv").read_bytes() == (second / "unitalg_cases.csv").read_bytes()


def test_unknown_preset_rejected_at_parse_time(tmp_path, capsys):
    status, _ = run(tmp_path, "membership", {"zeta": {"kind": "mystery"}})
    assert status == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_tolerance_rejected(tmp_path):
    status, _ = run(tmp_path, "gram", {"tolerances": {"psd": 1e-10, "wrong": 1.0}})
    assert status == 2


@pytest.mark.parametrize("grid", [{"m": 4.5}, {"m": True}, {"S": 40.5}, {"S": False}, {"m": "4"}, {"S": None}])
def test_bad_grid_values_are_config_errors(tmp_path, capsys, grid):
    status, out = run(tmp_path, "membership", {"grid": grid})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "membership_report.json").exists()


def test_integral_float_grid_values_accepted(tmp_path):
    status, out = run(tmp_path, "semigroup", {"grid": {"m": 2.0, "S": 30.0}})
    assert status == 0
    assert len((out / "semigroup_table.csv").read_text().splitlines()) == 6


@pytest.mark.parametrize(
    "tolerances",
    [
        {"membership": "nan"},
        {"psd": -1},
        {"psd": 0},
        {"psd": "inf"},
        {"exp": "-1e-12"},
        {"psd": True},
        {"psd": [1e-10]},
        {"psd": "tight"},
        {"psd": None},
    ],
)
def test_bad_tolerances_are_config_errors(tmp_path, capsys, tolerances):
    status, out = run(tmp_path, "membership", {"tolerances": tolerances})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "membership_report.json").exists()


TINY_GRID = {"grid": {"m": 2, "S": 10}}


@pytest.mark.parametrize(
    "command, fields",
    [
        ("semigroup", {"t_values": 5}),
        ("semigroup", {"t_values": [-0.5]}),
        ("semigroup", {"t_values": ["x"]}),
        ("semigroup", {"t_values": [0.5, True]}),
        ("semigroup", {"t_values": [float("nan")]}),
        ("gram", {"t_values": 0.5}),
        ("gram", {"t_values": [-1]}),
        ("approx", {"t": -1}),
        ("approx", {"t": [1.0]}),
        ("approx", {"t": "1"}),
        ("selftest", {"seed": 1.5}),
        ("selftest", {"seed": -1}),
        ("unitalg", {"seed": 1.5}),
        ("unitalg", {"seed": "7"}),
        ("unitalg", {"cases": 1.5}),
        ("unitalg", {"cases": "x"}),
        ("unitalg", {"cases": 0}),
        ("witness", {"n": 1.5}),
        ("witness", {"n": 0}),
        ("witness", {"n": 6}),
        ("witness", {"n": True}),
        ("approx", {"ns": [12]}),
        ("approx", {"ns": [2.5]}),
        ("approx", {"ns": 4}),
        ("approx", {"ns": [0]}),
        ("witness", {"delta": "x"}),
        ("witness", {"delta": True}),
        ("witness", {"delta": 5}),
        ("witness", {"delta": 0}),
        ("witness", {"delta": 1.0}),
        ("witness", {"delta": -0.1}),
        ("witness", {"delta": float("nan")}),
        ("witness", {"delta": None}),
        ("witness", {"delta": [0.1]}),
        ("gram", {"b": {"kind": "constant", "value": -1}}),
        ("gram", {"b": {"kind": "exp_decay", "c": -1.0, "a": 1.0, "d": 0.5}}),
        ("approx", {"zeta": {"kind": "constant", "value": 2}}),
        ("approx", {"zeta": {"kind": "exp_decay", "c": 1.0, "a": 1.0}}),
    ],
)
def test_bad_times_and_integers_are_config_errors(tmp_path, capsys, command, fields):
    status, out = run(tmp_path, command, {**TINY_GRID, **fields})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_infinite_time_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"grid": {"m": 2, "S": 10}, "t_values": [1e400]}', encoding="utf-8")
    assert main(["semigroup", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_integral_floats_and_integer_times_accepted(tmp_path):
    status, out = run(tmp_path, "unitalg", {**SMALL_GRID, "seed": 7.0, "cases": 1.0})
    assert status == 0
    assert json.loads((out / "unitalg_report.json").read_text())["seed"] == 7
    status, out = run(tmp_path, "semigroup", {**SMALL_GRID, "t_values": [0, 1, 2]}, outdir="out2")
    assert status == 0
    assert json.loads((out / "semigroup_report.json").read_text())["t_values"] == [0.0, 1.0, 2.0]
    status, out = run(tmp_path, "witness", {**SMALL_GRID, "n": 5.0}, outdir="out3")
    assert status == 0


def test_witness_delta_inside_the_unit_interval_runs(tmp_path):
    status, out = run(tmp_path, "witness", {**SMALL_GRID, "delta": 0.25})
    assert status == 0
    assert json.loads((out / "witness_report.json").read_text())["convexified"]["delta"] == 0.25


def test_csv_cell_that_is_not_a_number_is_a_config_error(tmp_path, capsys):
    lines = ["s,re,im,tail=1.0", "0.0,1.0,0.0", "0.5,x,0.0", "1.0,1.0,0.0"]
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, _ = run(tmp_path, "membership", {"grid": {"m": 2, "S": 1}, "zeta": {"kind": "csv", "path": "zeta.csv"}})
    assert status == 2
    assert "row 3 needs numbers in its first 3 columns" in capsys.readouterr().err


def test_tolerance_given_as_a_string_is_parsed(tmp_path):
    status, out = run(tmp_path, "kernel", {**SMALL_GRID, "tolerances": {"hermitian": "1e-13"}})
    assert status == 0
    assert json.loads((out / "kernel_report.json").read_text())["tolerance"] == 1e-13


@pytest.mark.parametrize(
    "command", ["kernel", "semigroup", "gram", "inner", "index", "approx", "witness", "membership", "selftest", "unitalg"]
)
def test_default_reports_match_golden_bytes(tmp_path, command):
    """Default-config reports, byte for byte against reports captured
    before kernels and multiplication operators were stored as weighted
    shifts (selftest and unitalg: before the Taylor loop of the
    exponential ran in place)."""
    expected = GOLDEN / command
    status, out = run(tmp_path, command)
    assert status == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_unreadable_config_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["membership", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_index_nonmember_is_tolerance_failure(tmp_path):
    config = {**SMALL_GRID, "units": [{"zeta": {"kind": "constant", "value": 2.0}}]}
    status, out = run(tmp_path, "index", config)
    assert status == 1
    report = json.loads((out / "index_report.json").read_text())
    assert report["passed"] is False
    assert report["non_member_units"] == [0]


def test_index_members_pass(tmp_path):
    config = {
        **SMALL_GRID,
        "units": [
            {"zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}},
            {"zeta": {"kind": "exp_approach", "c": [0.0, 0.5], "a": 1.3}, "beta": {"kind": "constant", "value": 0.2}},
        ],
    }
    status, out = run(tmp_path, "index", config)
    assert status == 0
    assert (out / "index_representatives.csv").exists()
    report = json.loads((out / "index_report.json").read_text())
    assert report["max_homomorphism_residual"] <= report["tolerance"]


def test_witness_default(tmp_path):
    status, out = run(tmp_path, "witness", SMALL_GRID)
    assert status == 0
    report = json.loads((out / "witness_report.json").read_text())
    assert report["passed"] is True
    assert report["conjugation"]["passed"] is True
    assert 0 < report["convexified"]["alpha"] < 1
    assert (out / "witness_elements.csv").exists()


def test_witness_negative_dip_skips_conjugation(tmp_path):
    config = {
        **SMALL_GRID,
        "n": 4,
        "zeta": {"kind": "piecewise_linear", "knots": [[0.0, -1.0], [4.0, 1.0]]},
    }
    status, out = run(tmp_path, "witness", config)
    assert status == 0
    report = json.loads((out / "witness_report.json").read_text())
    assert "skipped" in report["conjugation"]
    assert report["convexified"]["passed"] is True


@pytest.mark.parametrize("command", ["kernel", "semigroup", "gram", "inner", "unitalg"])
def test_analysis_commands_pass_on_defaults(tmp_path, command):
    status, out = run(tmp_path, command, SMALL_GRID)
    assert status == 0
    report = json.loads((out / f"{command}_report.json").read_text())
    assert report["passed"] is True


def test_gram_report_shape(tmp_path):
    status, out = run(tmp_path, "gram", {**SMALL_GRID, "t_values": [0.5]})
    assert status == 0
    report = json.loads((out / "gram_report.json").read_text())
    result = report["results"][0]
    assert result["t"] == 0.5
    assert result["min_eigenvalue"] >= -report["tolerance"]
    assert result["entries"][0].keys() == {"grid_point", "min_eigenvalue"}
    assert result["entries"][-1]["grid_point"] == "tail"


def test_selftest_command(tmp_path, capsys):
    status, out = run(tmp_path, "selftest", SMALL_GRID)
    assert status == 0
    stdout = capsys.readouterr().out
    assert "30/30 checks passed" in stdout
    report = json.loads((out / "selftest_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 30


def test_membership_with_csv_zeta(tmp_path):
    size = 2 * 30 + 1
    lines = ["s,re,im,tail=1.0"]
    for k in range(size):
        lines.append(f"{k / 2},1.0,0.0")
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {**SMALL_GRID, "zeta": {"kind": "csv", "path": "zeta.csv"}}
    status, out = run(tmp_path, "membership", config)
    assert status == 0
    assert json.loads((out / "membership_report.json").read_text())["in_E"] is True


def test_csv_on_wrong_grid_is_config_error(tmp_path):
    lines = ["s,re,im,tail=1.0", "0.0,1.0,0.0", "0.5,1.0,0.0"]
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {**SMALL_GRID, "zeta": {"kind": "csv", "path": "zeta.csv"}}
    status, _ = run(tmp_path, "membership", config)
    assert status == 2


def test_module_entry_point(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"zeta": {"kind": "constant", "value": 1.0}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fockindex", "membership", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    report = json.loads((tmp_path / "out" / "membership_report.json").read_text())
    assert report["in_E"] is True


@pytest.mark.parametrize("t", [1e308, 1e300])
def test_overflowing_semigroup_time_is_a_one_line_error(tmp_path, t):
    two = {"zeta": {"kind": "constant", "value": 2.0}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_GRID, "u": two, "v": two, "t_values": [t]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fockindex", "semigroup", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_import_does_not_load_scipy():
    code = "import sys, fockindex.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
