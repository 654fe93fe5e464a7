"""Tests for the experiment driver CLI: exit codes, report files and
byte-level determinism."""

import ast
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fockindex
import fockindex.presets
from fockindex import cli
from fockindex.algebra import GridSpec
from fockindex.cli import COMMANDS, main
from fockindex.fock import TAYLOR_TOLERANCE_FLOOR, FockUnit, blas_core, kernel
from fockindex.selftest import DEFAULT_TOLERANCES

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
        {"psd": 10**400},
    ],
)
def test_bad_tolerances_are_config_errors(tmp_path, capsys, tolerances):
    status, out = run(tmp_path, "membership", {"tolerances": tolerances})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "membership_report.json").exists()


TINY_GRID = {"grid": {"m": 2, "S": 10}}
PRESET_GRID = {"grid": {"m": 2, "S": 1}}


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
        ("membership", {**PRESET_GRID, "zeta": {"kind": "constant", "value": "inf"}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "constant", "value": {}}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "exp_approach", "a": "x"}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "exp_decay", "c": [1, "x"]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "piecewise_linear", "knots": [[0.0]]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "raw", "values": [1, 1, 1], "tail": "nan"}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "csv", "path": "missing.csv"}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "constant", "value": True}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "constant", "value": [True, 0]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "exp_approach", "a": True}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "exp_decay", "c": 1.0, "a": True}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "piecewise_linear", "knots": [[0, True]]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "piecewise_linear", "knots": [[True, 1.0]]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "raw", "values": [1, 1, True]}}),
        ("membership", {**PRESET_GRID, "zeta": {"kind": "raw", "values": [1, 1, 1], "tail": True}}),
        ("index", {"units": []}),
        ("gram", {"units": []}),
        ("witness", {"probes": []}),
        ("unitalg", {"probes": []}),
        ("semigroup", {"t_values": []}),
        ("gram", {"t_values": []}),
        ("approx", {"ns": []}),
        ("unitalg", {"kappa": []}),
        ("unitalg", {"kappa": [{"kind": "constant", "value": 0.5}]}),
        ("unitalg", {"kappa": [{"kind": "constant", "value": 0.5}, {"kind": "exp_decay", "c": 1e-9, "a": 1.0, "d": 0.5}]}),
        ("selftest", {"grid": {"m": 3, "S": 5}}),  # criterion 7 needs S >= 8
        ("selftest", {"grid": {"m": 2, "S": 9}}),  # criterion 9 needs S >= 10
        ("selftest", {"tolerances": {"dual_path": 1e-30}}),
        ("approx", PRESET_GRID),  # no default truncation point n <= S
        # a bad unit spec fails whether or not the command reads it
        ("membership", {"u": {"zeta": {"kind": "nonsense"}}}),
        ("membership", {"v": {"zeta": {"kind": "nonsense"}}}),
        ("membership", {"reference": {"zeta": {"kind": "nonsense"}}}),
        ("membership", {"probe": {"zeta": {"kind": "nonsense"}}}),
        ("kernel", {"unit": {"zeta": {"kind": "nonsense"}}}),
        # a key the command does not read, at any level, and the retired 'unit' of membership
        ("membership", {"zetta": {"kind": "constant", "value": 2.0}}),
        ("membership", {"unit": {"zeta": {"kind": "constant", "value": 2.0}, "betta": {"kind": "constant", "value": 1.0}}}),
        ("membership", {"zeta": {"kind": "exp_approach", "cc": 5, "aa": -1}}),
        ("membership", {"grid": {"m": 2, "S": 10, "s": 3}}),
        ("approx", {"t_values": [3.0]}),
        ("kernel", {"zeta": {"kind": "constant", "value": 2.0}}),
        ("membership", {"zeta": {"kind": "constant", "value": 2.0}, "unit": {"zeta": {"kind": "constant", "value": 1.0}}}),
        # an integer too large for a float
        ("approx", {"t": 10**400}),
        ("semigroup", {"t_values": [10**400]}),
        # an input outside the domain of the library operation it reaches
        ("witness", {"zeta": {"kind": "exp_approach"}}),  # not eventually one at n = 1
        ("witness", {"zeta": {"kind": "constant", "value": [1, 0.5]}}),  # not real
        ("witness", {"zeta": {"kind": "piecewise_linear", "knots": [[0, -3000], [1, 1]]}}),  # no dyadic alpha
        ("witness", {"zeta": {"kind": "piecewise_linear", "knots": [[0, 0.01], [1, 1]]}, "delta": 0.9995}),
        ("approx", {"zeta": {"kind": "piecewise_linear", "knots": [[0, 1], [2, 0], [3, 1]]}, "ns": [2]}),  # pivot zeta(2) = 0
        # a tolerance the command does not read
        ("gram", {"tolerances": {"exp": 1e-3, "semigroup_law": 1e-300}}),
        ("kernel", {"tolerances": {"psd": 1e-3}}),
        # ns out of order: a convergence table must read along refinement
        ("approx", {"ns": [10, 2]}),
        ("approx", {"ns": [4, 4]}),
        # a knot at s = +inf, which once gave the constant first value
        ("membership", {"zeta": {"kind": "piecewise_linear", "knots": [[0, 0.5], [float("inf"), 1.0]]}}),
    ],
)
def test_bad_times_and_integers_are_config_errors(tmp_path, capsys, command, fields):
    status, out = run(tmp_path, command, {**TINY_GRID, **fields})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_time_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"grid": {"m": 2, "S": 10}, "t_values": [1e400]}', encoding="utf-8")
    assert main(["semigroup", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("membership", '{"zeta": {"kind": "constant", "value": 2.0}, "zeta": {"kind": "constant", "value": 1.0}}'),
        ("membership", '{"grid": {"m": 2, "S": 10, "S": 12}}'),
        ("kernel", '{"grid": {"m": 2, "S": 10}, "u": {"zeta": {"kind": "constant", "value": 2.0}, "zeta": {"kind": "constant", "value": 1.0}}}'),
        ("membership", '{"grid": {"m": 2, "S": 10}, "zeta": {"kind": "constant", "value": 2.0, "value": 1.0}}'),
    ],
    ids=["top level", "grid", "unit spec", "preset spec"],
)
def test_a_repeated_key_is_a_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "given twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_csv_cell_that_is_not_finite_is_a_config_error(tmp_path, capsys):
    lines = ["s,re,im,tail=1.0", "0.0,inf,0.0", "0.5,1.0,0.0", "1.0,1.0,0.0"]
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, _ = run(tmp_path, "membership", {**PRESET_GRID, "zeta": {"kind": "csv", "path": "zeta.csv"}})
    assert status == 2
    assert "samples must be finite" in capsys.readouterr().err


def test_csv_s_that_is_nan_is_a_config_error(tmp_path, capsys):
    lines = ["s,re,im,tail=1.0", "0.0,1.0,0.0", "nan,1.0,0.0", "1.0,1.0,0.0"]
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, out = run(tmp_path, "membership", {**PRESET_GRID, "zeta": {"kind": "csv", "path": "zeta.csv"}})
    assert status == 2
    assert "row 3 has s=nan, expected grid point 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_given_as_a_string_is_parsed(tmp_path):
    status, out = run(tmp_path, "kernel", {**SMALL_GRID, "tolerances": {"hermitian": "1e-13"}})
    assert status == 0
    assert json.loads((out / "kernel_report.json").read_text())["tolerance"] == 1e-13


# The selftest's criterion 12 runs a member whose last sample is off its
# tail, and the centrality probes warn on it.
UNRESOLVED_MEMBER = pytest.mark.filterwarnings("ignore::fockindex.UnresolvedTailWarning")


@pytest.mark.parametrize(
    "command",
    [
        "kernel",
        "semigroup",
        "gram",
        "inner",
        "index",
        "approx",
        "witness",
        "membership",
        pytest.param("selftest", marks=UNRESOLVED_MEMBER),
        "unitalg",
    ],
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
        assert (out / path.name).read_bytes() == path.read_bytes(), (
            f"{path.name} differs under OpenBLAS core {blas_core()}; the goldens were captured under SkylakeX,"
            " so on another core check ROADMAP item 5 (goldens per BLAS kernel) before the code"
        )


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


def test_witness_builds_the_step1_b0_once(tmp_path, monkeypatch):
    calls = []
    build = cli.witness_step1
    monkeypatch.setattr(cli, "witness_step1", lambda *args: calls.append(args) or build(*args))
    status, _ = run(tmp_path, "witness")
    assert status == 0
    assert len(calls) == 1


def test_witness_below_the_reciprocal_floor_skips_conjugation(tmp_path):
    config = {**TINY_GRID, "zeta": {"kind": "piecewise_linear", "knots": [[0, 1e-20], [1, 1]]}}
    status, out = run(tmp_path, "witness", config)
    assert status == 0
    report = json.loads((out / "witness_report.json").read_text())
    assert "reciprocal floor" in report["conjugation"]["skipped"]
    assert report["convexified"]["passed"] is True
    assert not (out / "witness_elements.csv").exists()


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


# zeta = 1000 on [0, 1), then 1 + 5e-13: eventually one within rounding, so the
# step-1 witness is built, but b1(s + 1) * b0(s) misses the component by about 5e-10.
LOOSE_WITNESS = {**TINY_GRID, "n": 1, "zeta": {"kind": "raw", "values": [1000.0, 1000.0] + [1.0 + 5e-13] * 19}}


@pytest.mark.parametrize("tolerances, status", [({}, 1), ({"witness": 1e-6}, 0)])
def test_step1_residual_is_judged_by_the_witness_tolerance(tmp_path, capsys, tolerances, status):
    assert run(tmp_path, "witness", {**LOOSE_WITNESS, "tolerances": tolerances})[0] == status
    assert "error:" not in capsys.readouterr().err
    conjugation = json.loads((tmp_path / "out" / "witness_report.json").read_text())["conjugation"]
    assert 1e-12 < conjugation["residual"] < 1e-6
    assert conjugation["passed"] is (status == 0)


@pytest.mark.filterwarnings("ignore::fockindex.UnresolvedTailWarning")  # tails past a short grid
def test_selftest_runs_on_the_shortest_grid(tmp_path, capsys):
    assert run(tmp_path, "selftest", TINY_GRID)[0] == 0
    assert "30/30 checks passed" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::fockindex.UnresolvedTailWarning")  # tails past a short grid
def test_approx_default_ns_fit_the_grid(tmp_path):
    status, out = run(tmp_path, "approx", {"grid": {"m": 3, "S": 5}})
    assert status == 1
    report = json.loads((out / "approx_report.json").read_text())
    assert report["ns"] == [2, 4]
    assert report["below_threshold"] is False


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


@UNRESOLVED_MEMBER
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


def test_csv_element_is_read_once_per_run(tmp_path, monkeypatch):
    import fockindex.presets

    reads = []
    load_csv = fockindex.presets.load_csv
    monkeypatch.setattr(fockindex.presets, "load_csv", lambda grid, path: reads.append(path) or load_csv(grid, path))
    lines = ["s,re,im,tail=1.0"] + [f"{k / 2},1.0,0.0" for k in range(2 * 30 + 1)]
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, _ = run(tmp_path, "semigroup", {**SMALL_GRID, "b": {"kind": "csv", "path": "b.csv"}})
    assert status == 0
    assert len(reads) == 1


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
    assert not (tmp_path / "out").exists()


def test_a_nan_residual_is_a_numerical_failure(tmp_path):
    """Kernels against a reference with zeta = 1e300 overflow, and 9 of the
    18 dual-path residuals would read NaN: the run fails and writes nothing."""
    config = {"grid": {"m": 2, "S": 4}, "reference": {"zeta": {"kind": "constant", "value": 1e300}}}
    status, stderr, out = run_quietly("unitalg", config, tmp_path)
    assert status == 1
    assert stderr.startswith("error: row-sum norm is NaN") and len(stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "exp, status",
    [(TAYLOR_TOLERANCE_FLOOR, 0), (float(np.nextafter(TAYLOR_TOLERANCE_FLOOR, 0.0)), 2), (1e-300, 2)],
)
def test_exp_tolerance_has_a_floor(tmp_path, capsys, exp, status):
    """Below the floor the Taylor series may not stop in its 64 terms."""
    assert run(tmp_path, "semigroup", {**TINY_GRID, "tolerances": {"exp": exp}})[0] == status
    assert ("config error" in capsys.readouterr().err) is (status == 2)
    assert (tmp_path / "out").exists() is (status == 0)


def test_out_that_is_a_file_is_a_one_line_error(tmp_path, capsys):
    (tmp_path / "out").write_text("not a directory", encoding="utf-8")
    status, out = run(tmp_path, "membership", TINY_GRID)
    assert status == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write outputs to {out}:")
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_kernel_matrix_csv_is_the_dense_kernel(tmp_path):
    grid = {"m": 2, "S": 4}
    u = {"zeta": {"kind": "exp_approach", "c": 1.0, "a": 1.0}}
    v = {"zeta": {"kind": "constant", "value": 0.5}, "beta": {"kind": "constant", "value": [0.2, 0.1]}}
    status, out = run(tmp_path, "kernel", {"grid": grid, "u": u, "v": v})
    assert status == 0
    with (out / "kernel_matrix.csv").open(newline="") as fh:
        cells = [[complex(cell) for cell in row] for row in csv.reader(fh)]
    spec = GridSpec(grid["m"], grid["S"])

    def unit(given):
        zero = {"kind": "constant", "value": 0.0}
        return FockUnit(*(fockindex.presets.from_spec(spec, given.get(key, zero), tmp_path) for key in ("zeta", "beta")))

    assert np.array_equal(np.array(cells), kernel(unit(u), unit(v)).to_dense())


def handler_defs():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]


def test_handlers_touch_no_file():
    """Each handler returns its outputs; ``main`` alone creates --out, writes
    them and takes the exit status from the report."""
    handlers = handler_defs()
    assert len(handlers) == len(COMMANDS)
    for handler in handlers:
        assert "out" not in [arg.arg for arg in handler.args.args + handler.args.kwonlyargs], handler.name
        calls = [node.func for node in ast.walk(handler) if isinstance(node, ast.Call)]
        called = {getattr(func, "id", None) or getattr(func, "attr", None) for func in calls}
        assert not called & {"write_json", "write_csv", "open", "mkdir", "write_text", "write_bytes"}, handler.name
        returned = [node.value for node in ast.walk(handler) if isinstance(node, ast.Return)]
        assert not [value for value in returned if isinstance(value, ast.Constant)], handler.name


def test_each_handler_reads_the_tolerances_its_command_declares():
    """The names in a command's _TOLERANCES are exactly the tolerance names its handler mentions."""
    assert set(cli._TOLERANCES) == set(COMMANDS)
    for handler in handler_defs():
        named = {node.value for node in ast.walk(handler) if isinstance(node, ast.Constant) and node.value in DEFAULT_TOLERANCES}
        assert named == set(cli._TOLERANCES[handler.name.removeprefix("cmd_")]), handler.name


def test_handlers_raise_and_catch_nothing():
    """Whether an input is outside a command's domain is the library's call:
    the handlers neither re-check it (``raise``) nor re-map it (``try``)."""
    handlers = handler_defs()
    assert len(handlers) == len(COMMANDS)
    for handler in handlers:
        assert not [node for node in ast.walk(handler) if isinstance(node, (ast.Raise, ast.Try))], handler.name


def test_seeded_commands_do_not_load_numpy_random(tmp_path):
    """The battery's and unitalg's seeded draws come from selftest.Pcg64Draws,
    so a run of either never imports numpy.random."""
    configs = {"selftest": {"grid": {"m": 4, "S": 40}}, "unitalg": {"grid": {"m": 2, "S": 10}}}
    runs = []
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config), encoding="utf-8")
        runs.append([command, "--config", str(tmp_path / f"{command}.json"), "--out", str(tmp_path / command)])
    code = f"import sys\nfrom fockindex.cli import main\nassert [main(argv) for argv in {runs!r}] == [0, 0]\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_import_does_not_load_scipy():
    code = "import sys, fockindex.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- robustness: random small configs end in an exit status, never a traceback --

def mostly(valid, odd):
    """``valid`` three times in four, else ``odd``: most runs get past
    parsing, and the rest try values the config cannot take."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 0 else valid)


ODD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.floats(-5, 5), max_size=3),
)
NUMBERS = mostly(st.one_of(st.floats(-3, 3), st.integers(-3, 3), st.lists(st.floats(-3, 3), min_size=2, max_size=2)), ODD)
ODD_GRID_FIELDS = st.one_of(st.integers(-1, 0), st.booleans(), st.floats(-1, 6), st.text(max_size=2), st.none())
PRESETS = mostly(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"), "value": NUMBERS}),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["exp_approach", "exp_decay", "inverse_decay"])},
            optional={key: NUMBERS for key in ("c", "a", "d")},
        ),
    ),
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("piecewise_linear"), "knots": st.lists(st.lists(NUMBERS, max_size=3), max_size=4)}),
        st.fixed_dictionaries({"kind": st.just("raw"), "values": st.lists(NUMBERS, max_size=14)}, optional={"tail": NUMBERS}),
        st.fixed_dictionaries({"kind": st.sampled_from(["csv", "nonsense"])}, optional={"path": st.text(max_size=4)}),
        ODD,
    ),
)
UNITS = mostly(st.fixed_dictionaries({"zeta": PRESETS}, optional={"beta": PRESETS}), ODD)
GRIDS = st.fixed_dictionaries({"m": mostly(st.integers(1, 2), ODD_GRID_FIELDS), "S": mostly(st.integers(1, 6), ODD_GRID_FIELDS)})
# Values by the type a key is read as (its reader's label in cli._READERS).
VALUES = {
    "preset": PRESETS,
    "presets summing to 1": mostly(st.lists(PRESETS, max_size=3), ODD),
    "unit": UNITS,
    "units": mostly(st.lists(UNITS, max_size=3), ODD),
    "time >= 0": NUMBERS,
    "times >= 0": mostly(st.lists(NUMBERS, max_size=3), ODD),
    "integer >= 0": mostly(st.integers(-1, 5), ODD),
    "integer >= 1": mostly(st.integers(0, 2), ODD),
    "integer in [1, S]": mostly(st.integers(0, 7), ODD),
    "integers in [1, S]": mostly(st.lists(st.integers(0, 7), max_size=3), ODD),
    "number in (0, 1)": mostly(st.floats(-0.5, 1.5), ODD),
}


def command_configs(command):
    """Configs with a grid and some of the keys ``command`` reads, drawn from
    the schema; tolerance overrides are mostly of names the command reads."""
    optional = {key: VALUES[cli._READERS[key].label] for key in cli._DEFAULTS[command]}
    names = mostly(st.sampled_from(cli._TOLERANCES[command]), st.sampled_from([*DEFAULT_TOLERANCES, "bogus"]))
    optional["tolerances"] = st.dictionaries(names, NUMBERS, max_size=2)
    return st.tuples(st.just(command), st.fixed_dictionaries({"grid": GRIDS}, optional=optional))


def run_quietly(command, config, tmp):
    """Exit status, stderr and output directory of one in-process run."""
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        status = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return status, stderr.getvalue(), Path(tmp) / "out"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([c for c in COMMANDS if c != "selftest"]).flatmap(command_configs))
def test_random_small_configs_end_in_an_exit_status(command_and_config):
    with tempfile.TemporaryDirectory() as tmp:
        status, stderr, out = run_quietly(*command_and_config, tmp)
        assert status in (0, 1, 2)
        assert "Traceback" not in stderr
        if status == 2:
            assert not out.exists()
        elif out.exists():
            (report,) = out.glob("*.json")
            assert status == (0 if json.loads(report.read_text()).get("passed", True) else 1)
        else:
            assert status == 1  # a numerical failure writes nothing


def levels(config):
    """(level, dict, keys it takes) for each dict below the top of a valid
    config: the grid, each unit spec and each preset spec."""
    found = [("grid", config["grid"], cli._GRID_KEYS)]
    presets = []
    for key, value in config.items():
        label = cli._READERS[key].label if key in cli._READERS else None
        units = [value] if label == "unit" else value if label == "units" else []
        found += [("unit spec", unit, cli._UNIT_KEYS) for unit in units]
        presets += [value] if label == "preset" else [spec for unit in units for spec in unit.values()]
    found += [("preset spec", spec, ("kind", *fockindex.presets._PRESETS[spec["kind"]][1])) for spec in presets]
    return found


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_one_misspelt_key_is_a_config_error_and_writes_nothing(command, data):
    """A valid config (the command's spec defaults) with one key misspelt
    at a drawn level: the top, the grid, a unit spec or a preset spec."""
    defaults = {key: value for key, value in cli._DEFAULTS[command].items() if value is not None and not callable(value)}
    config = copy.deepcopy({"grid": {"m": 2, "S": 10}, **defaults})
    level, node, known = data.draw(st.sampled_from([("top", config, cli._command_keys(command)), *levels(config)]))
    key = data.draw(st.sampled_from(sorted(node)))
    misspelt = data.draw(st.sampled_from([key + "_", key + key[-1], key.swapcase(), "x" + key]))
    assume(misspelt not in known)
    node[misspelt] = node[key]
    with tempfile.TemporaryDirectory() as tmp:
        status, stderr, out = run_quietly(command, config, tmp)
        assert status == 2, (level, misspelt)
        assert stderr.startswith("config error:") and repr(misspelt) in stderr
        assert not out.exists()


@pytest.mark.parametrize(
    "lines",
    [
        ["s,re,im,tail=1.0", "0.0,1,0,9,9", "0.5,1,0", "1.0,1,0"],
        ["s,re,im,tail=1.0,x", "0.0,1,0", "0.5,1,0", "1.0,1,0"],
    ],
    ids=["data_row", "header"],
)
def test_csv_with_extra_cells_is_a_config_error(tmp_path, capsys, lines):
    (tmp_path / "zeta.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, out = run(tmp_path, "membership", {**PRESET_GRID, "zeta": {"kind": "csv", "path": "zeta.csv"}})
    assert status == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


CELLS = st.text(alphabet="0123456789.-ex ", min_size=1, max_size=4)
CSV_FAULTS = ("ragged", "s", "header", "bytes", "bom", "blank")


@st.composite
def csv_files(draw):
    """(bytes, faults, whether a data row has extra cells): the file of the
    constant 1 on grid (2, 3), with drawn faults."""
    rows = [[repr(k / 2), "1.0", "0.0"] for k in range(7)]
    header = "s,re,im,tail=1.0"
    faults = draw(st.sets(st.sampled_from(CSV_FAULTS)))
    if "ragged" in faults:
        rows[draw(st.integers(0, 6))] = draw(st.lists(CELLS, min_size=1, max_size=6))
    if "s" in faults:
        rows[draw(st.integers(0, 6))][0] = draw(CELLS)
    if "header" in faults:
        header = draw(st.sampled_from(["s,re,im", "s,re,im,1.0", "re,im,s,tail=1.0", "", "s,re,im,tail=x"]))
    lines = [header] + [",".join(row) for row in rows]
    if "blank" in faults:
        lines.insert(draw(st.integers(1, len(lines))), "")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if "bytes" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x81", b"\xfe,"])) + data[at:]
    if "bom" in faults:
        data = b"\xef\xbb\xbf" + data
    return data, faults, any(len(row) > 3 for row in rows)


@settings(max_examples=150, deadline=None)
@given(csv_files())
def test_random_csv_files_end_in_an_exit_status(file):
    data, faults, extra_cells = file
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "zeta.csv").write_bytes(data)
        status, stderr, _ = run_quietly("membership", {"grid": {"m": 2, "S": 3}, "zeta": {"kind": "csv", "path": "zeta.csv"}}, tmp)
    assert status in (0, 1, 2)
    assert "Traceback" not in stderr
    if extra_cells:
        assert status == 2
    if faults <= {"blank"}:
        assert status == 0


def test_every_key_with_a_reader_is_read_by_a_command():
    """parse_config accepts the keys with a reader; each must be one that some command reads."""
    assert set(cli._READERS) == {key for defaults in cli._DEFAULTS.values() for key in defaults}


def readme_table(header):
    """The rows of the README table whose header row is ``header``, as lists of cells."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    end = next(k for k in range(start, len(lines) + 1) if k == len(lines) or not lines[k].startswith("|"))
    return [[cell.strip() for cell in line.strip("|").split(" | ")] for line in lines[start:end]]


def code(cell):
    assert cell.startswith("`") and cell.endswith("`"), cell
    return cell[1:-1]


def test_readme_config_table_is_the_schema():
    """Each row is (command, key, type, default); a default that is a spec
    is written as its JSON, one the grid or the library decides in words."""
    rows = readme_table("| Command | Key | Type | Default |")
    assert [(code(c), code(k)) for c, k, _, _ in rows] == [(c, k) for c, d in cli._DEFAULTS.items() for k in d]
    for command, key, label, default in rows:
        value = cli._DEFAULTS[code(command)][code(key)]
        assert label == cli._READERS[code(key)].label
        if value is None or callable(value):
            assert not default.startswith("`"), default
        else:
            assert json.loads(code(default)) == value


def test_readme_tolerance_table_is_the_schema():
    rows = readme_table("| Command | Tolerances |")
    written = {code(command): [] if names == "none" else [code(name) for name in names.split(", ")] for command, names in rows}
    assert written == {command: list(names) for command, names in cli._TOLERANCES.items()}


def test_readme_preset_table_is_the_preset_schema():
    """Each row is (kind, parameters, element); a parameter with a default
    is written `name` = its JSON."""
    rows = readme_table("| Kind | Parameters | Element |")
    parameters = {}
    for kind, written, _ in rows:
        names = [part.split(" = ") for part in written.split(", ")]
        parameters[code(kind)] = {code(name[0]): json.loads(name[1]) if len(name) > 1 else ... for name in names}
    assert parameters == {kind: defaults for kind, (_, defaults) in fockindex.presets._PRESETS.items()}
