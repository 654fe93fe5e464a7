"""Write a fixed set of CLI reports, so that two trees can be compared byte
for byte:

    python3 tests/report_sets.py OUT_DIR

runs ``python -m fockindex`` from the ``src`` directory of the tree this
script sits in, once per case below, and writes each case's config, its
outputs, its stdout and stderr and its exit status under
``OUT_DIR/<case>/``. Paths under OUT_DIR read ``OUT_DIR``, and paths
under ``src``, ``SRC``, in the captured stdout and stderr, so the sets
written by two trees into two directories compare with ``diff -r``; a
warning on stderr still names its source line, which an edit above it
moves. OpenBLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set, as the products of chain blocks may round
differently with more.

The cases: the default config of every command at six grids, ``unitalg``
with three cases at (8, 80) for seeds 1 to 12, ``selftest`` at (4, 40) for
seeds 0 to 5, ``semigroup`` with ``b`` read from a CSV file, ``unitalg``
at (4, 40) with a fixed ``kappa`` of 1, 2 and 4 presets, so that the
combinations run with other than three units, and ``witness`` with a zeta
that dips to -0.5. This is no test: pytest does not collect it, and it
uses only the standard library and the package.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("kernel", "semigroup", "gram", "inner", "unitalg", "membership", "witness", "approx", "index", "selftest")
GRIDS = ((4, 40), (8, 80), (16, 100), (1, 40), (2, 40), (3, 30))
CSV_GRID = (4, 40)
KAPPAS = (
    [{"kind": "constant", "value": 1.0}],
    [{"kind": "exp_approach", "c": -0.5, "a": 1.0}, {"kind": "exp_decay", "c": 0.5, "a": 1.0}],
    [
        {"kind": "exp_decay", "c": [0.25, 0.5], "a": 1.0, "d": 0.5},
        {"kind": "exp_decay", "c": [-0.25, -0.5], "a": 1.0},
        {"kind": "constant", "value": 0.25},
        {"kind": "constant", "value": 0.25},
    ],
)


def cases():
    """(name, command, config) for every case, in the order they run."""
    for m, end in GRIDS:
        for command in COMMANDS:
            yield f"{command}-m{m}-S{end}", command, {"grid": {"m": m, "S": end}}
    for seed in range(1, 13):
        yield f"unitalg-cases3-seed{seed}", "unitalg", {"grid": {"m": 8, "S": 80}, "cases": 3, "seed": seed}
    for seed in range(6):
        yield f"selftest-seed{seed}", "selftest", {"grid": {"m": 4, "S": 40}, "seed": seed}
    m, end = CSV_GRID
    yield "semigroup-csv-b", "semigroup", {"grid": {"m": m, "S": end}, "b": {"kind": "csv", "path": "b.csv"}}
    for kappa in KAPPAS:
        yield f"unitalg-kappa{len(kappa)}", "unitalg", {"grid": {"m": 4, "S": 40}, "kappa": kappa}
    dip = {"kind": "piecewise_linear", "knots": [[0, -0.5], [1, 1]]}
    yield "witness-dip", "witness", {"grid": {"m": 4, "S": 40}, "zeta": dip, "n": 1}


def write_csv_b(path: Path) -> None:
    """b(s) = 1 + 0.5 e^-s + 0.25i sin(s) e^-s on the CSV grid, tail 1."""
    m, end = CSV_GRID
    lines = ["s,re,im,tail=1.0"]
    for k in range(m * end + 1):
        s = k / m
        lines.append(f"{s!r},{1.0 + 0.5 * math.exp(-s)!r},{0.25 * math.sin(s) * math.exp(-s)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_case(root: Path, name: str, command: str, config: dict, env: dict) -> int:
    case = root / name
    case.mkdir(parents=True)
    config_path = case / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    if config.get("b", {}).get("kind") == "csv":
        write_csv_b(case / config["b"]["path"])
    argv = [sys.executable, "-m", "fockindex", command, "--config", str(config_path), "--out", str(case / "out")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    for stream, text in (("stdout", result.stdout), ("stderr", result.stderr)):
        text = text.replace(str(root), "OUT_DIR").replace(str(SRC), "SRC")
        (case / f"{stream}.txt").write_text(text, encoding="utf-8")
    (case / "exit_status.txt").write_text(f"{result.returncode}\n", encoding="utf-8")
    return result.returncode


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tests/report_sets.py OUT_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty; give a new or empty directory", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    statuses = {}
    for name, command, config in cases():
        statuses[name] = run_case(root, name, command, config, env)
    nonzero = {name: code for name, code in statuses.items() if code}
    print(f"{len(statuses)} cases written to {root}; nonzero exit statuses: {nonzero or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
