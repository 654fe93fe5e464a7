"""Benchmark of the fockindex kernel calculus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The command generates every input of the
workload from the seed, measures set-up time in fresh processes, then runs
the workload's ops in one fresh worker process as a closed loop (one
client, one process, BLAS pinned to one thread) for the given seconds. It
checks every op's reports (see workloads.py), and prints each metric by
name and unit. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
of BENCHMARK.json when `--trace 0` and its per-layer metrics when
`--trace 1`. A traced run also writes its spans to
`.perfbench/traces/`, and every run writes its full result, provenance
included, to `.perfbench/results/`.

`--smoke` runs one op of the workload on the smallest grid; the benchmark's
own tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy loads BLAS in this process

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import move_to_fastest_cpu  # noqa: E402
from workloads import SMOKE_GRID, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPS = 11
DEADLINE_S = 170.0  # the whole run, generation and checks included

# Set-up as a user pays it before the first op: a fresh interpreter that
# imports the package and parses the op's first config.
SETUP_CODE = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from fockindex.cli import parse_config\n"
    "path = Path(sys.argv[1])\n"
    "parse_config(json.loads(path.read_text(encoding='utf-8')), path.parent)\n"
)


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 5.0:
        raise BenchError("out of time")
    return left


def measure_setup(config: str, reps: int, started: float) -> list:
    """Wall times of `reps` set-up processes, each started on the vCPU that
    is least contended at that moment, as the worker does for ops."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for _ in range(reps):
            move_to_fastest_cpu(cpus)
            begin = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, config],
                env=_child_env(),
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=min(60.0, _remaining(started)),
            )
            times.append(time.perf_counter() - begin)
            if proc.returncode != 0:
                raise BenchError(f"set-up process failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def run_worker(plan: dict, work: Path, started: float) -> dict:
    plan_path, result_path, log_path = work / "plan.json", work / "result.json", work / "worker.log"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with log_path.open("wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                env=_child_env(),
                cwd=ROOT,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=_remaining(started) - 5.0,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {log_path.read_text(errors='replace')[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def check_ops(workload, pool: list, ops: list) -> tuple:
    """Check every op's reports, and that every op run on the inputs of an
    earlier op wrote the same bytes. Returns (positions in `ops` of the
    failed timed ops, problem lines); a failed untimed repeat fails the op
    it repeats."""
    failed, problems = set(), []
    first = {}  # pool entry -> position of its first run
    for position, record in enumerate(ops):
        earlier = first.setdefault(record["pool"], position)
        try:
            if record["codes"] == ["exception"]:
                found = ["raised an exception (see the worker log)"]
            else:
                found = workload.check(pool[record["pool"]], Path(record["dir"]), record["codes"])
            if earlier != position and _tree(Path(ops[earlier]["dir"])) != _tree(Path(record["dir"])):
                found.append(f"reports differ from those of the identical op in {Path(ops[earlier]['dir']).name}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"reports unreadable: {exc!r}"]
        if found:
            failed.add(position if record["timed"] else earlier)
            problems += [f"{Path(record['dir']).name}: {line}" for line in found]
    return failed, problems


def _quantile90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(ops: list, setup: list, maxrss_kb: int) -> dict:
    times = [r["seconds"] for r in ops if r["timed"] and r["seconds"] is not None]
    if not times:
        raise BenchError("no op completed")
    return {
        "ops_timed": len(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": _quantile90(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def per_layer(names: list, ops: list, layers: list) -> dict:
    """Median over traced ops of each per-layer value."""
    untraced = [r["seconds"] for r in ops if not r["traced"] and r["seconds"] is not None]
    traced = [r["seconds"] for r in ops if r["traced"] and r["seconds"] is not None]
    if not untraced or not traced:
        raise BenchError("no op completed")
    values = {
        "trace.op_s_p50_untraced": statistics.median(untraced),
        "trace.op_s_p50_traced": statistics.median(traced),
    }
    values["trace.overhead_ratio"] = values["trace.op_s_p50_traced"] / values["trace.op_s_p50_untraced"]
    for name in names:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        per_op = []
        for stats in layers:
            totals = stats["layers"].get(layer, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            if field in totals:
                per_op.append(totals[field])
            elif field == "repeat_ratio":
                per_op.append(stats["repeats"].get(layer, 0) / totals["calls"] if totals["calls"] else 0.0)
            else:
                per_op.append(stats["counters"].get(name, 0))
        values[name] = statistics.median(per_op)
    return values


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: ") :]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, grid) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "grid": {"m": grid[0], "S": grid[1]},
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="one op on the smallest grid")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SOURCE / "fockindex" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SOURCE / 'fockindex'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    grid = SMOKE_GRID if args.smoke else workload.grid

    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        (work / "inputs").mkdir(parents=True)
        rng = np.random.default_rng(args.seed)
        pool = [workload.make(rng, grid, work / "inputs", i) for i in range(1 if args.smoke else workload.pool)]
        warmup = workload.make(np.random.default_rng([args.seed, 1]), SMOKE_GRID, work / "inputs", "warmup")

        # Half the set-up processes run before the ops and half after, so
        # that one burst of load on the machine moves the median less.
        reps = 0 if args.trace else 1 if args.smoke else SETUP_REPS
        setup = measure_setup(pool[0].calls[0][1], reps // 2, started)
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        plan = {
            "source": str(SOURCE),
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "max_ops": 1 if args.smoke else 1_000_000,
            "pool": [op.calls for op in pool],
            "warmup": warmup.calls,
            "out": str(work / "out"),
            "spans": str(STATE / "traces" / f"{tag}.json"),
        }
        result = run_worker(plan, work, started)
        setup += measure_setup(pool[0].calls[0][1], reps - reps // 2, started)
        failed, problems = check_ops(workload, pool, result["ops"])
        ops = result["ops"]
        attempted = sum(1 for r in ops if r["timed"])
        if args.trace:
            values = per_layer([m["name"] for m in metrics_spec], ops, result["layers"])
        else:
            values = end_to_end(ops, setup, result["maxrss_kb"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}

    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {len(failed)} failed")
    print(f"  {'failed_ratio':<40} {len(failed) / attempted:.6g} ratio ({len(failed)}/{attempted})")
    if not args.trace:
        print(f"  {'op_s_p90':<40} {values['op_s_p90']:.6g} s (over {values['ops_timed']} ops)")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written: {result['spans']} to {plan['spans']}")
    prov = provenance(args, grid)
    print("provenance " + json.dumps(prov, sort_keys=True))

    summary = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    record = {**summary, "provenance": prov, "setup_s": setup, "ops": ops, "problems": problems}
    (STATE / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
