"""Runs the ops of one benchmark run in a fresh process, as a closed loop.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) names the package source, a warm-up op, the
pool of ops and how long to measure. The worker imports fockindex from the
plan's source directory and nothing else of the checkout's, runs each op
through `fockindex.cli.main` in-process, and times it. It starts the next
op only when the previous one has finished, and starts no op that would
likely end after the measuring time. Before each op it moves itself to
the least contended vCPU (`move_to_fastest_cpu`).

Untraced runs time op 0, 1, 2, ... and then repeat op 0 once, untimed, so
that its reports can be compared byte for byte. Traced runs alternate: each
pool entry is run untraced and then traced, which gives the tracing
overhead on identical inputs and the byte comparison at once.

The result holds each op's wall time, exit codes and output directory, the
process's peak RSS, and, when traced, each traced op's per-layer totals.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_calls(cli, calls, out_dir: Path) -> tuple:
    """Run one op's CLI calls; returns (wall seconds, exit codes)."""
    argvs = [[command, "--config", config, "--out", str(out_dir / f"c{j}")] for j, (command, config) in enumerate(calls)]
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
    return time.perf_counter() - start, codes


def _probe_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def move_to_fastest_cpu(cpus: list) -> None:
    """Pin this process to the CPU on which a short probe runs fastest.

    On a shared virtual machine each vCPU passes through contended phases,
    seconds to a minute long, in which the same work takes up to 1.5 times
    longer, and the vCPUs do so independently of each other. Starting each
    op on the vCPU that is free at that moment narrows the spread of op
    times between runs."""
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe_seconds(), _probe_seconds()), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    source = Path(plan["source"]).resolve()
    sys.path.insert(0, str(source))
    import fockindex
    import fockindex.cli

    if source not in Path(fockindex.__file__).resolve().parents:
        print(f"fockindex was imported from {fockindex.__file__}, not from {source}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer(fockindex)

    cli = fockindex.cli
    cpus = sorted(os.sched_getaffinity(0))
    out_root = Path(plan["out"])
    pool = plan["pool"]
    ops = []
    layers = []

    def run(index: int, label: str, traced: bool = False, timed: bool = True) -> None:
        out_dir = out_root / label
        gc.collect()
        move_to_fastest_cpu(cpus)
        record = {"op": index, "pool": index % len(pool), "dir": str(out_dir), "traced": traced, "timed": timed}
        try:
            if traced:
                tracer.install()
                tracer.begin_op(index)
            try:
                record["seconds"], record["codes"] = _run_calls(cli, pool[index % len(pool)], out_dir)
            finally:
                if traced:
                    layers.append(tracer.end_op().as_dict())
                    tracer.uninstall()
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc()
            record["seconds"], record["codes"] = None, ["exception"]
        ops.append(record)

    _run_calls(cli, plan["warmup"], out_root / "warmup")
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    index = 0
    while index < plan["max_ops"]:
        # Start no op that would likely end past the deadline.
        now = time.perf_counter()
        if index > 0 and now + (now - start) / index > deadline:
            break
        run(index, f"op{index}")
        if tracer is not None:
            run(index, f"op{index}t", traced=True)
        index += 1
    if tracer is None:
        run(0, "op0r", timed=False)

    result = {
        "ops": ops,
        "layers": layers,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.write_spans(plan["spans"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
