"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage::

    python3 benchsuite/suite.py                       # every workload
    python3 benchsuite/suite.py --workload grid-cold --seed 3 --seconds 20
    python3 benchsuite/suite.py --workload grid-warm --trace 1 --trace-out traces
    python3 benchsuite/suite.py compare A.txt ... -- B.txt ...

Each workload runs in a child process (``child.py``) against the
checkout's own ``src``; nothing is installed.  With ``--trace 0`` the
run prints every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric, each with its unit and sample
count, and ends with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

Set-up time is the median of several set-ups, each timed from starting
a child process to its ``READY`` line: imports, input generation,
cache priming and daemon start-up.  End-to-end times are reported in
reference seconds: scaled by how fast a fixed computation runs on the
machine during the run (see ``yardstick.py``).  The outputs of every
operation are digested and checked against the digests pinned in
``pinned.json`` and against each other; a mismatch makes the run exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from yardstick import REFERENCE_S, Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every child's work directory lives here, inside the checkout
WORK_ROOT = ROOT / ".benchsuite-work"
#: seed-0 output digests every run is checked against
PINNED = HERE / "pinned.json"
#: set-ups timed per run (the measuring child's own set-up is the last)
SETUP_SAMPLES = 3
#: a run, set-ups included, must end within this many seconds
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no report."""


def run_child(args: list[str], deadline: float) -> tuple[float, dict[str, Any] | None]:
    """Run ``child.py``; return its set-up seconds and its report.

    Set-up is timed from just before the process starts to the moment
    its ``READY`` line arrives.  The child gets its own session so that
    a timeout kills its worker processes too, and a work directory that
    is removed when it ends.
    """
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    (work / "tmp").mkdir()
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(HERE / "child.py"), "--work", str(work), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    timer = threading.Timer(
        max(deadline - start, 1.0), os.killpg, (proc.pid, signal.SIGKILL)
    )
    timer.start()
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0:
        raise ChildFailed(f"child exited with code {code} ({' '.join(args)})")
    return setup_s, json.loads(lines[-1]) if lines else None


def run_workload(
    name: str, args: argparse.Namespace, bench: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, str]]:
    """Set up, measure and check one workload.

    Returns the result object and the output digest of every key.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S
    child_args = [
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--pinned", str(PINNED),
    ]
    if args.smoke:
        child_args.append("--smoke")
    if args.trace_out is not None:
        child_args += ["--trace-out", str(args.trace_out.resolve())]
    # Each set-up is scaled by a yardstick sample taken just before it.
    yardstick = Yardstick()
    setups = []
    # A traced run reports no set-up time, and a smoke run one sample.
    extra = 0 if args.trace or args.smoke else SETUP_SAMPLES - 1
    for _ in range(extra):
        reference = yardstick.sample(calls=3)
        setup_s, _ = run_child([*child_args, "--setup-only"], deadline)
        setups.append(setup_s * REFERENCE_S / reference)
    reference = yardstick.sample(calls=3)
    setup_s, report = run_child(child_args, deadline)
    setups.append(setup_s * REFERENCE_S / reference)
    if report is None:
        raise ChildFailed(f"{name}: the child printed no report")

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        reference = report["reference_s"]
        print(f"  reference computation {reference * 1e3:.1f} ms (at reference "
              f"speed {REFERENCE_S * 1e3:.0f} ms): times below are scaled to it "
              f"(about x {REFERENCE_S / reference:.3f})")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise ChildFailed(
            f"{name}: metrics {sorted(set(metrics) ^ set(units))} "
            "do not match BENCHMARK.json"
        )

    for metric in units:
        if metric == "setup_s":
            note = f"median of {len(setups)} set-ups"
        elif report["traced"]:
            note = f"per traced pass, n={report['traced']}"
        else:
            note = f"n={report['timed']}"
        print(f"  {metric:34s} {metrics[metric]:>14.6g} {units[metric]:8s} ({note})")
    for span, calls, total, self_s in report["layers"]:
        print(f"  span {span:32s} calls={calls:<7d} "
              f"total={total:.4f}s self={self_s:.4f}s")
    print(f"  digests: {len(report['digests'])} key(s), "
          f"{len(report['pinned'])} checked against pinned.json")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]}
            for metric in units
        },
    }
    return result, report["digests"]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", type=Path, metavar="DIR",
                        help="write one Chrome trace-event JSON per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up: checks the mechanics")
    parser.add_argument("--update-pins", action="store_true",
                        help="after a correct run, pin its output digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchsuite: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        names = [args.workload]

    status = 0
    try:
        for name in names:
            print(f"benchsuite: workload={name} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace}", flush=True)
            try:
                result, digests = run_workload(name, args, bench)
            except ChildFailed as exc:
                print(f"benchsuite: {exc}", file=sys.stderr)
                return 2
            if args.update_pins and result["correct"]:
                pinned = json.loads(PINNED.read_text())
                pinned.update(digests)
                PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(json.dumps(result), flush=True)
            status |= 0 if result["correct"] else 1
    finally:
        with contextlib.suppress(OSError):  # absent, or another run's is in it
            WORK_ROOT.rmdir()
    return status


if __name__ == "__main__":
    sys.exit(main())
