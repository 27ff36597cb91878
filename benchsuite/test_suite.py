"""Checks of the benchmark itself, on inputs small enough for the test suite.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchsuite``.  The smoke runs check the mechanics — metric names,
digests, span nesting — and say nothing about speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import classify, load_runs
from tracer import Tracer
from workloads import make_load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def suite(*args: str, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(cwd / "benchsuite" / "suite.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    stdout, stderr = proc.communicate(timeout=120)
    return proc.returncode, stdout, stderr


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """An untraced and a traced smoke run of every workload, side by side."""
    traces = tmp_path_factory.mktemp("traces")
    plain = suite("--smoke", "--seconds", "0.2")
    traced = suite(
        "--smoke", "--seconds", "0.2", "--trace", "1", "--trace-out", str(traces)
    )
    return finish(plain), finish(traced), traces


def results(stdout: str) -> dict[str, dict]:
    """``{workload: result object}`` from a suite run's output."""
    out, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("benchsuite: workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line.startswith("{"):
            out[workload] = json.loads(line)
    return out


def test_smoke_run_prints_every_end_to_end_metric(smoke):
    code, stdout, stderr = smoke[0]
    assert code == 0, stderr
    found = results(stdout)
    assert list(found) == [w["name"] for w in BENCH["workloads"]]
    names = {m["name"] for m in BENCH["end_to_end"]}
    for result in found.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_nests_spans(smoke):
    (code, stdout, stderr), traces = smoke[1], smoke[2]
    assert code == 0, stderr
    names = {m["name"] for m in BENCH["per_layer"]}
    found = results(stdout)
    assert list(found) == [w["name"] for w in BENCH["workloads"]]
    for result in found.values():
        assert result["correct"]
        assert set(result["metrics"]) == names
    traces = sorted(traces.glob("*.trace.json"))
    assert [t.name for t in traces] == [
        "avr-stream.trace.json", "grid-cold.trace.json", "grid-warm.trace.json"
    ]
    for path in traces:
        events = json.loads(path.read_text())["traceEvents"]
        assert events
        for event in events:
            parent = event["args"]["parent"]
            if parent < 0:
                assert event["name"] == "run_experiment"
                continue
            outer = events[parent]
            assert outer["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"]


def test_traced_and_untraced_passes_digest_equal(tmp_path):
    load = make_load("grid-cold", seed=5, smoke=True)
    load.setup(tmp_path)
    plain = load.op()
    tracer = Tracer()
    tracer.install()
    try:
        spanned = load.op(tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert plain.digest is not None and spanned.digest == plain.digest


def test_compare_classifies_runs():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    assert classify(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "regressed"
    assert classify(base, [v * 1.02 for v in base], "lower", 0.1)[0] == "no-worse"
    assert classify(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "better"
    wide = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert classify(base, wide, "lower", 0.1)[0] == "unresolved"
    assert classify(base, [v * 0.7 for v in base], "higher", 0.1)[0] == "regressed"


def test_compare_reads_suite_output(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "benchsuite: workload=grid-cold seed=1 seconds=20 trace=0\n"
        "  op_p50_s 2.1 s (n=8)\n"
        + json.dumps({"correct": True, "attempted": 9, "failed": 0,
                      "metrics": {"op_p50_s": {"value": 2.1, "unit": "s"}}})
        + "\nbenchsuite: workload=grid-warm seed=1 seconds=20 trace=1\n"
        + json.dumps({"correct": True, "attempted": 9, "failed": 0,
                      "metrics": {"approx.sync_calls": {"value": 0, "unit": "count"}}})
        + "\n"
    )
    assert load_runs([str(path)]) == {"grid-cold": [{"op_p50_s": 2.1}]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_package_source(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "benchsuite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, stdout, _ = finish(
        suite("--workload", "grid-cold", "--trace", trace, cwd=tmp_path)
    )
    assert code != 0
    assert not stdout.strip()
