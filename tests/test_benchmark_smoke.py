"""The benchmark's worker still runs every workload on this checkout's ``src``.

Each test runs ``perfbench/worker.py`` in a child process, as the benchmark
harness does, and reads its result line: the worker must exit 0, and its
after-run checks (for ``reduce`` an independent evaluation through
``QuotientAlgebra.multiply``) must pass on every operation of every round.
``measure`` runs rounds for one second; ``pass --trace`` runs the traced
unit once under the tracer, which wraps functions of the package by module
and name, so a deleted or renamed name fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ["verify", "sample", "reduce", "build"]


def run_worker(*args) -> dict:
    """The result line of ``worker.py args``, which must exit 0 with no
    failed operation."""
    result = subprocess.run(
        [sys.executable, str(WORKER), *args], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]
    return record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_measures_a_workload_without_failures(workload, tmp_path):
    run_worker("measure", workload, "1", str(tmp_path), "--seconds", "1")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_traces_a_workload_without_failures(workload, tmp_path):
    record = run_worker("pass", workload, "1", str(tmp_path), "--trace")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # trace.overhead is the one layer metric the parent process computes
    expected = {m["name"] for m in declared} - {"trace.overhead"}
    assert len(expected) == 38
    assert set(record["layers"]) == expected
    if workload == "sample":
        layers = record["layers"]
        # the counter counts the structure constants computed, each once
        # per process, and a traced pass starts with no row filled
        assert layers["quotient.structure_constant.calls"] > 0
        # the comparer still calls the names the tracer wraps, so that
        # polyring.evaluate.s and the oracle's time measure them
        assert layers["polyring.evaluate.calls"] > 0
        assert layers["e6.numeric_relation_residuals.calls"] > 0
