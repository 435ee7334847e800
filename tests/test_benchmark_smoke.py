"""The benchmark's worker still runs every workload on this checkout's ``src``.

Each test runs ``perfbench/worker.py measure <workload> 1 <dir> --seconds 1``
in a child process, as the benchmark harness does, and reads its result
line: the worker must exit 0, and its after-run checks (for ``reduce`` an
independent evaluation through ``QuotientAlgebra.multiply``) must pass on
every operation of every round.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["verify", "sample", "reduce", "build"])
def test_worker_measures_a_workload_without_failures(workload, tmp_path):
    result = subprocess.run(
        [sys.executable, str(WORKER), "measure", workload, "1", str(tmp_path), "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]
