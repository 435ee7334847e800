"""Benchmark harness for ``preproj``: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each measurement runs in a fresh child process
(``worker.py``), one at a time, single-threaded, in a closed loop.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
of three fresh set-ups (import plus the workload's first builds), the
rest come from the rounds one child runs for ``--seconds``.  Every time
is given at the reference speed of ``calibrate.py``: the harness pins
itself and its children to one CPU, pauses the measured child about once
a second to run a fixed reference loop, and scales each timed interval,
pauses taken out, by how fast the loop ran in and around it, so that
the drifting speed of a shared machine cancels.  The wall times are in
the record.

``--trace 1`` runs the workload's fixed traced unit once without tracing
and once with it, and reports the per-layer metrics of the traced child
plus the tracing overhead.  See README.md for the metric definitions.

The last line of standard output is the result object; the line before
it, also written to ``.perfbench_out/``, records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# every run must end within 180 s; a child gets what is left of this
RUN_BUDGET_S = 170.0
# seconds a measured worker runs between two pauses for the reference loop
CALIBRATE_EVERY_S = 1.0


class BenchError(Exception):
    pass


def _child(args, deadline, calibrated=False):
    """Run one worker to its end; return its result and the calibrations.

    With ``calibrated`` the worker is paused (SIGSTOP) as soon as it
    starts, then every ``CALIBRATE_EVERY_S``, and once more after it has
    exited, and the reference loop runs while it is stopped.  A
    calibration is ``(paused_from, paused_to, seconds_per_pass)`` in
    ``perf_counter`` time, which the worker's spans share.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    name = " ".join(map(str, args[:2]))
    output, calibrations = b"", []
    with open(OUT_DIR / "worker-stderr.txt", "w+b") as err, subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err
    ) as proc, selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        due = perf_counter() if calibrated else math.inf
        try:
            while True:
                if perf_counter() >= due:
                    proc.send_signal(signal.SIGSTOP)
                    try:
                        paused_from = perf_counter()
                        reading = calibrate.sample()
                        paused_to = perf_counter()
                    finally:
                        proc.send_signal(signal.SIGCONT)
                    calibrations.append((paused_from, paused_to, reading))
                    due = paused_to + CALIBRATE_EVERY_S
                if perf_counter() >= deadline:
                    raise BenchError(f"worker {name} ran out of time")
                if selector.select(timeout=min(due, deadline) - perf_counter()):
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    output += chunk
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if calibrated:
        now = perf_counter()
        calibrations.append((now, now, calibrate.sample()))
    lines = output.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {name} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1]), calibrations


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def at_reference_speed(span, calibrations):
    """Seconds the worker ran within ``span``, at the reference speed.

    The pauses for calibration are taken out, and the rest is scaled by
    the mean reading of the calibrations inside the span and the nearest
    one on either side of it.
    """
    t0, t1 = span
    paused = sum(max(0.0, min(t1, b) - max(t0, a)) for a, b, _ in calibrations)
    before = [c for c in calibrations if c[1] <= t0][-1:]
    inside = [c for c in calibrations if c[0] < t1 and c[1] > t0]
    after = [c for c in calibrations if c[0] >= t1][:1]
    speed = statistics.mean(c[2] for c in before + inside + after)
    return (t1 - t0 - paused) * calibrate.REFERENCE_S / speed


def measure(workload, seed, seconds, deadline):
    argvs = [["setup", workload, seed, OUT_DIR]] * (SETUP_REPEATS - 1)
    argvs.append(["measure", workload, seed, OUT_DIR, "--seconds", seconds])
    children = [_child(argv, deadline, calibrated=True) for argv in argvs]
    run, calibrations = children[-1]
    # every time metric is at the reference speed (see calibrate.py)
    setups = [at_reference_speed(r["setup_span"], c) for r, c in children]
    latencies = [at_reference_speed(span, calibrations) for span in run["round_spans"]]
    completed = run["attempted"] - run["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "p50_ms": statistics.median(latencies) * 1000,
        "p95_ms": percentile(latencies, 0.95) * 1000,
        "ops_per_s": completed / sum(latencies),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {
        "rounds": len(latencies),
        "round_reference_s": latencies,
        "round_wall_s": run["latencies_s"],
        "calibrations_s": [c[2] for c in calibrations],
        "setup_reference_s": setups,
        "setup_wall_s": [r["setup_s"] for r, _ in children],
    }
    return run, values, detail


def traced(workload, seed, deadline):
    plain, _ = _child(["pass", workload, seed, OUT_DIR], deadline)
    run, _ = _child(["pass", workload, seed, OUT_DIR, "--trace"], deadline)
    plain_s, traced_s = sum(plain["latencies_s"]), sum(run["latencies_s"])
    values = dict(run["layers"], **{"trace.overhead": traced_s / plain_s - 1})
    for key in ("attempted", "failed"):
        run[key] += plain[key]
    run["problems"] += plain["problems"]
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return run, values, detail


def environment():
    sources = sorted((ROOT / "src" / "preproj").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": revision,
        "src_sha256": digest,
    }


def main(argv=None) -> int:
    # BENCHMARK.json fixes the workloads, and which metrics a run reports
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "preproj" / "__init__.py").is_file():
        print(f"error: no preproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    # one CPU for this process and its children, so that the reference
    # loop runs where the rounds it scales run
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    # byte-compile first, so that no timed set-up pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "preproj")],
        check=True,
        timeout=60,
    )
    try:
        if args.trace:
            run, values, detail = traced(args.workload, args.seed, deadline)
        else:
            run, values, detail = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": failed / attempted,
        "problems": run["problems"],
        **detail,
        "environment": env,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "result"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
