"""One benchmark child process: import, set up, run rounds, check, report.

    worker.py setup   <workload> <seed> <out-dir>
    worker.py measure <workload> <seed> <out-dir> --seconds S
    worker.py pass    <workload> <seed> <out-dir> [--trace]

``setup`` times the import and the first builds and stops.  ``measure``
then runs rounds in a closed loop, each call sent when the previous one
returned, until S seconds have passed.  ``pass`` runs the workload's fixed
traced unit of rounds once, with or without tracing, so that counters
repeat exactly.  The result is one JSON object on the last line of
standard output; it gives every timed interval also as its ``perf_counter``
span, so that the parent can take out the pauses in which it ran its
reference loop.  The package is imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> float:
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import preproj  # noqa: F401
    import preproj.cli  # noqa: F401
    import preproj.derivation  # noqa: F401

    elapsed = perf_counter() - start
    if not Path(preproj.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported preproj from {preproj.__file__}, not from {ROOT / 'src'}")
    return elapsed


def _run_rounds(workload, rounds, stop):
    """Time each round until ``stop(rounds_done, elapsed)``; check afterwards."""
    spans, checked = [], []
    start = perf_counter()
    for item in rounds:
        t0 = perf_counter()
        try:
            output, error = workload.run(item), None
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        spans.append((t0, perf_counter()))
        summary = None if error else workload.summarize(item, output)
        # drop the output before the next round, so rounds do not stack up
        # their memory (a build's tables are the largest)
        del output
        checked.append((item, summary, error))
        if stop(len(spans), perf_counter() - start):
            break
    return spans, checked


def _check_all(workload, checked):
    attempted = failed = 0
    problems = []
    for item, summary, error in checked:
        n = workload.operations(item)
        if error is None:
            bad, problem = workload.check(item, summary)
        else:
            # a round that raised fails every operation it held
            bad, problem = n, error
        attempted += n
        failed += bad
        if problem and len(problems) < 5:
            problems.append(problem)
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "pass"])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    import_s = _import_package()
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]()
    workload.setup()
    end = perf_counter()
    result = {"setup_s": end - start, "setup_span": (start, end), "import_s": import_s}

    if args.mode == "measure":
        spans, checked = _run_rounds(
            workload, workload.rounds(args.seed), lambda _, elapsed: elapsed >= args.seconds
        )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "pass":
        units = workload.trace_rounds
        spans, checked = _run_rounds(
            workload, islice(workload.rounds(args.seed), units), lambda done, _: done >= units
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer, import_s)
            args.out_dir.mkdir(exist_ok=True)
            tracer.write_spans(args.out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    if args.mode != "setup":
        attempted, failed, problems = _check_all(workload, checked)
        result.update(
            latencies_s=[t1 - t0 for t0, t1 in spans],
            round_spans=spans,
            attempted=attempted,
            failed=failed,
            problems=problems,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
