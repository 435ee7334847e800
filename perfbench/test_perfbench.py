"""Tests of the benchmark itself: oracles, references, verdict pins, determinism.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from preproj.e6 import build_pe6, build_re6  # noqa: E402
from preproj.quotient import build_quotient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


# -- build: Hilbert-series oracle ----------------------------------------------


@pytest.mark.parametrize("name, n, edges, h", wl.DYNKIN, ids=[d[0] for d in wl.DYNKIN])
def test_oracle_matches_the_engine_per_vertex_pair(name, n, edges, h):
    layers = wl.hilbert_oracle(n, edges)
    assert (sum(sum(map(sum, layer)) for layer in layers), len(layers)) == {
        "E6": (156, 11),
        "D8": (280, 13),
    }[name]
    quiver, relations = wl.dynkin_preprojective(name, n, edges)
    algebra = build_quotient(quiver, relations, name=name)
    assert wl.shape_failure(n, edges, h, wl.algebra_shape(algebra)) is None
    assert wl.NILPOTENCY[name] == algebra.nilpotency_degree == h - 1


def test_oracle_rejects_a_dropped_or_added_basis_element():
    name, n, edges, h = wl.DYNKIN[0]
    layers = wl.hilbert_oracle(n, edges)
    counts = {
        (d, s, t): layer[s][t]
        for d, layer in enumerate(layers)
        for s in range(n)
        for t in range(n)
        if layer[s][t]
    }
    assert wl.shape_failure(n, edges, h, (counts, h - 1, 156)) is None
    dropped = {**counts, (4, 3, 3): counts[(4, 3, 3)] - 1}
    assert "(4, 3, 3)" in wl.shape_failure(n, edges, h, (dropped, h - 1, 155))
    added = {**counts, (11, 0, 0): 1}
    assert wl.shape_failure(n, edges, h, (added, h - 1, 157)) is not None
    assert "nilpotency" in wl.shape_failure(n, edges, h, (counts, h, 156))


def test_nilpotency_table_matches_the_builtin_algebras():
    assert wl.NILPOTENCY["E6"] == build_pe6().nilpotency_degree
    assert wl.NILPOTENCY["L2"] == build_re6().nilpotency_degree


# -- reduce: structure-constant reference --------------------------------------


def test_reduce_queries_are_seeded():
    first = [wl.expression_text(e) for _, e in islice(wl.reduce_queries(7), 80)]
    again = [wl.expression_text(e) for _, e in islice(wl.reduce_queries(7), 80)]
    other = [wl.expression_text(e) for _, e in islice(wl.reduce_queries(8), 80)]
    assert first == again != other
    tails = [text for k, text in enumerate(first) if k % 8 == 7]
    assert all(text.endswith(("^8", "^12")) for text in tails)


def test_reduce_reference_agrees_with_the_cli():
    reduce = wl.Reduce()
    for query in islice(reduce.rounds(11), 40):
        output = reduce.run(query)
        assert reduce.check(query, output) == (0, None), wl.expression_text(query[1])


def test_reduce_reference_rejects_a_wrong_normal_form():
    reduce = wl.Reduce()
    query = next(q for q in reduce.rounds(3) if q[0] == "pe6" and "^" not in q[2][-1])
    code, text, err = reduce.run(query)
    doc = json.loads(text)
    wrong = dict(doc, normal_form=doc["normal_form"] + " + 2*a0")
    assert reduce.check(query, (code, json.dumps(wrong), err))[0] == 1
    assert reduce.check(query, (2, "", "error: bad input"))[0] == 1


# -- verify and sample: pinned verdicts ----------------------------------------


def _report(statuses, status="pass"):
    checks = [{"name": f"c{k}", "status": s} for k, s in enumerate(statuses)]
    return json.dumps({"checks": checks, "status": status})


def test_verdict_pins():
    assert wl.verdict_failures(0, _report(["pass"] * 3), 3) == (0, None)
    assert wl.verdict_failures(1, _report(["pass", "fail", "pass"], "fail"), 3)[0] == 1
    # vacuous, shortened, inconsistent or missing reports fail every expected check
    assert wl.verdict_failures(0, _report([]), 3)[0] == 3
    assert wl.verdict_failures(0, _report(["pass"] * 2), 3)[0] == 3
    assert wl.verdict_failures(0, _report(["pass", "fail", "pass"], "fail"), 3)[0] == 3
    assert wl.verdict_failures(1, _report(["pass"] * 3), 3)[0] == 3
    assert wl.verdict_failures(2, "", 3)[0] == 3


def test_a_vacuous_sample_counts_every_trial_as_failed():
    code, text, _ = wl._call(["sample", "--seed", "1", "--trials", "0", "--json"])
    assert wl.verdict_failures(code, text, wl.Sample.trials)[0] == wl.Sample.trials


# -- harness ---------------------------------------------------------------------


def _counts(layers):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v for k, v in layers.items() if units.get(k) == "count"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_for_one_seed(workload, tmp_path):
    runs = []
    for _ in range(2):
        proc = _run(HERE / "worker.py", "pass", workload, 5, tmp_path, "--trace")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failed"] == 0, result["problems"]
        runs.append(_counts(result["layers"]))
    assert runs[0] == runs[1]
    assert runs[0]["quotient.table_entries"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    proc = _run(HERE / "run.py", "--workload", "reduce", "--seed", 4, "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert {"python", "nproc", "git_revision"} <= set(record["environment"])
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        # each round is scaled by the reference loop on either side of it
        assert len(record["round_wall_s"]) == len(record["round_reference_s"]) == record["rounds"]
        assert len(record["calibrations_s"]) >= 2
        assert len(record["setup_reference_s"]) == 3


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "verify", "--seed", 1, "--seconds", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(name.match(m["name"]) and unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
