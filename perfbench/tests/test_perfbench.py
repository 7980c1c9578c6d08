"""Tests of the benchmark itself, on the small ``smoke`` workload.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import make_golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["smoke"])
def test_generator_is_deterministic_per_seed(workload):
    first = [(j.name, j.input) for j in workloads.build(workload, 7)]
    again = [(j.name, j.input) for j in workloads.build(workload, 7)]
    other = [(j.name, j.input) for j in workloads.build(workload, 8)]
    assert first == again
    assert [name for name, _ in first] == [name for name, _ in other]


def test_seed_permutes_crossings_but_not_the_diagram():
    a = [j.input[0] for j in workloads.build("kh-span", 1)]
    b = [j.input[0] for j in workloads.build("kh-span", 2)]
    assert a != b
    assert [sorted(pd.crossings) for pd in a[:1]] == [sorted(pd.crossings) for pd in b[:1]]
    assert [(pd.n, pd.free_loops) for pd in a] == [(pd.n, pd.free_loops) for pd in b]


def test_golden_tables_match_the_direct_oracle_at_another_seed():
    assert make_golden.direct_tables(5) == workloads.GOLDEN


def test_printed_metric_names_match_benchmark_json():
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert workload_names <= set(workloads.WORKLOADS)
    code, untraced = _result("--workload", "smoke", "--seed", "3", "--seconds", "0.1",
                             "--trace", "0")
    assert code == 0 and untraced["correct"] and untraced["failed"] == 0
    assert {m: v["unit"] for m, v in untraced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    code, traced = _result("--workload", "smoke", "--seed", "3", "--seconds", "0.1",
                           "--trace", "1")
    assert code == 0 and traced["correct"]
    assert {m: v["unit"] for m, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(traced["metrics"]) == list(spans.PER_LAYER)


def test_traced_and_untraced_outputs_are_identical():
    jobs = workloads.build("smoke", 5)
    _, plain = run._run_pass(jobs)
    tracer = spans.Tracer()
    originals = (workloads.khovanov.split_by_quantum, workloads.totalization.tot)
    with tracer.installed():
        assert workloads.khovanov.split_by_quantum is not originals[0]
        _, traced = run._run_pass(jobs, tracer)
    assert (workloads.khovanov.split_by_quantum, workloads.totalization.tot) == originals
    assert all(err is None for _, err in plain + traced)
    assert [j.output(r) for j, (r, _) in zip(jobs, plain)] == \
        [j.output(r) for j, (r, _) in zip(jobs, traced)]
    names = {s.name for s in tracer.spans}
    assert {"khovanov.split_by_quantum", "totalization.tot", "totalization.dualize",
            "certificates.verify_certificate"} <= names
    metrics = tracer.metrics(0.0)
    assert 0.9 < metrics["trace.coverage"] <= 1.0 + 1e-9


def test_two_seeds_give_identical_outputs_and_counts():
    seen = []
    for seed in (1, 2):
        jobs = workloads.build("smoke", seed)
        tracer = spans.Tracer()
        with tracer.installed():
            _, results = run._run_pass(jobs, tracer)
        outputs, failures = run._check(jobs, [results])
        assert not failures
        seen.append((outputs, tracer.counts))
    assert seen[0] == seen[1]
    assert seen[0][1]["khovanov.generators"] > 0


def test_a_wrong_output_fails_the_job_and_the_run(monkeypatch, capsys):
    def with_bad_job(rng):
        jobs = workloads._smoke(rng)
        jobs[0].expected = lambda: []
        return jobs

    monkeypatch.setitem(workloads.WORKLOADS, "smoke", with_bad_job)
    code = run.main(["--workload", "smoke", "--seed", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 10


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kh-span",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
