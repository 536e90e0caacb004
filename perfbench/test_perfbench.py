"""Smoke-scale self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload for one second, untraced and traced, and checks that
every metric BENCHMARK.json names is printed with its unit, that no op
fails, and that a traced run's exact counts repeat across interpreters.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
EXACT = (
    "lab.attempts",
    "linalg.rref_calls",
    "linalg.rref_cells",
    "homology.cover_calls",
    "algebra.table_cells",
)


def bench(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, proc, wanted):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert f"\n{m['name']} " in proc.stdout, m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_metric(workload):
    proc = bench(workload, 0)
    res = result(proc)
    check_metrics(res, proc, SPEC["end_to_end"])
    assert res["metrics"]["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_layer_metric_and_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    a, b = result(first), result(second)
    check_metrics(a, first, SPEC["per_layer"])
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(HERE, "results", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results"))
    proc = bench("ext-gf", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
