"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q benchmark/test_smoke.py

Every workload, end to end and traced, must print every metric that
BENCHMARK.json names, with its unit, fail no job, and catch a corrupted
reference.  Without the torsionlab sources beside it the benchmark must
exit nonzero and print no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd, workload, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0.3",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert info["failed_frac"] == 0
    assert info["corrupted_reference_caught"] and all(info["corrupted_reference_caught"].values())
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_program():
    stripped = os.path.join(ROOT, ".bench_work", "smoke-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(stripped, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
