"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs every workload at the tiny ``--quick`` size, untraced and traced,
and holds the printed names against ``BENCHMARK.json``.  Quick numbers
are never comparable; only names, units and the output shape are tested.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]


def _run(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *DECLARATION["command"][1:], *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_the_declared_metrics(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5",
                "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert any("quick" in line and workload in line for line in lines)
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    declared = DECLARATION["per_layer" if trace == "1" else "end_to_end"]
    assert list(report["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        # Every metric is also printed by name with its unit.
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)
    if trace == "0":
        assert all(entry["value"] > 0 for entry in report["metrics"].values())


def test_workload_names_are_the_declared_ones():
    done = _run(ROOT, "--workload", "no-such-workload")
    assert done.returncode != 0
    for workload in WORKLOADS:
        assert workload in done.stderr


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARATION["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
