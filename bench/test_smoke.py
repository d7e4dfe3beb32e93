"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(name, trace):
    out = result(bench("--workload", name, "--seed", "0", "--seconds", "0.2",
                       "--trace", str(trace), "--toy"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in out["metrics"].items()}


def test_other_seed_changes_sparse_instance_and_master_seed():
    sparse = workloads.WORKLOADS["descent-sparse"]
    assert sparse.instance_text(0) != sparse.instance_text(7)
    assert sparse.master_seeds(0) != sparse.master_seeds(7)
    out = result(bench("--workload", "descent-sparse", "--seed", "7",
                       "--seconds", "0.2", "--toy"))
    assert out["correct"] is True and out["failed"] == 0


def test_queen_generators_match_the_color_instances():
    assert len(workloads.queen_edges(5, 5)) == 160
    assert len(workloads.queen_edges(11, 11)) == 1980


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "anneal-queen5", "--seconds", "0.2", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
