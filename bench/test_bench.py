"""Self-tests of the benchmark (not part of the repo's Tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Each traced run takes one untraced and one traced round, so the whole file
takes a few minutes; `-k gamp-sim` picks one workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_work" / "results"
WORKLOADS = ("curve-mc", "sweep-gh", "gamp-sim", "erm-ref")


def _traced_record(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return json.loads((RESULTS / f"{workload}_seed{seed}_trace1.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats_and_self_times_add_up(workload):
    first = _traced_record(workload, seed=3)
    second = _traced_record(workload, seed=3)
    assert first["fingerprint"] == second["fingerprint"]
    assert sum(first["fingerprint"].values()) > 0
    for record in (first, second):
        assert record["fingerprint_rounds_identical"]
        assert record["self_sum_error"] <= 0.01


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gamp-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
