"""Smoke runs of the benchmark, each in its own process: a name the
benchmark calls that the package no longer has fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["decrypt-gf16", "attack-gf16", "attack-gf25"])
def test_one_second_run(tmp_path, workload):
    """One second of the workload: every output checked correct and no
    operation failed.  It writes its result files under tmp_path."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0


def test_one_second_traced_run(tmp_path):
    """One second of attack-gf16 under the tracer: correct, no operation
    failed, and every per-layer metric that BENCHMARK.json declares is
    reported, so a traced function that was renamed or re-signed fails here."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "attack-gf16", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []
