"""Smoke runs of the benchmark, each in its own process: a name the
benchmark calls that the package no longer has fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["decrypt-gf16", "attack-gf16"])
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
