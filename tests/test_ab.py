"""Smoke run of the in-process A/B runner, scripts/ab.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_against_itself(tmp_path):
    """This tree against itself for two rounds of decrypt-gf16: one JSON
    line with a positive median ratio and its quartiles for every metric,
    the two p10s and p90s included."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "decrypt-gf16", "--rounds", "2", "--cts", "2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["workload"] == "decrypt-gf16" and result["rounds"] == 2
    assert set(result["metrics"]) == {"setup_s", "recover_key_s", "decrypt_ms", "decrypt_ms.p10",
                                      "decrypt_ms.p90", "decrypt_with_pair_ms",
                                      "decrypt_with_pair_ms.p10", "decrypt_with_pair_ms.p90"}
    for m in result["metrics"].values():
        assert 0 < m["ratio_q1"] <= m["ratio_median"] <= m["ratio_q3"]
        assert m["a_median"] > 0 and m["b_median"] > 0 and 0 <= m["b_lower"] <= 2


def test_small_point_against_itself(tmp_path):
    """One round of one ciphertext at each of the past-cap scale points
    GF(32) (31, 13) and (31, 12), the second with odd n-k: one JSON line
    naming the point, with both trees' median times for recover_secret_grs
    and both decryptions, p10s and p90s included."""
    for point in ("gf32-31-13", "gf32-31-12"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
             "--point", point, "--rounds", "1", "--cts", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["point"] == point and "workload" not in result
        assert (result["rounds"], result["cts"]) == (1, 1)
        assert set(result["metrics"]) == {"recover_secret_grs_s", "decrypt_ms", "decrypt_ms.p10",
                                          "decrypt_ms.p90", "decrypt_with_pair_ms",
                                          "decrypt_with_pair_ms.p10", "decrypt_with_pair_ms.p90"}
        for m in result["metrics"].values():
            assert m["a_median"] > 0 and m["b_median"] > 0
