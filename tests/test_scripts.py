"""Smoke runs of the scripts in scripts/, in process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("k,branch", [(6, "low-rate"), (9, "high-rate-dual")])
def test_attack_demo(monkeypatch, capsys, k, branch):
    out = run_script("attack_demo.py", ["--k", str(k)], monkeypatch, capsys)
    assert f"attack: branch={branch}" in out
    assert "recovered hidden GRS code matches the secret one: True" in out
    assert "plaintext recovered!" in out


def test_square_dimensions(monkeypatch, capsys):
    out = run_script("square_dimensions.py", ["--reps", "4", "--seed", "3"], monkeypatch, capsys)
    assert out.count("(out of 4)") == 9
    assert "  GRS            11:4  (out of 4)" in out


def test_attack_digest(monkeypatch, capsys):
    out = run_script("attack_digest.py", ["--keys", "GF16"], monkeypatch, capsys)
    lines = out.splitlines()
    assert lines[0].startswith("GF16 (15, 6) 1000/2000: outer=1659 inner=12 restarts=120 key=")
    assert lines[1].startswith("GF16 (15, 9) 3020/4000: outer=2392 inner=24 restarts=178 key=")
    assert lines[2].startswith("GF16 (15, 6) 1001/2001: outer=4640 inner=43 restarts=309 key=")
    assert lines[3].startswith("digest of 3 keys: ")


def test_keygen_digest(monkeypatch, capsys):
    """Every output of 770 seeded keygens, pinned: a change that moves it
    generates different keys."""
    out = run_script("attack_digest.py", ["--keygen"], monkeypatch, capsys)
    assert out == (
        "keygen digest of 770 keys at 7 points: "
        "561ddbdedbe6a45cb9b91d3832bb51beed09e6ddafa360814d6371967a2a4846\n"
    )
