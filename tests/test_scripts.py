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
