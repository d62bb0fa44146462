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
    """The counters and the recovered key of three seeded GF(16) attacks,
    pinned: a change that moves them samples or reconstructs differently."""
    out = run_script("attack_digest.py", ["--keys", "GF16"], monkeypatch, capsys)
    assert out == (
        "GF16 (15, 6) 1000/2000: outer=1659 inner=12 restarts=120 "
        "key=76f3c841b76daba7b73b3b051555519c53577d81ae6a341ee335e5bd579986ea\n"
        "GF16 (15, 9) 3020/4000: outer=2392 inner=24 restarts=178 "
        "key=4663b8a0b04de89187f545f502f38223d3c625a131458b1c93c606646d7615f4\n"
        "GF16 (15, 6) 1001/2001: outer=4640 inner=43 restarts=309 "
        "key=078e535a333ef5819b76153d3d8df99bb3d7cda1a24e3f3be85b33058d29ee7b\n"
        "digest of 3 keys: 11c7bc8e33e4fec5b71aed4692327ee3c80143a5f9d508b7b8516e33c261503a\n"
    )


def test_keygen_digest(monkeypatch, capsys):
    """Every output of 770 seeded keygens, pinned: a change that moves it
    generates different keys."""
    out = run_script("attack_digest.py", ["--keygen"], monkeypatch, capsys)
    assert out == (
        "keygen digest of 770 keys at 7 points: "
        "561ddbdedbe6a45cb9b91d3832bb51beed09e6ddafa360814d6371967a2a4846\n"
    )


def test_decode_digest(monkeypatch, capsys):
    """``decode_many`` on 2480 seeded words at 14 points, and both
    decryptors' candidate sets on 120 seeded ciphertexts, pinned: a change
    that moves it decodes or decrypts differently."""
    out = run_script("attack_digest.py", ["--decode"], monkeypatch, capsys)
    assert out == (
        "decode_many: 2480 words at 14 points\n"
        "GF16 (15, 6) 1000/2000: 40 ciphertexts, 0 tied\n"
        "GF16 (15, 9) 3020/4000: 40 ciphertexts, 5 tied\n"
        "GF25 (16, 6) 5002/6002: 40 ciphertexts, 0 tied\n"
        "decode digest: 5042a8a1d05742d3e79616d364aa5ee1faf1276a7b3ec7f5e769d4dcc8119ab3\n"
    )


def test_fields_digest(monkeypatch, capsys):
    """Both decryptors' candidate sets on 60 seeded ciphertexts over
    GF(27), GF(729) and GF(961), where the decoder's field sums take more
    than one integer round, pinned: a change that moves it decrypts
    differently over odd extension fields."""
    out = run_script("attack_digest.py", ["--fields"], monkeypatch, capsys)
    assert out == (
        "GF27 (26, 10): 20 ciphertexts, 0 tied\n"
        "GF729 (16, 6): 20 ciphertexts, 0 tied\n"
        "GF961 (20, 8): 20 ciphertexts, 0 tied\n"
        "fields digest: e859599525aaa2e927f9758bd19e76613cb3d0ee62f2a1b86da2f5d84f922156\n"
    )


def test_campaign_digest(monkeypatch, capsys):
    """The counters and recovered keys of the 5 benchmark keys and the 40
    acceptance-campaign keys, pinned by one sha256 over their lines."""
    out = run_script("attack_digest.py", ["--campaign"], monkeypatch, capsys)
    lines = out.splitlines()
    assert len(lines) == 46
    assert lines[-1] == (
        "digest of 45 keys: 297abeedf24f1d268de316d7aa91a5f73670114b9b0c1f4e73c371dc59b5e9de"
    )
