"""CLI workflows and the wire format: round trips, determinism, exit codes."""

import csv
import re

import numpy as np
import pytest

from grs_squarebreak import attack as atk
from grs_squarebreak import fileio, grs, scheme
from grs_squarebreak.cli import main
from grs_squarebreak.fileio import FileFormatError
from grs_squarebreak.gf import GF


FIELD_ARGS = ["--p", "2", "--m", "4", "--poly", "19"]


@pytest.fixture
def keydir(tmp_path):
    pub = tmp_path / "pub.key"
    sec = tmp_path / "sec.key"
    rc = main(
        ["keygen", *FIELD_ARGS, "--n", "15", "--k", "6", "--seed", "42",
         "--out-pub", str(pub), "--out-sec", str(sec)]
    )
    assert rc == 0
    return tmp_path, pub, sec


class TestFileFormat:
    def test_public_key_round_trip(self, keydir):
        _, pub, _ = keydir
        pk = fileio.load_public_key(pub)
        assert fileio.dumps(pk.field, pk.n, pk.k, {"Gpub": pk.g_pub}) == pub.read_text()

    def test_secret_key_round_trip(self, keydir, tmp_path):
        _, _, sec = keydir
        _pk, sk = fileio.load_secret_key(sec)
        again = tmp_path / "sec2.key"
        fileio.save_secret_key(again, sk)
        assert again.read_text() == sec.read_text()

    def test_secret_key_rederives_consistently(self, keydir):
        _, pub, sec = keydir
        pk_direct = fileio.load_public_key(pub)
        pk_derived, sk = fileio.load_secret_key(sec)
        assert np.array_equal(pk_direct.g_pub, pk_derived.g_pub)
        assert np.array_equal(sk.g_pub, pk_direct.g_pub)

    def test_vector_round_trip(self, tmp_path, gf16):
        v = np.array([3, 1, 4, 1, 5, 9], dtype=np.int64)
        path = tmp_path / "v.txt"
        fileio.save_vector(path, gf16, 15, 6, v)
        back = fileio.load_vector(path, 6, gf16)
        assert np.array_equal(back, v)
        pf = fileio.read_file(path)
        assert (pf.n, pf.k) == (15, 6)
        fileio.save_vector(tmp_path / "v2.txt", gf16, 15, 6, back)
        assert (tmp_path / "v2.txt").read_text() == path.read_text()

    def test_recovered_key_round_trip(self, tmp_path, gf16, rng):
        rk = atk.RecoveredKey(
            grs.random_params(gf16, 15, 6, rng),
            rng.integers(0, 16, 15),
            rng.integers(0, 16, 15),
            None,
        )
        path = tmp_path / "rk.txt"
        fileio.save_recovered_key(path, rk)
        back = fileio.load_recovered_key(path)
        assert back.grs == rk.grs
        assert np.array_equal(back.a0, rk.a0)
        assert np.array_equal(back.lam0, rk.lam0)
        path2 = tmp_path / "rk2.txt"
        fileio.save_recovered_key(path2, back)
        assert path2.read_text() == path.read_text()

    def test_truncated_file_rejected(self, keydir):
        tmp_path, pub, _ = keydir
        bad = tmp_path / "bad.key"
        bad.write_text("\n".join(pub.read_text().splitlines()[:5]) + "\n")
        with pytest.raises(FileFormatError):
            fileio.read_file(bad)

    def test_bad_magic_rejected(self, keydir):
        tmp_path, pub, _ = keydir
        bad = tmp_path / "bad.key"
        bad.write_text("something else\n" + pub.read_text())
        with pytest.raises(FileFormatError):
            fileio.read_file(bad)

    def test_out_of_range_entries_rejected(self, tmp_path):
        bad = tmp_path / "bad.key"
        bad.write_text(
            "grs-squarebreak v1\nfield p=2 m=4 poly=19\nn=2 k=1\n@vec 1 2\n1 99\n"
        )
        with pytest.raises(FileFormatError):
            fileio.read_file(bad)

    @pytest.mark.parametrize("shape", ["1000000000000 1000000000000", "6 3000000000"])
    def test_oversized_section_header_rejected(self, tmp_path, capsys, shape):
        """A section header is checked against the rows present before any
        array is allocated from it."""
        bad = tmp_path / "huge.key"
        bad.write_text(f"grs-squarebreak v1\nfield p=2 m=4 poly=19\nn=15 k=6\n@Gpub {shape}\n1 2\n")
        with pytest.raises(FileFormatError):
            fileio.read_file(bad)
        assert main(["distinguish", "--code", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("n,k", [(15, 0), (15, 15), (6, 9), (17, 6)],
                             ids=["k=0", "k=n", "k>n", "n>q"])
    def test_key_header_dimensions_bounded(self, tmp_path, capsys, rng, n, k):
        """A key needs 1 <= k < n <= q; its sections match its header, so
        only the header's dimensions are at fault."""
        bad = tmp_path / "dims.key"
        fileio.write_file(bad, GF(2, 4, 19), n, k, {"Gpub": rng.integers(0, 16, (k, n))})
        loaders = (fileio.load_public_key, fileio.load_secret_key, fileio.load_recovered_key)
        for load in loaders:
            with pytest.raises(FileFormatError, match="need 1 <= k < n <= q"):
                load(bad)
        assert fileio.read_file(bad).sections["Gpub"].shape == (k, n)
        assert main(["attack", "--pub", str(bad), "--out", str(tmp_path / "rk")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "target,section,at,copy_from",
        [
            ("sec", "S", 0, None),
            ("sec", "y", (0, 3), None),
            ("sec", "x", (0, 1), (0, 0)),
            ("rk", "x", (0, 1), (0, 0)),
            ("pub", "Gpub", 1, 0),
            ("code", "G", slice(None), None),
        ],
        ids=["S-zero-row", "y-zero", "x-repeated", "recovered-x-repeated", "Gpub-equal-rows",
             "G-all-zero"],
    )
    def test_impossible_key_material_exit_1(self, keydir, capsys, target, section, at, copy_from):
        """Sections that parse but that no key or code can have are refused
        by the loaders: the CLI prints an error line and exits 1.  The entry
        or row at ``at`` is zeroed, or overwritten by the one at copy_from."""
        tmp_path, pub, sec = keydir
        pk, sk = fileio.load_secret_key(sec)
        rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        fileio.save_recovered_key(tmp_path / "rk", rk)
        fileio.write_file(tmp_path / "code", pk.field, pk.n, pk.k, {"G": pk.g_pub})
        ct = tmp_path / "zero.ct"
        fileio.save_vector(ct, pk.field, pk.n, pk.k, np.zeros(pk.n, dtype=np.int64))
        path = {"sec": sec, "pub": pub, "rk": tmp_path / "rk", "code": tmp_path / "code"}[target]
        pf = fileio.read_file(path)
        a = pf.sections[section]
        a[at] = 0 if copy_from is None else a[copy_from]
        fileio.write_file(path, pf.field, pf.n, pf.k, pf.sections)
        argv = {
            "sec": ["decrypt", "--key", str(sec), "--ct", str(ct)],
            "rk": ["decrypt", "--recovered", str(path), "--pub", str(pub), "--ct", str(ct)],
            "pub": ["attack", "--pub", str(pub), "--out", str(tmp_path / "out")],
            "code": ["distinguish", "--code", str(path)],
        }[target]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,edit,message",
        [
            ("S", "drop", "missing section @S"),
            ("x", "shorten", "section @x has shape (1, 14), expected (1, 15)"),
            ("perm", "repeat", "@perm is not a permutation of 0..n-1"),
        ],
        ids=["missing", "mis-shaped", "perm-repeated"],
    )
    def test_secret_key_sections_checked(self, keydir, section, edit, message):
        """A secret key file with a section dropped, a section one entry
        short, or a repeated @perm entry is refused with the reason."""
        _, _, sec = keydir
        pf = fileio.read_file(sec)
        if edit == "drop":
            del pf.sections[section]
        elif edit == "shorten":
            pf.sections[section] = pf.sections[section][:, :-1]
        else:
            pf.sections[section][0, 1] = pf.sections[section][0, 0]
        fileio.write_file(sec, pf.field, pf.n, pf.k, pf.sections)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            fileio.load_secret_key(sec)

    def test_vector_file_without_vec_rejected(self, keydir):
        _, pub, _ = keydir
        with pytest.raises(FileFormatError, match="missing section @vec"):
            fileio.load_vector(pub, 15, GF(2, 4, 19))

    def test_code_file_without_generator_exit_1(self, tmp_path, gf16, capsys):
        """A code file holding neither @G nor @Gpub is refused, and
        distinguish exits 1 on it."""
        path = tmp_path / "code.txt"
        fileio.save_vector(path, gf16, 15, 6, np.zeros(15, dtype=np.int64))
        with pytest.raises(FileFormatError, match="no @G or @Gpub section found"):
            fileio.load_code_matrix(fileio.read_file(path))
        assert main(["distinguish", "--code", str(path)]) == 1
        assert "error: no @G or @Gpub section found" in capsys.readouterr().err

    def test_tampered_secret_rejected(self, keydir):
        tmp_path, _, sec = keydir
        lines = sec.read_text().splitlines()
        # corrupt one Gpub entry so it no longer matches the key material
        hdr = lines.index("@Gpub 6 15")
        row = lines[hdr + 1].split()
        row[0] = str((int(row[0]) + 1) % 16)
        lines[hdr + 1] = " ".join(row)
        bad = tmp_path / "tampered.key"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            fileio.load_secret_key(bad)


class TestCliWorkflows:
    def test_keygen_deterministic(self, tmp_path):
        args = ["keygen", *FIELD_ARGS, "--n", "15", "--k", "6", "--seed", "42"]
        a_pub, a_sec = tmp_path / "a.pub", tmp_path / "a.sec"
        b_pub, b_sec = tmp_path / "b.pub", tmp_path / "b.sec"
        assert main(args + ["--out-pub", str(a_pub), "--out-sec", str(a_sec)]) == 0
        assert main(args + ["--out-pub", str(b_pub), "--out-sec", str(b_sec)]) == 0
        assert a_pub.read_bytes() == b_pub.read_bytes()
        assert a_sec.read_bytes() == b_sec.read_bytes()

    def test_keygen_diagnoses_branch(self, tmp_path, capsys):
        main(
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "6", "--seed", "1",
             "--out-pub", str(tmp_path / "p"), "--out-sec", str(tmp_path / "s")]
        )
        assert "branch: low-rate" in capsys.readouterr().out
        main(
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "9", "--seed", "1",
             "--out-pub", str(tmp_path / "p9"), "--out-sec", str(tmp_path / "s9")]
        )
        assert "branch: high-rate-dual" in capsys.readouterr().out
        main(
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "8", "--seed", "1",
             "--out-pub", str(tmp_path / "p8"), "--out-sec", str(tmp_path / "s8")]
        )
        assert "dead interval" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "k,reason", [(4, "needs k >= 6, got k=4"), (11, "needs n-k >= 6, got n-k=4")]
    )
    def test_attacked_dimension_below_six_is_not_the_dead_interval(
        self, tmp_path, capsys, k, reason
    ):
        """At (15, 4) and (15, 11) the attacked code (the public code, or its
        dual) has fewer than 6 dimensions; keygen and attack give that reason,
        not the dead interval, and attack exits 3."""
        pub = tmp_path / "p"
        main(["keygen", *FIELD_ARGS, "--n", "15", "--k", str(k), "--seed", "1",
              "--out-pub", str(pub), "--out-sec", str(tmp_path / "s")])
        out = capsys.readouterr().out
        assert "branch: none -- the rank test" in out and reason in out
        assert "dead interval" not in out
        assert main(["attack", "--pub", str(pub), "--out", str(tmp_path / "rk")]) == 3
        err = capsys.readouterr().err
        assert reason in err and "dead interval" not in err

    def test_keygen_invalid_dims_exit_1(self, tmp_path):
        rc = main(
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "15", "--seed", "1",
             "--out-pub", str(tmp_path / "p"), "--out-sec", str(tmp_path / "s")]
        )
        assert rc == 1

    def test_usage_error_exit_1(self):
        assert main(["keygen", "--p", "2"]) == 1
        assert main(["no-such-command"]) == 1

    def test_encrypt_decrypt_round_trip(self, keydir):
        tmp_path, pub, sec = keydir
        pk = fileio.load_public_key(pub)
        msg = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
        fileio.save_vector(tmp_path / "m.txt", pk.field, pk.n, pk.k, msg)
        assert main(
            ["encrypt", "--key", str(pub), "--msg", str(tmp_path / "m.txt"),
             "--out", str(tmp_path / "c.txt"), "--seed", "9"]
        ) == 0
        assert main(
            ["decrypt", "--key", str(sec), "--ct", str(tmp_path / "c.txt"),
             "--out", str(tmp_path / "out.txt")]
        ) == 0
        back = fileio.load_vector(tmp_path / "out.txt", 6, pk.field)
        assert np.array_equal(back, msg)

    def test_encrypt_and_decrypt_write_stdout_without_out(self, keydir, capsys):
        """Without --out, encrypt and decrypt print the file that --out
        would have written."""
        tmp_path, pub, sec = keydir
        pk = fileio.load_public_key(pub)
        msg, ct = tmp_path / "m.txt", tmp_path / "c.txt"
        fileio.save_vector(msg, pk.field, pk.n, pk.k, np.array([1, 2, 3, 4, 5, 6]))
        assert main(["encrypt", "--key", str(pub), "--msg", str(msg), "--out", str(ct),
                     "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["encrypt", "--key", str(pub), "--msg", str(msg), "--seed", "9"]) == 0
        assert capsys.readouterr().out == ct.read_text()
        assert main(["decrypt", "--key", str(sec), "--ct", str(ct)]) == 0
        assert capsys.readouterr().out == msg.read_text()

    @pytest.mark.parametrize(
        "route,message",
        [(["--recovered", "rk.txt"], "--recovered needs --pub"), ([], "need --key")],
        ids=["recovered-without-pub", "no-key"],
    )
    def test_decrypt_without_a_key_is_usage_error(self, tmp_path, capsys, route, message):
        """decrypt needs --key, or --recovered with --pub: it exits 1 before
        reading any file."""
        assert main(["decrypt", *route, "--ct", str(tmp_path / "c.txt")]) == 1
        assert message in capsys.readouterr().err

    def test_zero_message_round_trip(self, keydir):
        tmp_path, pub, sec = keydir
        pk = fileio.load_public_key(pub)
        fileio.save_vector(tmp_path / "z.txt", pk.field, pk.n, pk.k, np.zeros(6, dtype=np.int64))
        main(["encrypt", "--key", str(pub), "--msg", str(tmp_path / "z.txt"),
              "--out", str(tmp_path / "zc.txt")])
        main(["decrypt", "--key", str(sec), "--ct", str(tmp_path / "zc.txt"),
              "--out", str(tmp_path / "zo.txt")])
        back = fileio.load_vector(tmp_path / "zo.txt", 6, pk.field)
        assert not back.any()

    def test_decrypt_failure_exit_2(self, keydir, capsys):
        """A random vector decrypts under neither route: both exit 2."""
        tmp_path, pub, sec = keydir
        pk, sk = fileio.load_secret_key(sec)
        rk = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        fileio.save_recovered_key(tmp_path / "rk.txt", rk)
        ct = tmp_path / "rand.ct"
        fileio.save_vector(ct, pk.field, pk.n, pk.k, np.random.default_rng(5).integers(0, 16, 15))
        assert main(["decrypt", "--key", str(sec), "--ct", str(ct)]) == 2
        assert main(["decrypt", "--recovered", str(tmp_path / "rk.txt"), "--pub", str(pub),
                     "--ct", str(ct)]) == 2
        assert capsys.readouterr().err.count("decryption failed:") == 2

    def test_decrypt_notes_tie(self, tmp_path, capsys):
        """Ciphertext 6 of the dual campaign's first key (keygen seed 3020,
        n=15 k=9) lies at distance t=3 from the public codewords of two
        plaintexts: both routes write the canonical choice, exit 0 and say
        on stderr that the ciphertext is ambiguous."""
        pub, sec = tmp_path / "p9", tmp_path / "s9"
        main(["keygen", *FIELD_ARGS, "--n", "15", "--k", "9", "--seed", "3020",
              "--out-pub", str(pub), "--out-sec", str(sec)])
        pk, sk = fileio.load_secret_key(sec)
        rk = tmp_path / "rk9"
        fileio.save_recovered_key(
            rk, atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None))
        ct, out = tmp_path / "tie.ct", tmp_path / "tie.out"
        fileio.save_vector(ct, pk.field, pk.n, pk.k,
                           np.array([14, 2, 9, 4, 14, 10, 6, 0, 5, 1, 8, 9, 15, 13, 12]))
        capsys.readouterr()
        for route in (["--key", str(sec)], ["--recovered", str(rk), "--pub", str(pub)]):
            assert main(["decrypt", *route, "--ct", str(ct), "--out", str(out)]) == 0
            assert "2 plaintexts lie within distance t=3" in capsys.readouterr().err
            back = fileio.load_vector(out, 9, pk.field)
            assert back.tolist() == [4, 7, 15, 10, 14, 7, 12, 12, 4]  # sent: [6, 4, 11, ...]

    def test_decrypt_refuses_a_pair_that_misses_the_public_code(self, tmp_path, capsys):
        """A recovered-key file whose pair (lam0 = 0) does not carry the
        hidden code onto the public code makes decrypt --recovered exit 2
        with the reason on stderr."""
        pub, sec = tmp_path / "p9", tmp_path / "s9"
        main(["keygen", *FIELD_ARGS, "--n", "15", "--k", "9", "--seed", "42",
              "--out-pub", str(pub), "--out-sec", str(sec)])
        pk, sk = fileio.load_secret_key(sec)
        rk = tmp_path / "rk9"
        fileio.save_recovered_key(rk, atk.RecoveredKey(
            scheme.masked_params(sk), sk.a, np.zeros_like(sk.lam), None))
        ct = tmp_path / "c.ct"
        fileio.save_vector(ct, pk.field, pk.n, pk.k,
                           scheme.encrypt(pk, np.arange(9), np.random.default_rng(1)))
        capsys.readouterr()
        assert main(["decrypt", "--recovered", str(rk), "--pub", str(pub), "--ct", str(ct)]) == 2
        err = capsys.readouterr().err
        assert "does not carry the recovered code into C_pub" in err

    @pytest.mark.parametrize(
        "field,n,k", [((2, 4, 19), 10, 6), ((2, 4, 19), 15, 5), ((17,), 15, 6)],
        ids=["length", "dimension", "field"],
    )
    def test_recovered_key_must_match_public_key(self, keydir, capsys, field, n, k):
        """A recovered key of another length, dimension or field than the
        public key exits 1 with an error line, not a traceback."""
        tmp_path, pub, _ = keydir
        f = GF(*field)
        zeros = np.zeros(n, dtype=np.int64)
        rk = atk.RecoveredKey(grs.random_params(f, n, k, np.random.default_rng(3)), zeros, zeros, None)
        fileio.save_recovered_key(tmp_path / "rk.txt", rk)
        ct = tmp_path / "zero.ct"
        fileio.save_vector(ct, GF(2, 4, 19), 15, 6, np.zeros(15, dtype=np.int64))
        assert main(["decrypt", "--recovered", str(tmp_path / "rk.txt"), "--pub", str(pub),
                     "--ct", str(ct)]) == 1
        assert "error: recovered key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_vector_over_another_field_exit_1(self, keydir, capsys, command):
        """A message or ciphertext file over GF(256) is refused against a
        GF(16) key, although its entry 200 is a valid element of its field."""
        tmp_path, pub, sec = keydir
        length = 6 if command == "encrypt" else 15
        vec = tmp_path / "vec.txt"
        v = np.zeros(length, dtype=np.int64)
        v[0] = 200
        fileio.save_vector(vec, GF(2, 8, 285), 15, 6, v)
        if command == "encrypt":
            argv = ["encrypt", "--key", str(pub), "--msg", str(vec)]
        else:
            argv = ["decrypt", "--key", str(sec), "--ct", str(vec)]
        assert main(argv) == 1
        assert "error: @vec is over GF(256, poly=285), expected GF(16, poly=19)" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "6", "--out-pub", "p", "--out-sec", "s",
             "--seed", "-1"],
            ["encrypt", "--key", "k", "--msg", "m", "--seed", "-1"],
            ["attack", "--pub", "p", "--out", "o", "--seed", "-1"],
            ["attack", "--pub", "p", "--out", "o", "--verify-count", "-1"],
            ["attack", "--pub", "p", "--out", "o", "--trials", "-5"],
            ["attack", "--pub", "p", "--out", "o", "--trials", "0"],
            ["bench", *FIELD_ARGS, "--n", "15", "--k", "6", "--seed", "-1"],
            ["bench", *FIELD_ARGS, "--n", "15", "--k", "6", "--reps", "-1"],
            ["bench", *FIELD_ARGS, "--n", "15", "--k", "6", "--trials", "0"],
        ],
        ids=["keygen-seed", "encrypt-seed", "attack-seed", "attack-verify-count",
             "attack-trials", "attack-trials-zero", "bench-seed", "bench-reps", "bench-trials"],
    )
    def test_out_of_range_count_is_usage_error(self, argv, capsys):
        """Seeds and counts below their range are refused by the parser with
        exit 1, before any file is read or any work is done."""
        assert main(argv) == 1
        assert "must be at least" in capsys.readouterr().err

    def test_truncated_ciphertext_exit_1(self, keydir):
        tmp_path, _, sec = keydir
        bad = tmp_path / "bad.ct"
        bad.write_text("grs-squarebreak v1\nfield p=2 m=4 poly=19\nn=15 k=6\n@vec 1 15\n1 2\n")
        assert main(["decrypt", "--key", str(sec), "--ct", str(bad)]) == 1

    def test_distinguish_grs_code(self, tmp_path, gf16, rng, capsys):
        p = grs.random_params(gf16, 15, 6, rng)
        fileio.write_file(tmp_path / "code.txt", gf16, 15, 6, {"G": p.generator})
        assert main(["distinguish", "--code", str(tmp_path / "code.txt")]) == 0
        out = capsys.readouterr().out
        assert "square_dim=11 generic_dim=15 verdict=NonGeneric" in out

    def test_distinguish_reports_the_dual_above_half_rate(self, tmp_path, gf16, rng, capsys):
        """At k > n/2 the square of a GRS code saturates at n; the dual's
        square carries the signal."""
        p = grs.random_params(gf16, 15, 9, rng)
        fileio.write_file(tmp_path / "code.txt", gf16, 15, 9, {"G": p.generator})
        assert main(["distinguish", "--code", str(tmp_path / "code.txt")]) == 0
        assert capsys.readouterr().out == (
            "square_dim=15 generic_dim=15 verdict=Generic"
            " dual_square_dim=11 dual_generic_dim=15 dual_verdict=NonGeneric\n"
        )

    def test_distinguish_random_code(self, tmp_path, gf16, rng, capsys):
        from grs_squarebreak.codes import random_code

        c = random_code(gf16, 6, 15, rng)
        fileio.write_file(tmp_path / "code.txt", gf16, c.n, c.k, {"G": c.gen})
        main(["distinguish", "--code", str(tmp_path / "code.txt")])
        assert "verdict=Generic" in capsys.readouterr().out

    def test_attack_exit_codes(self, keydir, tmp_path):
        _, pub, _ = keydir
        rc = main(["attack", "--pub", str(pub), "--out", str(tmp_path / "rk"), "--trials", "3"])
        assert rc == 4

    def test_attack_verify_counts_ties(self, tmp_path, monkeypatch, capsys):
        """At the dual point (15, 9) some weight-t ciphertexts are genuinely
        tied; --verify-sec counts them apart and exits 0, while a wrong key
        still exits 2.  The attack is replaced by the true masking pair read
        off the secret key, which decrypt_with_pair accepts like a recovered
        one; verify seed 2 draws ties at ciphertexts 7 and 19 of 20."""
        pub, sec = tmp_path / "p9", tmp_path / "s9"
        main(["keygen", *FIELD_ARGS, "--n", "15", "--k", "9", "--seed", "42",
              "--out-pub", str(pub), "--out-sec", str(sec)])
        _, sk = fileio.load_secret_key(sec)
        true_key = atk.RecoveredKey(scheme.masked_params(sk), sk.a, sk.lam, None)
        wrong_key = atk.RecoveredKey(true_key.grs, sk.a, np.zeros_like(sk.lam), None)
        argv = ["attack", "--pub", str(pub), "--out", str(tmp_path / "rk9"), "--seed", "2",
                "--verify-sec", str(sec), "--verify-count", "20"]
        stats = atk.AttackStats(branch=atk.Branch.HIGH_RATE_DUAL)
        monkeypatch.setattr(atk, "recover_key", lambda pk, cfg: (true_key, stats))
        assert main(argv) == 0
        assert "verify: 18/20 correct, 2 tied at distance t" in capsys.readouterr().out
        monkeypatch.setattr(atk, "recover_key", lambda pk, cfg: (wrong_key, stats))
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "field,n,k", [((2, 5, 37), 20, 8), ((2, 4, 19), 15, 9)], ids=["field-length", "dimension"]
    )
    def test_attack_verify_key_must_match_public_key(self, keydir, capsys, field, n, k):
        """A --verify-sec key over another field, length or dimension than
        the public key exits 1 with an error line, as decrypt --recovered
        does, instead of a traceback or a verify count of 0."""
        tmp_path, pub, _ = keydir
        other = tmp_path / "other.sec"
        main(["keygen", "--p", str(field[0]), "--m", str(field[1]), "--poly", str(field[2]),
              "--n", str(n), "--k", str(k), "--seed", "1",
              "--out-pub", str(tmp_path / "other.pub"), "--out-sec", str(other)])
        capsys.readouterr()
        assert main(["attack", "--pub", str(pub), "--out", str(tmp_path / "rk"),
                     "--verify-sec", str(other), "--verify-count", "3"]) == 1
        assert "error: secret key" in capsys.readouterr().err

    def test_attack_dead_interval_exit_3(self, tmp_path):
        main(
            ["keygen", *FIELD_ARGS, "--n", "15", "--k", "7", "--seed", "2",
             "--out-pub", str(tmp_path / "p7"), "--out-sec", str(tmp_path / "s7")]
        )
        rc = main(["attack", "--pub", str(tmp_path / "p7"), "--out", str(tmp_path / "rk7")])
        assert rc == 3

    def test_attack_non_grs_code_with_a_grs_square_exit_3(self, tmp_path, capsys):
        """A public code whose square has dimension 2k-1 but which is not GRS
        (a GRS generator with column 3 zeroed) exits 3 with the reason
        instead of a traceback."""
        f = GF(2, 4, 19)
        g = np.array(grs.random_params(f, 15, 6, np.random.default_rng(0)).generator)
        g[:, 3] = 0
        pub = tmp_path / "zeroed.pub"
        fileio.save_public_key(pub, scheme.PublicKey(f, 15, 6, g))
        assert main(["attack", "--pub", str(pub), "--out", str(tmp_path / "rk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("attack not applicable: public code squares like a GRS code")

    def test_bench_empty_grid(self, capsys):
        rc = main(["bench", *FIELD_ARGS, "--n", "15", "--k", "", "--reps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_trials" in out  # header only, no rows

    def test_bench_grid(self, tmp_path, capsys):
        """Two seeded replicas at each of (15, 6) and (15, 9) all succeed,
        with pinned mean outer trials."""
        csv_path = tmp_path / "bench.csv"
        rc = main(["bench", *FIELD_ARGS, "--n", "15", "--k", "6,9", "--reps", "2", "--seed", "1",
                   "--csv", str(csv_path)])
        assert rc == 0
        assert f"csv written to {csv_path}" in capsys.readouterr().out
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert [(r["k"], r["ok"], r["mean_trials"]) for r in rows] == [
            ("6", "2", "2237.5"), ("9", "2", "11598.5")
        ]
