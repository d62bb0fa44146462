"""The text format on arbitrary input: every file parses or is refused with
a format or field error, and whatever parses writes back unchanged."""

import hashlib
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs_squarebreak import fileio, scheme
from grs_squarebreak.fileio import FileFormatError
from grs_squarebreak.gf import GF, FieldError

FIELDS = [GF(2), GF(7), GF(2, 4, 19), GF(3, 2, 10)]

# Small values hit the checks' edges; huge ones overflow int64 and sizes.
numbers = st.one_of(st.integers(-2, 20), st.integers(-(2**70), 2**70))
sizes = st.one_of(st.integers(-1, 4), st.sampled_from([2**31, 2**62, 2**63, 10**30]))
tokens = st.one_of(numbers.map(str), st.text(max_size=3))


@st.composite
def near_files(draw):
    """Header and section lines built from plausible and broken tokens, so
    that many inputs get past the header to the section parser."""
    lines = [draw(st.sampled_from([fileio.MAGIC, fileio.MAGIC, "grs-squarebreak v2"]))]
    valid = st.sampled_from([(f.p, f.m, f.modulus) for f in FIELDS])
    p, m, poly = draw(st.one_of(valid, st.tuples(numbers, numbers, numbers)))
    lines.append(f"field p={p} m={m} poly={poly}")
    lines.append(f"n={draw(numbers)} k={draw(numbers)}")
    for _ in range(draw(st.integers(0, 3))):
        rows, cols = draw(sizes), draw(sizes)
        lines.append(f"@{draw(st.sampled_from(['G', 'vec', 'perp', 'G']))} {rows} {cols}")
        for _ in range(draw(st.integers(0, 4))):
            lines.append(" ".join(draw(st.lists(tokens, max_size=5))))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.text(max_size=8)))
    return "\n".join(lines)


def assert_same(a: fileio.ParsedFile, b: fileio.ParsedFile) -> None:
    assert (a.field, a.n, a.k) == (b.field, b.n, b.k)
    assert list(a.sections) == list(b.sections)
    for name, arr in a.sections.items():
        assert arr.shape == b.sections[name].shape
        assert np.array_equal(arr, b.sections[name])


def parses_or_refuses(text: str) -> None:
    try:
        pf = fileio.loads(text)
    except (FileFormatError, FieldError):
        return
    assert_same(pf, fileio.loads(fileio.dumps(pf.field, pf.n, pf.k, pf.sections)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=200), near_files()))
def test_loads_parses_or_refuses(text):
    parses_or_refuses(text)


@st.composite
def well_formed(draw):
    f = draw(st.sampled_from(FIELDS))
    sections = {}
    for name in draw(st.lists(st.sampled_from(["Gpub", "x", "vec", "perm"]), unique=True)):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
        sections[name] = np.array(
            draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows)),
            dtype=np.int64,
        ).reshape(rows, cols)
    return f, draw(st.integers(0, 20)), draw(st.integers(0, 20)), sections


@settings(max_examples=100, deadline=None, derandomize=True)
@given(well_formed())
def test_dumps_then_loads_round_trips(case):
    f, n, k, sections = case
    assert_same(fileio.loads(fileio.dumps(f, n, k, sections)), fileio.ParsedFile(f, n, k, sections))


HEADER = f"{fileio.MAGIC}\nfield p=2 m=4 poly=19\nn=3 k=1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (f"{fileio.MAGIC}\nfield q=2 m=4 poly=19\nn=3 k=1\n", "expected 'p=<int>', got 'q=2'"),
        (f"{fileio.MAGIC}\nfield p=2 m=4 poly=19\nn=3 k=one\n", "bad integer in 'k=one'"),
        (HEADER + "1 2 3\n", "expected a section header, got '1 2 3'"),
        (HEADER + "@vec 1\n", "bad section header '@vec 1'"),
        (HEADER + "@vec 1 3\n1 2 3\n@vec 1 3\n1 2 3\n", "duplicate section @vec"),
        (HEADER + "@vec one 3\n1 2 3\n", "bad section shape in '@vec one 3'"),
        (HEADER + "@vec -1 3\n", "bad section shape in '@vec -1 3'"),
        (HEADER + "@vec 1 3\n1 x 3\n", "non-integer entry in section @vec"),
        (HEADER + "@vec 1 3\n1 9223372036854775808 3\n",
         "section @vec has an entry or shape out of range"),
        (HEADER + "@vec 1 3\n1 2\n", "section @vec row 0 has 2 entries, expected 3"),
        (HEADER + "@vec 1 3\n1 16 3\n", "section @vec has entries outside [0, 16)"),
    ],
    ids=["header-key", "header-int", "no-section-header", "section-header", "duplicate",
         "shape-int", "shape-negative", "entry", "entry-int64", "row-length", "entry-field"],
)
def test_loads_refusals(text, message):
    """Each malformed line is refused by name, with the offending token."""
    with pytest.raises(FileFormatError, match=re.escape(message)):
        fileio.loads(text)


def test_key_files_are_pinned(tmp_path):
    """The public and secret key files of the 770 keys of
    ``attack_digest.py --keygen``, hashed: a change to the writer that
    moves a byte of them moves the hash."""
    digest = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "attack_digest.py"))
    h = hashlib.sha256()
    for field, n, k in digest["KEYGEN_POINTS"]:
        f = GF(*field)
        for seed in digest["KEYGEN_SEEDS"]:
            pk, sk = scheme.keygen(f, n, k, np.random.default_rng(seed))
            fileio.save_public_key(tmp_path / "pub", pk)
            fileio.save_secret_key(tmp_path / "sec", sk)
            h.update((tmp_path / "pub").read_bytes())
            h.update((tmp_path / "sec").read_bytes())
    assert h.hexdigest() == "d331ba3991173f5ebeed9f715e62f1a3a598184f3e48b081d6be291423c80baa"
