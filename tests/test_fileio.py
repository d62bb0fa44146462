"""The text format on arbitrary input: every file parses or is refused with
a format or field error, and whatever parses writes back unchanged."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grs_squarebreak import fileio
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
