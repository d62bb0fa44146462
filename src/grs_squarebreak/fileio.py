"""Line-oriented text serialization for keys, ciphertexts and codes.

Every file starts with three header lines::

    grs-squarebreak v1
    field p=<p> m=<m> poly=<int>
    n=<n> k=<k>

followed by named sections, each ``@<name> <rows> <cols>`` and then the rows
as space-separated integer-encoded field elements.  The format is grep-able
and diff-able and round-trips bit-exactly.  ``dumps`` joins each row's
Python ints once; ``loads`` checks every row's length, then converts the
whole section with one ``np.array`` call, which parses its tokens as
``int`` does.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg, scheme
from .gf import GF
from .grs import GrsParams, InvalidParams, dimension_error

MAGIC = "grs-squarebreak v1"


class FileFormatError(ValueError):
    pass


@dataclass
class ParsedFile:
    field: GF
    n: int
    k: int
    sections: dict[str, np.ndarray]


def dumps(f: GF, n: int, k: int, sections: dict[str, np.ndarray]) -> str:
    lines = [MAGIC, f"field p={f.p} m={f.m} poly={f.modulus}", f"n={n} k={k}"]
    for name, arr in sections.items():
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        lines.append(f"@{name} {arr.shape[0]} {arr.shape[1]}")
        lines.extend(" ".join(map(str, row)) for row in arr.tolist())
    return "\n".join(lines) + "\n"


def write_file(path, f: GF, n: int, k: int, sections: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(f, n, k, sections))


def _kv(token: str, key: str) -> int:
    pre = key + "="
    if not token.startswith(pre):
        raise FileFormatError(f"expected '{key}=<int>', got {token!r}")
    try:
        return int(token[len(pre):])
    except ValueError as e:
        raise FileFormatError(f"bad integer in {token!r}") from e


def loads(text: str) -> ParsedFile:
    lines = text.splitlines()
    if len(lines) < 3:
        raise FileFormatError("truncated header")
    if lines[0].strip() != MAGIC:
        raise FileFormatError(f"bad magic line {lines[0]!r}")
    ft = lines[1].split()
    if len(ft) != 4 or ft[0] != "field":
        raise FileFormatError(f"bad field line {lines[1]!r}")
    p, m, poly = _kv(ft[1], "p"), _kv(ft[2], "m"), _kv(ft[3], "poly")
    nk = lines[2].split()
    if len(nk) != 2:
        raise FileFormatError(f"bad dimension line {lines[2]!r}")
    n, k = _kv(nk[0], "n"), _kv(nk[1], "k")
    f = GF(p, m, poly)
    sections: dict[str, np.ndarray] = {}
    i = 3
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if not line.startswith("@"):
            raise FileFormatError(f"expected a section header, got {line!r}")
        parts = line[1:].split()
        if len(parts) != 3:
            raise FileFormatError(f"bad section header {line!r}")
        name = parts[0]
        try:
            rows, cols = int(parts[1]), int(parts[2])
        except ValueError as e:
            raise FileFormatError(f"bad section shape in {line!r}") from e
        if name in sections:
            raise FileFormatError(f"duplicate section @{name}")
        # Parse the rows present before allocating anything the header asks for.
        if rows < 0 or cols < 0:
            raise FileFormatError(f"bad section shape in {line!r}")
        if len(lines) - i < rows:
            raise FileFormatError(f"section @{name} is truncated")
        tokens: list[str] = []
        for r, row in enumerate(lines[i : i + rows]):
            vals = row.split()
            if len(vals) != cols:
                _refuse_non_integer(name, tokens)  # one in an earlier row is named first
                raise FileFormatError(
                    f"section @{name} row {r} has {len(vals)} entries, expected {cols}"
                )
            tokens.extend(vals)
        i += rows
        try:
            data = np.array(tokens, dtype=np.int64).reshape(rows, cols)
        except (OverflowError, ValueError) as e:
            _refuse_non_integer(name, tokens)  # a non-integer token is named first
            raise FileFormatError(f"section @{name} has an entry or shape out of range") from e
        if np.any(data < 0) or np.any(data >= f.q):
            raise FileFormatError(f"section @{name} has entries outside [0, {f.q})")
        sections[name] = data
    return ParsedFile(f, n, k, sections)


def _refuse_non_integer(name: str, tokens: list[str]) -> None:
    for v in tokens:
        try:
            int(v)
        except ValueError as e:
            raise FileFormatError(f"non-integer entry in section @{name}") from e


def read_file(path) -> ParsedFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _section(pf: ParsedFile, name: str, shape: tuple[int, int]) -> np.ndarray:
    if name not in pf.sections:
        raise FileFormatError(f"missing section @{name}")
    arr = pf.sections[name]
    if arr.shape != shape:
        raise FileFormatError(f"section @{name} has shape {arr.shape}, expected {shape}")
    return arr


def _key_file(path) -> ParsedFile:
    """A parsed key file whose header dimensions a key can have."""
    pf = read_file(path)
    why = dimension_error(pf.field, pf.n, pf.k)
    if why:
        raise FileFormatError(f"key {why}")
    return pf


@contextmanager
def _key_material():
    """Key material no key can have (repeated points, a zero multiplier, a
    singular scrambler or mask) is refused as a format error."""
    try:
        yield
    except (InvalidParams, linalg.SingularMatrix, scheme.InvalidDimensions) as e:
        raise FileFormatError(f"impossible key material: {e}") from e


# -- typed wrappers --------------------------------------------------------


def save_public_key(path, pk: scheme.PublicKey) -> None:
    write_file(path, pk.field, pk.n, pk.k, {"Gpub": pk.g_pub})


def load_public_key(path) -> scheme.PublicKey:
    pf = _key_file(path)
    g = _section(pf, "Gpub", (pf.k, pf.n))
    if linalg.rank(pf.field, g) < pf.k:
        raise FileFormatError(f"@Gpub has rank below k={pf.k}")
    return scheme.PublicKey(pf.field, pf.n, pf.k, g)


def save_secret_key(path, sk: scheme.SecretKey) -> None:
    sections = {
        "Gpub": sk.g_pub,
        "x": sk.grs.x,
        "y": sk.grs.y,
        "S": sk.s_mat,
        "perm": sk.perm,
        "alpha": sk.alpha,
        "beta": sk.beta,
    }
    write_file(path, sk.field, sk.n, sk.k, sections)


def load_secret_key(path) -> tuple[scheme.PublicKey, scheme.SecretKey]:
    pf = _key_file(path)
    n, k = pf.n, pf.k
    perm = _section(pf, "perm", (1, n))[0]
    if sorted(perm.tolist()) != list(range(n)):
        raise FileFormatError("@perm is not a permutation of 0..n-1")
    with _key_material():
        pk, sk = scheme.build_keypair(
            pf.field,
            _section(pf, "x", (1, n))[0],
            _section(pf, "y", (1, n))[0],
            _section(pf, "S", (k, k)),
            perm,
            _section(pf, "alpha", (1, n))[0],
            _section(pf, "beta", (1, n))[0],
        )
    stored = _section(pf, "Gpub", (k, n))
    if not np.array_equal(stored, sk.g_pub):
        raise FileFormatError("@Gpub does not match the key material")
    return pk, sk


def save_vector(path, f: GF, n: int, k: int, v: np.ndarray) -> None:
    write_file(path, f, n, k, {"vec": np.asarray(v, dtype=np.int64).reshape(1, -1)})


def load_vector(path, length: int, field: GF) -> np.ndarray:
    pf = read_file(path)
    v = _section(pf, "vec", (1, length))[0]
    if pf.field is not field:
        raise FileFormatError(f"@vec is over {pf.field!r}, expected {field!r}")
    return v


def save_recovered_key(path, rk: scheme.RecoveredKey) -> None:
    sections = {
        "x": rk.grs.x,
        "y": rk.grs.y,
        "a0": rk.a0,
        "lambda0": rk.lam0,
    }
    write_file(path, rk.grs.field, rk.grs.n, rk.grs.k, sections)


def load_recovered_key(path) -> scheme.RecoveredKey:
    pf = _key_file(path)
    n = pf.n
    with _key_material():
        params = GrsParams(pf.field, _section(pf, "x", (1, n))[0], _section(pf, "y", (1, n))[0], pf.k)
    return scheme.RecoveredKey(
        params,
        _section(pf, "a0", (1, n))[0],
        _section(pf, "lambda0", (1, n))[0],
        None,
    )


def load_code_matrix(pf: ParsedFile) -> np.ndarray:
    for name in ("G", "Gpub"):
        if name in pf.sections:
            if not pf.sections[name].any():
                raise FileFormatError(f"@{name} spans only the zero vector")
            return pf.sections[name]
    raise FileFormatError("no @G or @Gpub section found")
