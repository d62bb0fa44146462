import numpy as np
import pytest

from grs_squarebreak import scheme
from grs_squarebreak.gf import GF


@pytest.fixture(scope="session")
def gf2():
    return GF(2)


@pytest.fixture(scope="session")
def gf5():
    return GF(5)


@pytest.fixture(scope="session")
def gf7():
    return GF(7)


@pytest.fixture(scope="session")
def gf9():
    return GF(3, 2, 10)  # X^2 + 1


@pytest.fixture(scope="session")
def gf16():
    return GF(2, 4, 19)  # X^4 + X + 1


@pytest.fixture(scope="session")
def gf32():
    return GF(2, 5, 37)  # X^5 + X^2 + 1


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def genuine_tie(pk: scheme.PublicKey, z: np.ndarray, got: np.ndarray) -> bool:
    """Whether the decrypted plaintext ``got`` is a genuine tie for the
    weight-t ciphertext ``z``: its public codeword also sits at distance
    exactly t.  The rank-one mask can pull the public code's minimum distance
    below 2t+1, and no decryptor can tell such a plaintext from the encrypted
    one; a codeword strictly closer or farther than t is never a tie."""
    return scheme.error_weight(pk.field, pk.g_pub, z, got) == pk.t
