"""Cryptanalysis toolkit: rank-one-masked McEliece over GRS codes and the
square-code attack that breaks it."""

from .gf import GF, FieldError, NonPrimeCharacteristic, ReducibleModulus
from .codes import LinearCode, code_from_generator, distinguish
from .grs import GrsParams
from .scheme import PublicKey, SecretKey, RecoveredKey, keygen, encrypt, decrypt, decrypt_with_pair
from .attack import AttackConfig, recover_key

__version__ = "0.1.0"

__all__ = [
    "GF",
    "FieldError",
    "NonPrimeCharacteristic",
    "ReducibleModulus",
    "LinearCode",
    "code_from_generator",
    "distinguish",
    "GrsParams",
    "PublicKey",
    "SecretKey",
    "keygen",
    "encrypt",
    "decrypt",
    "AttackConfig",
    "RecoveredKey",
    "recover_key",
    "decrypt_with_pair",
]
