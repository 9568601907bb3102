"""Exact-weight noisy linear instances over GF(2).

A credential is a pair (s, e): a uniform secret s of length l and an
error vector e of length m with Hamming weight exactly w = round(m*tau),
rounding halves up.  The matching public input is the statement
(A, y, w) with y = A @ s xor e: the weight is part of it, so whatever
hashes or checks a public input reads w from there.  A is never stored
or sent: a public input carries a 32-byte seed that names it, and
expands it on first use.  Keygen draws seeds until A has full column
rank, which keeps s recoverable from A @ s and makes downstream witness
extraction unambiguous.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf2 import BitMatrix, BitVec, mat_vec_mul, sample_fixed_weight

MAX_RANK_RESAMPLES = 100
SEED_BYTES = 32
EXPAND_TAG = b"FEDZKP-A1"
_SIZES = struct.Struct("<II")  # m, l


def _as_fraction(x) -> Fraction:
    # float taus go through their decimal spelling, so 0.3 means 3/10
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def exact_weight(m: int, tau: Fraction) -> int:
    """round(m*tau) with halves rounding up."""
    return (2 * m * tau.numerator + tau.denominator) // (2 * tau.denominator)


def expand_matrix(seed: bytes, m: int, l: int) -> BitMatrix:
    """The m x l matrix `seed` names: SHAKE-256 over EXPAND_TAG, u32le(m),
    u32le(l) and the seed, read row-major, most significant bit first."""
    stream = hashlib.shake_256(EXPAND_TAG + _SIZES.pack(m, l) + seed).digest((m * l + 7) // 8)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8), count=m * l)
    return BitMatrix._wrap(bits.reshape(m, l))


@dataclass(frozen=True)
class XlpnParams:
    m: int
    l: int
    tau: Fraction
    w: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tau", _as_fraction(self.tau))
        if self.m <= self.l or self.l <= 0:
            raise ValueError(f"need m > l > 0, got m={self.m}, l={self.l}")
        # tau = 0 is allowed as a noiseless test mode
        if not 0 <= self.tau < Fraction(1, 2):
            raise ValueError(f"tau must lie in [0, 1/2), got {self.tau}")
        object.__setattr__(self, "w", exact_weight(self.m, self.tau))


@dataclass(frozen=True)
class Credential:
    s: BitVec
    e: BitVec


@dataclass(frozen=True)
class PublicInput:
    """(seed, l, y, w); m is len(y).  Equality and hashing read only these."""

    seed: bytes
    l: int
    y: BitVec
    w: int

    @cached_property
    def A(self) -> BitMatrix:
        # threads that race here expand equal matrices; one of them is kept
        return expand_matrix(self.seed, len(self.y), self.l)


def gen_instance(params: XlpnParams, rng: np.random.Generator) -> tuple[PublicInput, Credential]:
    """Sample a fresh credential and its public input."""
    for _ in range(MAX_RANK_RESAMPLES):
        seed = rng.bytes(SEED_BYTES)
        A = expand_matrix(seed, params.m, params.l)
        if A.rank() == params.l:
            break
    else:
        raise RuntimeError(f"no full-column-rank matrix after {MAX_RANK_RESAMPLES} tries")
    s = BitVec.random(params.l, rng)
    e = sample_fixed_weight(params.m, params.w, rng)
    y = mat_vec_mul(A, s) ^ e
    return PublicInput(seed, params.l, y, params.w), Credential(s, e)
