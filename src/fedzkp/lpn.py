"""Exact-weight noisy linear instances over GF(2).

A credential is a pair (s, e): a uniform secret s of length l and an
error vector e of length m with Hamming weight exactly w = round(m*tau),
rounding halves up.  The matching public input is the statement
(A, y, w) with y = A @ s xor e: the weight is part of it, so whatever
hashes or checks a public input reads w from there.  A is resampled
until it has full column rank, which keeps s recoverable from A @ s and
makes downstream witness extraction unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf2 import BitMatrix, BitVec, mat_vec_mul, sample_fixed_weight

MAX_RANK_RESAMPLES = 100


def _as_fraction(x) -> Fraction:
    # float taus go through their decimal spelling, so 0.3 means 3/10
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def exact_weight(m: int, tau: Fraction) -> int:
    """round(m*tau) with halves rounding up."""
    return (2 * m * tau.numerator + tau.denominator) // (2 * tau.denominator)


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
    A: BitMatrix
    y: BitVec
    w: int


def gen_instance(params: XlpnParams, rng: np.random.Generator) -> tuple[PublicInput, Credential]:
    """Sample a fresh credential and its public input."""
    for _ in range(MAX_RANK_RESAMPLES):
        A = BitMatrix.random(params.m, params.l, rng)
        if A.rank() == params.l:
            break
    else:
        raise RuntimeError(f"no full-column-rank matrix after {MAX_RANK_RESAMPLES} tries")
    s = BitVec.random(params.l, rng)
    e = sample_fixed_weight(params.m, params.w, rng)
    y = mat_vec_mul(A, s) ^ e
    return PublicInput(A, y, params.w), Credential(s, e)
