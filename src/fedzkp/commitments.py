"""Hash-based commitments.

Com(m) draws a fresh 256-bit opening d and outputs the SHAKE-256 digest of
d || m, truncated (or zero-padded at the bit level) to ``l_com`` bits.
Hiding comes from d being secret and uniform; binding is computational,
resting on SHAKE collision resistance.  The interface is deliberately
minimal so a perfectly binding scheme could replace it without touching
any caller.
"""
from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

import numpy as np

DEFAULT_COMMIT_BITS = 800
OPENING_BYTES = 32


@dataclass(frozen=True)
class Commitment:
    c: bytes
    l_com: int = DEFAULT_COMMIT_BITS


@dataclass(frozen=True)
class Opening:
    d: bytes
    m: bytes


def _digest(d: bytes, m: bytes, l_com: int) -> bytes:
    raw = hashlib.shake_256(d + m).digest((l_com + 7) // 8)
    pad = -l_com % 8
    if pad:  # zero the bits past l_com
        raw = raw[:-1] + bytes([raw[-1] & (0xFF << pad)])
    return raw


def commit(m: bytes, rng: np.random.Generator,
           l_com: int = DEFAULT_COMMIT_BITS) -> tuple[Commitment, Opening]:
    """Commit to message bytes; returns the public commitment and the private opening."""
    return commit_batch([m], rng, l_com)[0]


def commit_batch(messages, rng, l_com: int = DEFAULT_COMMIT_BITS) -> list:
    """Commit to several messages with one randomness draw for the lot.

    The openings are consecutive 32-byte slices of that draw, so a batch
    gives the same commitments as one commit() per message in order.
    `rng` is a generator, or the bytes of the draw when the caller took
    them from the generator along with its other randomness.
    """
    if l_com <= 0:
        raise ValueError("l_com must be positive")
    n = OPENING_BYTES * len(messages)
    d_all = rng if isinstance(rng, bytes) else rng.bytes(n)
    if len(d_all) != n:
        raise ValueError(f"expected {n} bytes of openings, got {len(d_all)}")
    out = []
    for i, m in enumerate(messages):
        d = d_all[i * OPENING_BYTES:(i + 1) * OPENING_BYTES]
        out.append((Commitment(_digest(d, m, l_com), l_com), Opening(d, m)))
    return out


def verify_commit(c: Commitment, d: bytes, m: bytes) -> bool:
    """True iff (d, m) opens c."""
    return hmac.compare_digest(_digest(d, m, c.l_com), c.c)
