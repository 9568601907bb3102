"""Watermark construction and checking, and the one byte form of a statement.

The server stacks every client's public input into one aggregate, hashes
its canonical byte form with SHAKE-256 into an n-bit watermark h, and h is
what federated training embeds into the model.  Clients re-derive the hash
to confirm the server included exactly the K client inputs and nothing
else.  At verification time the extracted (possibly damaged) watermark is
compared to the recomputed hash under a strict near-collision threshold.

Canonical layout of a statement (K, m, l, w, every seed_j, every y_j):

    "FEDZKP-H3" || u32le(K) || u32le(m) || u32le(l) || u32le(w)
                || seed_1 .. seed_K (32 bytes each)
                || bits of y_1 .. y_K (concatenated, packed)

The y block is packed MSB-first and zero-padded to a byte boundary only
at its end.  Each seed names its slot's A (lpn.expand_matrix), so the
hash binds every A_j, and the weight w that challenge 2 checks, without
reading a matrix: nothing here expands one, and an aggregate that passes
validity fixes every part of the statement.  Storage's files and the
protocol's AGG_INPUT carry these same bytes; from_canonical_bytes refuses
any other string, so each statement has exactly one encoding.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gf2 import BitVec, hamming_distance
from .lpn import SEED_BYTES, PublicInput

DOMAIN_TAG = b"FEDZKP-H3"
_HEAD = struct.Struct("<IIII")  # K, m, l, w
DEFAULT_WATERMARK_BITS = 1024


@dataclass(frozen=True)
class AggregatedInput:
    parts: tuple
    m: int
    l: int
    w: int
    K: int


@dataclass(frozen=True)
class HashWatermark:
    h: BitVec
    n: int

    def __post_init__(self):
        if self.n <= 0 or len(self.h) != self.n:
            raise ValueError("watermark length must be positive and match n")


class CheckResult:
    """Truthy on success; carries the first failing reason otherwise."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: Optional[str] = None):
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "CheckResult(ok)" if self.ok else f"CheckResult({self.reason})"


def aggregate(parts) -> AggregatedInput:
    """Stack client public inputs, preserving client order."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one client input")
    m, l, w = len(parts[0].y), parts[0].l, parts[0].w
    for p in parts:
        if p.l != l or len(p.y) != m or len(p.seed) != SEED_BYTES:
            raise ValueError("client inputs disagree on dimensions")
        if p.w != w:
            raise ValueError("client inputs disagree on the weight w")
    return AggregatedInput(parts, m, l, w, len(parts))


def select_component(agg: AggregatedInput, j: int) -> PublicInput:
    """The j-th client's public input, 0-based."""
    if not 0 <= j < agg.K:
        raise ValueError(f"client index {j} out of range for K={agg.K}")
    return agg.parts[j]


def canonical_bytes(agg: AggregatedInput) -> bytes:
    return b"".join([DOMAIN_TAG, _HEAD.pack(agg.K, agg.m, agg.l, agg.w),
                     *(p.seed for p in agg.parts),
                     np.packbits(np.concatenate([p.y.bits for p in agg.parts])).tobytes()])


def from_canonical_bytes(data) -> AggregatedInput:
    """Inverse of canonical_bytes: ValueError on a wrong tag or length, K = 0
    (through aggregate), m <= l, l = 0, w > m // 2 (the most any tau < 1/2
    rounds to) or a set padding bit.  Slots are views into one unpacked y block."""
    view = memoryview(data)
    start = len(DOMAIN_TAG) + _HEAD.size
    if len(view) < start:
        raise ValueError("truncated statement header")
    if view[:len(DOMAIN_TAG)] != DOMAIN_TAG:
        raise ValueError("not a FEDZKP-H3 statement")
    K, m, l, w = _HEAD.unpack(view[len(DOMAIN_TAG):start])
    if not 0 < l < m:
        raise ValueError(f"need m > l > 0, got m={m}, l={l}")
    if w > m // 2:
        raise ValueError(f"weight {w} exceeds m // 2 = {m // 2}")
    y_start = start + K * SEED_BYTES
    size = y_start + (K * m + 7) // 8
    if len(view) != size:
        raise ValueError(f"statement of K={K}, m={m} takes {size} bytes, got {len(view)}")
    bits = np.unpackbits(np.frombuffer(view[y_start:], dtype=np.uint8))
    if bits[K * m:].any():
        raise ValueError("nonzero padding bits after the y block")
    seeds = bytes(view[start:y_start])
    return aggregate(PublicInput(seeds[SEED_BYTES * j:SEED_BYTES * (j + 1)], l, BitVec._wrap(y), w)
                     for j, y in enumerate(bits[:K * m].reshape(K, m)))


def hash_watermark(agg: AggregatedInput, n: int = DEFAULT_WATERMARK_BITS) -> HashWatermark:
    """n-bit SHAKE-256 digest of the canonical aggregate serialization."""
    if n < 1:
        raise ValueError("watermark length must be at least 1 bit")
    digest = hashlib.shake_256(canonical_bytes(agg)).digest((n + 7) // 8)
    full = np.unpackbits(np.frombuffer(digest, dtype=np.uint8), count=n)
    return HashWatermark(BitVec(full), n)


def client_check(h: HashWatermark, agg: AggregatedInput, own: PublicInput, K: int) -> CheckResult:
    """Client-side audit of the server's published watermark.

    Verifies, in order: the hash really is the hash of the published
    aggregate, the client's own input appears in it with its seed, y and w,
    and the aggregate holds exactly the K client inputs (no server
    additions or omissions).
    """
    if hash_watermark(agg, h.n) != h:
        return CheckResult(False, "wrong-hash")
    if own not in agg.parts:
        return CheckResult(False, "missing-own")
    if agg.K != K:
        return CheckResult(False, "wrong-count")
    return CheckResult(True)


def validity(h_extracted: BitVec, wm: HashWatermark, err_n: int) -> tuple[bool, int]:
    """(accepted, distance) of the extracted watermark against the aggregate's hash.

    Strictly fewer than err_n differing bits is valid, so distance err_n
    is rejected; the verifier range-checks err_n once, when it is built.
    """
    dist = hamming_distance(h_extracted, wm.h)
    return dist < err_n, dist
