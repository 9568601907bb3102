import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fedzkp.gf2 import BitVec
from fedzkp.lpn import SEED_BYTES, PublicInput, XlpnParams, gen_instance
from fedzkp.watermark import (
    aggregate,
    canonical_bytes,
    client_check,
    hash_watermark,
    select_component,
    validity,
)

GOLDEN_ZERO_64 = "dad86bfed69f4191"  # frozen once from a reference SHAKE-256 run


def random_parts(k, m, l, seed):
    rng = np.random.default_rng(seed)
    return [PublicInput(rng.bytes(SEED_BYTES), l, BitVec.random(m, rng), m // 4)
            for _ in range(k)]


def test_golden_vector_and_independent_oracle():
    zero = PublicInput(bytes(SEED_BYTES), 4, BitVec.zeros(8), 2)
    agg = aggregate([zero])
    h = hash_watermark(agg, 64)
    assert h.h.to_bytes().hex() == GOLDEN_ZERO_64
    # oracle: rebuild the canonical bytes by hand and hash directly
    payload = (
        b"FEDZKP-H3"
        + (1).to_bytes(4, "little")
        + (8).to_bytes(4, "little")
        + (4).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + bytes(32)
        + bytes(1)
    )
    assert canonical_bytes(agg) == payload
    assert h.h.to_bytes() == hashlib.shake_256(payload).digest(8)


def test_hash_deterministic_and_order_sensitive():
    p = random_parts(2, 16, 8, 0)
    h1 = hash_watermark(aggregate(p), 128)
    h2 = hash_watermark(aggregate(p), 128)
    assert h1 == h2
    swapped = hash_watermark(aggregate(p[::-1]), 128)
    assert swapped != h1


def test_hash_binds_the_weight():
    # the same A and y under another w are another statement, with another mark
    p = random_parts(2, 16, 8, 0)
    relabelled = aggregate([replace(x, w=x.w + 1) for x in p])
    assert relabelled.w == p[0].w + 1
    assert hash_watermark(relabelled, 128) != hash_watermark(aggregate(p), 128)


def test_aggregate_validation_and_selection():
    p = random_parts(3, 12, 6, 1)
    agg = aggregate(p)
    assert (agg.K, agg.m, agg.l) == (3, 12, 6)
    for j in range(3):
        assert select_component(agg, j) == p[j]
    with pytest.raises(ValueError):
        select_component(agg, 3)
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate(p + random_parts(1, 12, 7, 2))
    with pytest.raises(ValueError, match="weight"):
        aggregate(p[:2] + [replace(p[2], w=p[2].w + 1)])
    # every seed is 32 bytes, so the seed block's length follows from K
    with pytest.raises(ValueError, match="dimensions"):
        aggregate(p[:2] + [replace(p[2], seed=p[2].seed[:-1])])


def test_serialized_sizes_at_reference_parameters():
    # a 32-byte seed per slot in place of its m*l matrix bits, then K*m y bits
    p = random_parts(10, 800, 700, 3)
    blob = canonical_bytes(aggregate(p))
    assert len(blob) == 25 + 10 * 32 + 10 * 800 // 8 == 1_345


def test_avalanche():
    rng = np.random.default_rng(4)
    n = 256
    p = random_parts(2, 16, 8, 5)
    base = hash_watermark(aggregate(p), n)
    dists = []
    for _ in range(1000):
        q = list(p)
        j = int(rng.integers(0, 2))
        seed = bytearray(q[j].seed)
        seed[rng.integers(0, SEED_BYTES)] ^= 1 << int(rng.integers(0, 8))
        q[j] = replace(q[j], seed=bytes(seed))
        dists.append(np.count_nonzero(hash_watermark(aggregate(q), n).h.bits != base.h.bits))
    mean = float(np.mean(dists))
    assert 0.45 * n < mean < 0.55 * n


def test_client_check_reasons():
    params = XlpnParams(m=12, l=8, tau=Fraction(1, 4))
    rng = np.random.default_rng(6)
    parts = [gen_instance(params, rng)[0] for _ in range(4)]
    agg = aggregate(parts)
    h = hash_watermark(agg, 64)

    res = client_check(h, agg, parts[2], 4)
    assert res and res.reason is None

    # server publishes a hash that does not match the aggregate
    other = hash_watermark(aggregate(parts[::-1]), 64)
    assert client_check(other, agg, parts[2], 4).reason == "wrong-hash"

    # server dropped this client's input (hash honestly recomputed)
    dropped = aggregate(parts[:2] + parts[3:])
    assert client_check(hash_watermark(dropped, 64), dropped, parts[2], 4).reason == "missing-own"

    # server appended its own extra input (hash honestly recomputed)
    extra = aggregate(parts + [gen_instance(params, rng)[0]])
    assert client_check(hash_watermark(extra, 64), extra, parts[2], 4).reason == "wrong-count"


def test_client_check_covers_the_weight():
    # the server publishes every client's seed and y, but under another w,
    # with the hash it computed itself: the client's own statement is not in it
    params = XlpnParams(m=12, l=8, tau=Fraction(1, 4))
    rng = np.random.default_rng(6)
    parts = [gen_instance(params, rng)[0] for _ in range(4)]
    relabelled = aggregate([replace(p, w=p.w + 1) for p in parts])
    h = hash_watermark(relabelled, 64)
    assert client_check(h, relabelled, parts[2], 4).reason == "missing-own"
    assert client_check(h, relabelled, relabelled.parts[2], 4)


def test_validity_boundary_is_strict():
    parts = random_parts(2, 12, 6, 7)
    agg = aggregate(parts)
    n, err_n = 64, 4
    wm = hash_watermark(agg, n)
    assert validity(wm.h, wm, err_n) == (True, 0)

    def flipped(k):
        bits = wm.h.bits.copy()
        bits[:k] ^= 1
        return BitVec(bits)

    assert validity(flipped(err_n - 1), wm, err_n) == (True, err_n - 1)
    assert validity(flipped(err_n), wm, err_n) == (False, err_n)
    assert validity(flipped(n), wm, n) == (False, n)


def test_client_check_implies_validity():
    parts = random_parts(3, 10, 5, 8)
    agg = aggregate(parts)
    h = hash_watermark(agg, 128)
    assert client_check(h, agg, parts[0], 3)
    # undamaged watermark passes at the tightest budget
    assert validity(h.h, hash_watermark(agg, 128), 1) == (True, 0)


def test_random_aggregate_never_near_collides():
    # forging a different aggregate whose hash lands within distance 2 of a
    # fixed extracted watermark should essentially never happen at n=128
    rng = np.random.default_rng(9)
    true_agg = aggregate(random_parts(1, 8, 4, 10))
    n, err_n = 128, 3
    h_x = hash_watermark(true_agg, n)
    target = int.from_bytes(h_x.h.to_bytes(), "big")
    header = b"FEDZKP-H3" + b"".join(x.to_bytes(4, "little") for x in (1, 8, 4, 2))
    hits = 0
    samples = []
    for i in range(1_000_000):
        body = rng.bytes(33)  # a 32-byte seed + 8 y bits
        digest = hashlib.shake_256(header + body).digest(16)
        dist = (int.from_bytes(digest, "big") ^ target).bit_count()
        hits += dist < err_n
        if i < 200:
            samples.append((body, dist))
    assert hits == 0
    # spot-check that the fast loop above agrees with validity itself
    for body, dist in samples:
        y = BitVec.from_bytes(body[32:], 8)
        forged = hash_watermark(aggregate([PublicInput(body[:32], 4, y, 2)]), n)
        assert validity(h_x.h, forged, err_n) == (dist < err_n, dist)
