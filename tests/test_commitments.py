import hashlib

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from fedzkp.commitments import OPENING_BYTES, Commitment, commit, commit_batch, verify_commit


def test_matches_direct_shake_oracle():
    rng = np.random.default_rng(0)
    c, o = commit(b"hello", rng)
    assert c.l_com == 800 and len(c.c) == 100 and len(o.d) == 32
    assert c.c == hashlib.shake_256(o.d + b"hello").digest(100)
    assert o.m == b"hello"


def test_commit_is_a_batch_of_one_and_batches_split_freely():
    msgs = [b"first", b"", b"third" * 40]
    one = commit(msgs[0], np.random.default_rng(3), l_com=256)
    assert one == commit_batch(msgs[:1], np.random.default_rng(3), l_com=256)[0]
    rng = np.random.default_rng(4)
    singles = [commit(m, rng, l_com=256) for m in msgs]
    assert singles == commit_batch(msgs, np.random.default_rng(4), l_com=256)


def test_a_batch_takes_its_openings_drawn_or_as_bytes():
    msgs = [b"first", b"", b"third" * 40]
    drawn = np.random.default_rng(5).bytes(3 * OPENING_BYTES)
    assert commit_batch(msgs, drawn, l_com=256) == commit_batch(
        msgs, np.random.default_rng(5), l_com=256)
    with pytest.raises(ValueError, match="openings"):
        commit_batch(msgs, drawn[:-1], l_com=256)


def test_fresh_openings_never_collide():
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(10_000):
        c, _ = commit(b"same message", rng)
        seen.add(c.c)
    assert len(seen) == 10_000


def test_empty_message_and_roundtrip():
    rng = np.random.default_rng(2)
    c, o = commit(b"", rng)
    assert verify_commit(c, o.d, o.m)


def test_tampering_fails():
    rng = np.random.default_rng(3)
    c, o = commit(b"watermark", rng)
    assert verify_commit(c, o.d, b"watermark")
    assert not verify_commit(c, o.d, b"watermarl")
    d_flip = bytes([o.d[0] ^ 1]) + o.d[1:]
    assert not verify_commit(c, d_flip, o.m)


def test_large_message():
    rng = np.random.default_rng(4)
    m = b"\xab" * (10 * 2**20)  # 10 MB
    c, o = commit(m, rng)
    assert verify_commit(c, o.d, m)


def test_nonbyte_aligned_length_masks_padding():
    rng = np.random.default_rng(5)
    c, o = commit(b"x", rng, l_com=13)
    assert len(c.c) == 2
    assert c.c[-1] & 0b0000_0111 == 0  # 3 trailing pad bits are zero
    assert verify_commit(c, o.d, b"x")
    with pytest.raises(ValueError):
        commit(b"x", rng, l_com=0)


def test_binding_fuzz():
    # perturb the opening at random; none of the perturbations may verify
    rng = np.random.default_rng(6)
    c, o = commit(b"bind me", rng)
    base = bytearray(o.d + o.m)
    for _ in range(100_000):
        mutated = bytearray(base)
        mutated[rng.integers(0, len(base))] ^= int(rng.integers(1, 256))
        assert not verify_commit(c, bytes(mutated[:32]), bytes(mutated[32:]))


def test_hiding_first_byte_chi_square():
    # first digest byte should look identically distributed for two fixed messages
    rng = np.random.default_rng(7)
    counts = np.zeros((2, 256), dtype=np.int64)
    for row, msg in enumerate([b"message zero", b"message one!"]):
        for _ in range(10_000):
            c, _ = commit(msg, rng)
            counts[row, c.c[0]] += 1
    _, p, _, _ = chi2_contingency(counts + 1)  # +1 smoothing guards empty cells
    assert p > 0.01


def test_wrong_l_com_mismatch():
    rng = np.random.default_rng(8)
    c, o = commit(b"z", rng, l_com=256)
    assert not verify_commit(Commitment(c.c, l_com=128), o.d, o.m)
