import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fedzkp import lpn
from fedzkp.gf2 import BitMatrix, mat_vec_mul
from fedzkp.lpn import PublicInput, XlpnParams, exact_weight, expand_matrix, gen_instance


def test_weight_rounds_half_up():
    assert exact_weight(8, Fraction(1, 4)) == 2
    assert exact_weight(10, Fraction(1, 4)) == 3  # 2.5 rounds up
    assert exact_weight(800, Fraction(1, 4)) == 200
    assert exact_weight(7, Fraction(1, 2)) == 4  # 3.5 rounds up
    assert exact_weight(600, Fraction(1, 4)) == 150


def test_params_validation_and_float_tau():
    p = XlpnParams(m=8, l=4, tau=0.25)
    assert p.tau == Fraction(1, 4) and p.w == 2
    assert XlpnParams(m=800, l=700, tau=Fraction(1, 4)).w == 200
    # recommended secret length from the write-up's parameter discussion
    assert XlpnParams(m=600, l=512, tau=Fraction(1, 4)).w == 150
    with pytest.raises(ValueError):
        XlpnParams(m=4, l=8, tau=0.25)
    with pytest.raises(ValueError):
        XlpnParams(m=8, l=4, tau=0.5)
    with pytest.raises(ValueError):
        XlpnParams(m=8, l=4, tau=-0.1)


def test_gen_instance_small():
    rng = np.random.default_rng(0)
    params = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    pub, cred = gen_instance(params, rng)
    assert cred.e.weight() == 2
    assert pub.A.rank() == 4
    # oracle recomputation of y
    assert pub.y == mat_vec_mul(pub.A, cred.s) ^ cred.e


def test_tau_zero_is_noiseless():
    rng = np.random.default_rng(1)
    params = XlpnParams(m=8, l=4, tau=0)
    pub, cred = gen_instance(params, rng)
    assert cred.e.weight() == 0
    assert pub.y == mat_vec_mul(pub.A, cred.s)


def test_repeated_draws_weight_and_rank():
    rng = np.random.default_rng(4)
    params = XlpnParams(m=12, l=8, tau=Fraction(1, 4))
    for _ in range(1000):
        pub, cred = gen_instance(params, rng)
        assert cred.e.weight() == params.w
        assert pub.A.rank() == params.l


def test_defaults_round_trip_validate():
    rng = np.random.default_rng(5)
    params = XlpnParams(m=800, l=700, tau=Fraction(1, 4))
    pub, cred = gen_instance(params, rng)
    assert (pub.A.rows, pub.A.cols, len(cred.s)) == (800, 700, 700)
    assert cred.e.weight() == params.w == 200
    assert pub.y == mat_vec_mul(pub.A, cred.s) ^ cred.e


def test_rank_resample_limit_errors(monkeypatch):
    # every seed names a rank-deficient matrix: keygen gives up after the limit
    seeds = []
    monkeypatch.setattr(lpn, "expand_matrix",
                        lambda seed, m, l: seeds.append(seed) or BitMatrix(np.zeros((m, l))))
    params = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    with pytest.raises(RuntimeError):
        gen_instance(params, np.random.default_rng(2))
    assert len(set(seeds)) == len(seeds) == lpn.MAX_RANK_RESAMPLES


# expand_matrix(bytes(range(32)), 8, 4), frozen once: 32 bits, row-major
GOLDEN_EXPANSION = "22b38e1c"


def packed(A):
    """A's bits row-major, 8 to a byte, most significant first."""
    return np.packbits(A.array).tobytes()


def test_seed_expansion_golden_vector_and_independent_oracle():
    seed = bytes(range(32))
    A = expand_matrix(seed, 8, 4)
    assert packed(A).hex() == GOLDEN_EXPANSION
    for m, l in ((8, 4), (13, 5), (9, 8)):
        # oracle: the SHAKE-256 stream read bit by bit, no numpy unpacking
        stream = hashlib.shake_256(b"FEDZKP-A1" + m.to_bytes(4, "little")
                                   + l.to_bytes(4, "little") + seed).digest((m * l + 7) // 8)
        bits = [stream[i // 8] >> (7 - i % 8) & 1 for i in range(m * l)]
        assert expand_matrix(seed, m, l).array.tolist() == [bits[r * l:(r + 1) * l]
                                                             for r in range(m)]
    # m and l are both bound: another shape is another stream, not a reshape
    assert packed(expand_matrix(seed, 4, 8)) != packed(A)
    assert packed(expand_matrix(seed, 8, 5))[:4] != packed(A)


def test_a_public_input_expands_its_matrix_once_and_compares_without_it():
    rng = np.random.default_rng(3)
    params = XlpnParams(m=12, l=8, tau=Fraction(1, 4))
    pub, cred = gen_instance(params, rng)
    twin = PublicInput(pub.seed, pub.l, pub.y, pub.w)
    assert twin == pub and hash(twin) == hash(pub) and "A" not in vars(twin)
    assert twin.A is twin.A and np.array_equal(twin.A.array, expand_matrix(pub.seed, 12, 8).array)
    assert len(pub.seed) == lpn.SEED_BYTES


# SHAKE-256 over seed, A, y, s and e of `count` seeded keys, then 16 more
# bytes of the generator, frozen from an earlier release of keygen, and how
# many seeds keygen drew.  A change means the keys, or how many draws rank
# rejection took, moved.  At 33x32 a random A is often rank deficient.
KEYGEN_PINS = [
    ((48, 32, 1), 1, "9895f8c51de4d3964e6fbb6cfb55c2bd"),
    ((800, 700, 1), 1, "d36c6f024198279fcb55047b8c7eb179"),
    ((33, 32, 8), 16, "b091a769bf2c041bd987b397c08c5fc9"),
]


@pytest.mark.parametrize("size, draws, pin", KEYGEN_PINS)
def test_seeded_keygen_output_is_pinned(size, draws, pin, monkeypatch):
    m, l, count = size
    seeds = []
    expand = lpn.expand_matrix
    monkeypatch.setattr(lpn, "expand_matrix",
                        lambda seed, m, l: seeds.append(seed) or expand(seed, m, l))
    rng = np.random.default_rng(0)
    keys = [gen_instance(XlpnParams(m, l, Fraction(1, 4)), rng) for _ in range(count)]
    drawn = len(seeds)
    h = hashlib.shake_256()
    for pub, cred in keys:
        h.update(pub.seed + packed(pub.A) + pub.y.to_bytes()
                 + cred.s.to_bytes() + cred.e.to_bytes())
    h.update(rng.bytes(16))
    assert (drawn, h.hexdigest(16)) == (draws, pin)
