"""GF(2) core: every fast path is checked against a slow independent oracle."""
import numpy as np
import pytest

from fedzkp.gf2 import (
    BitMatrix,
    BitVec,
    Permutation,
    hamming_distance,
    in_image,
    mat_vec_mul,
    sample_fixed_weight,
    solve_linear,
)


def naive_mat_vec(rows, x):
    # oracle: plain Python dot product mod 2
    return [sum(r[j] * x[j] for j in range(len(x))) % 2 for r in rows]


def image_set(rows, l):
    # oracle: enumerate the full column space as a set of tuples
    out = set()
    for mask in range(1 << l):
        x = [(mask >> j) & 1 for j in range(l)]
        out.add(tuple(naive_mat_vec(rows, x)))
    return out


# ---------------------------------------------------------------- BitVec

def test_bitvec_roundtrip_and_packing():
    v = BitVec([1, 0, 1])
    assert v.to_bytes() == b"\xa0"
    v2 = BitVec([1, 1, 1, 1, 0, 0, 0, 0, 1])
    assert v2.to_bytes() == b"\xf0\x80"
    for n in (0, 1, 7, 8, 9, 63, 64, 65):
        rng = np.random.default_rng(n)
        u = BitVec.random(n, rng)
        assert BitVec.from_bytes(u.to_bytes(), n) == u


def test_bitvec_from_bytes_rejects_bad_input():
    with pytest.raises(ValueError):
        BitVec.from_bytes(b"\x01", 3)  # nonzero padding
    with pytest.raises(ValueError):
        BitVec.from_bytes(b"\x00\x00", 3)  # wrong length


def test_bitvec_validation():
    with pytest.raises(ValueError):
        BitVec([0, 2, 1])
    with pytest.raises(ValueError):
        BitVec([[1, 0]])


def test_bitvec_xor_weight_eq_hash():
    a = BitVec([1, 1, 0, 1])
    b = BitVec([0, 1, 1, 1])
    assert (a ^ b) == BitVec([1, 0, 1, 0])
    assert a.weight() == 3 and (a ^ a).weight() == 0
    assert hash(a) == hash(BitVec([1, 1, 0, 1]))
    assert a != b
    with pytest.raises(ValueError):
        a ^ BitVec([1, 0])


def test_bitvec_immutable():
    v = BitVec([1, 0, 1])
    with pytest.raises(ValueError):
        v.bits[0] = 0


# ------------------------------------------------------------- BitMatrix

def test_bitmatrix_bytes_roundtrip_bit_level():
    # 3x3: rows concatenate at the bit level, pad only at the very end
    M = BitMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert M.to_bytes() == bytes([0b10101111, 0b10000000])
    assert BitMatrix.from_bytes(M.to_bytes(), 3, 3) == M
    rng = np.random.default_rng(7)
    N = BitMatrix.random(13, 5, rng)
    assert BitMatrix.from_bytes(N.to_bytes(), 13, 5) == N


def test_bitmatrix_rank_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, l = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        M = BitMatrix.random(m, l, rng)
        # oracle: rank = log2 of the image size
        assert (1 << M.rank()) == len(image_set(M.array.tolist(), l))


def test_identity_and_accessors():
    I = BitMatrix(np.eye(4, dtype=np.uint8))
    assert I.rank() == 4 and (I.rows, I.cols) == (4, 4)
    assert I.array[2].tolist() == [0, 0, 1, 0]
    assert I.array[:, 3].tolist() == [0, 0, 0, 1]


# ----------------------------------------------------------- mat_vec_mul

def test_mat_vec_mul_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, l = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        A = BitMatrix.random(m, l, rng)
        x = BitVec.random(l, rng)
        assert mat_vec_mul(A, x).bits.tolist() == naive_mat_vec(A.array.tolist(), x.bits.tolist())


def test_mat_vec_mul_wide_matrix_parity():
    # widths past 256 exercise the mod-256 accumulator wraparound
    rng = np.random.default_rng(5)
    A = BitMatrix.random(8, 1000, rng)
    x = BitVec(np.ones(1000, dtype=np.uint8))
    assert mat_vec_mul(A, x).bits.tolist() == [int(s) % 2 for s in A.array.sum(axis=1)]


def test_mat_vec_mul_dimension_check():
    with pytest.raises(ValueError):
        mat_vec_mul(BitMatrix(np.eye(3, dtype=np.uint8)), BitVec([1, 0]))


# ------------------------------------------------- solve_linear / in_image

def test_solve_and_image_exhaustive():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m, l = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        A = BitMatrix.random(m, l, rng)
        img = image_set(A.array.tolist(), l)
        for _ in range(8):
            b = BitVec.random(m, rng)
            x = solve_linear(A, b)
            if tuple(b.bits.tolist()) in img:
                assert x is not None and mat_vec_mul(A, x) == b
                assert in_image(A, b)
            else:
                assert x is None and not in_image(A, b)


def test_solve_deterministic_free_vars_zero():
    # two identical columns: the greedy solver must pick the first one
    A = BitMatrix([[1, 1], [1, 1], [0, 0]])
    x = solve_linear(A, BitVec([1, 1, 0]))
    assert x == BitVec([1, 0])


def test_solve_zero_vector():
    A = BitMatrix([[1, 0], [0, 1], [1, 1]])
    assert solve_linear(A, BitVec.zeros(3)) == BitVec.zeros(2)


def test_solve_dimension_check():
    with pytest.raises(ValueError):
        solve_linear(BitMatrix(np.eye(3, dtype=np.uint8)), BitVec([1, 0]))


def test_solve_full_rank_unique():
    rng = np.random.default_rng(31)
    for _ in range(20):
        while True:
            A = BitMatrix.random(9, 6, rng)
            if A.rank() == 6:
                break
        x_true = BitVec.random(6, rng)
        b = mat_vec_mul(A, x_true)
        assert solve_linear(A, b) == x_true  # full column rank: only one answer


# ------------------------------------------------------ hamming_distance

def test_hamming_distance():
    a = BitVec([1, 0, 1, 1, 0])
    b = BitVec([0, 0, 1, 0, 1])
    assert hamming_distance(a, b) == 3
    assert hamming_distance(a, a) == 0
    with pytest.raises(ValueError):
        hamming_distance(a, BitVec([1]))


# -------------------------------------------------- sample_fixed_weight

def test_sample_fixed_weight_exact_and_uniform():
    rng = np.random.default_rng(101)
    for m, w in [(10, 0), (10, 10), (10, 3), (800, 200)]:
        for _ in range(5):
            assert sample_fixed_weight(m, w, rng).weight() == w
    # uniformity over positions: each coordinate is 1 with probability w/m
    counts = np.zeros(12)
    trials = 6000
    for _ in range(trials):
        counts += sample_fixed_weight(12, 4, rng).bits
    expected = trials * 4 / 12
    # ~4 sigma band, sigma = sqrt(trials * p(1-p))
    sigma = (trials * (4 / 12) * (8 / 12)) ** 0.5
    assert np.all(np.abs(counts - expected) < 4 * sigma)
    with pytest.raises(ValueError):
        sample_fixed_weight(5, 6, rng)


# ----------------------------------------------------------- Permutation

def test_permutation_apply_and_inverse():
    pi = Permutation([2, 0, 1])
    a = BitVec([1, 0, 1])
    # out[pi[i]] = a[i]: position 0 -> 2, 1 -> 0, 2 -> 1
    assert pi.apply(a) == BitVec([0, 1, 1])
    assert pi.inverse().apply(pi.apply(a)) == a


def index_width(m):
    # oracle for ceil(log2 m) by counting doublings; 0 for m <= 1
    b = 0
    while (1 << b) < m:
        b += 1
    return b


def pack_indices(indices, b):
    """Oracle encoding: each index as b binary digits, MSB-first, zero-padded at the end."""
    bits = "".join(format(int(i), f"0{b}b") for i in indices) if b else ""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[k:k + 8], 2) for k in range(0, len(bits), 8))


def unpack_indices(data, m):
    b = index_width(m)
    bits = "".join(format(byte, "08b") for byte in data)
    return [int(bits[i * b:(i + 1) * b], 2) if b else 0 for i in range(m)]


@pytest.mark.parametrize("m", [0, 1, 2, 7, 48, 800])
def test_permutation_inverse_matches_an_argsort_oracle(m):
    rng = np.random.default_rng(203 + m)
    for pi in (Permutation.random(m, rng), Permutation(rng.permutation(m)),
               Permutation(np.arange(m)[::-1])):
        mapping = unpack_indices(pi.to_bytes(), m)
        inv = pi.inverse()
        assert inv == Permutation(np.argsort(mapping))
        assert inv.to_bytes() == Permutation(np.argsort(mapping)).to_bytes()
        assert inv is pi.inverse()
        a = BitVec.random(m, rng)
        assert inv.apply(pi.apply(a)) == a and pi.apply(inv.apply(a)) == a


def test_permutation_validation():
    for bad in ([0, 0, 1], [0, 2], [-1, 0], [0, 1, 5]):
        with pytest.raises(ValueError):
            Permutation(bad)


def test_permutation_preserves_weight_and_is_linear():
    rng = np.random.default_rng(202)
    for _ in range(30):
        m = int(rng.integers(1, 50))
        pi = Permutation.random(m, rng)
        a, b = BitVec.random(m, rng), BitVec.random(m, rng)
        assert pi.apply(a).weight() == a.weight()
        assert pi.apply(a ^ b) == pi.apply(a) ^ pi.apply(b)


def test_permutation_bytes_roundtrip():
    # m=4, two bits per index: 11 01 00 10
    pi = Permutation([3, 1, 0, 2])
    assert pi.to_bytes() == bytes([0b11010010])
    assert Permutation.from_bytes(pi.to_bytes(), 4) == pi
    rng = np.random.default_rng(205)
    for m in (1, 2, 3, 4, 5, 255, 256, 257, 800, 1024, 1025):  # every bit-width edge
        b = index_width(m)
        mapping = rng.permutation(m)
        for pi in (Permutation.random(m, rng), Permutation(mapping),
                   Permutation(np.arange(m)[::-1])):
            data = pi.to_bytes()
            assert len(data) == -(-m * b // 8)
            back = Permutation.from_bytes(data, m)
            assert back == pi and back.to_bytes() is data and pi.to_bytes() is data
        assert Permutation(mapping).to_bytes() == pack_indices(mapping, b)
    assert len(Permutation.random(800, rng).to_bytes()) == 1000


@pytest.mark.parametrize("m", [3, 5, 50, 257])  # each encoding ends in padding bits
def test_permutation_from_bytes_rejects_malformed_input(m):
    b = index_width(m)
    good = pack_indices(range(m), b)
    assert m * b % 8 and Permutation.from_bytes(good, m) == Permutation(range(m))
    for data, reason in (
            (good[:-1], "expected"),
            (good + b"\x00", "expected"),
            (good[:-1] + bytes([good[-1] | 1]), "padding"),
            (pack_indices([m] + list(range(1, m)), b), "out of range"),
            (pack_indices([1] + list(range(1, m)), b), "repeated")):
        with pytest.raises(ValueError, match=reason):
            Permutation.from_bytes(data, m)
    with pytest.raises(ValueError):
        Permutation.from_bytes(b"\x00", 1)
    assert Permutation.from_bytes(b"", 1) == Permutation([0])
