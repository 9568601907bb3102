"""GF(2) core: every fast path is checked against a slow independent oracle."""
from fractions import Fraction

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is skipped, the rest still runs
    given = None

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
from fedzkp.lpn import XlpnParams, gen_instance


def naive_mat_vec(rows, x):
    # oracle: plain Python dot product mod 2
    return [sum(r[j] * x[j] for j in range(len(x))) % 2 for r in rows]


def oracle_rank(rows):
    """Rank over GF(2) by row reduction on a uint8 copy; shares no gf2 code."""
    a = np.array(rows, dtype=np.uint8).reshape(len(rows), -1)
    rank = 0
    for j in range(a.shape[1]):
        below = np.nonzero(a[rank:, j])[0]
        if below.size == 0:
            continue
        a[[rank, rank + below[0]]] = a[[rank + below[0], rank]]
        hit = np.nonzero(a[:, j])[0]
        a[hit[hit != rank]] ^= a[rank]
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def oracle_member(rows, b):
    # b is in the column space iff appending it as a column keeps the rank
    return oracle_rank(np.column_stack([rows, b])) == oracle_rank(rows)


def greedy_columns(rows):
    # the first-come independent columns, the support solve_linear promises
    picked = []
    for j in range(rows.shape[1]):
        if oracle_rank(rows[:, picked + [j]]) == len(picked) + 1:
            picked.append(j)
    return picked


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

def test_bitmatrix_rank_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, l = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        M = BitMatrix(rng.integers(0, 2, (m, l), dtype=np.uint8))
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
        A = BitMatrix(rng.integers(0, 2, (m, l), dtype=np.uint8))
        x = BitVec.random(l, rng)
        assert mat_vec_mul(A, x).bits.tolist() == naive_mat_vec(A.array.tolist(), x.bits.tolist())


def test_mat_vec_mul_wide_matrix_parity():
    # widths past 256 exercise the mod-256 accumulator wraparound
    rng = np.random.default_rng(5)
    A = BitMatrix(rng.integers(0, 2, (8, 1000), dtype=np.uint8))
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
        A = BitMatrix(rng.integers(0, 2, (m, l), dtype=np.uint8))
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


# rank-deficient fixtures, each b with the one solution on the greedy columns
GREEDY_FIXTURES = [
    # columns (1,0,0), (1,1,0), (0,1,0) = c0 ^ c1, (1,1,0) = c1: greedy {0, 1}
    ([[1, 1, 0, 1], [0, 1, 1, 1], [0, 0, 0, 0]],
     {(0, 1, 0): [1, 1, 0, 0], (1, 1, 0): [0, 1, 0, 0], (1, 0, 0): [1, 0, 0, 0],
      (0, 0, 0): [0, 0, 0, 0], (0, 0, 1): None}),
    # a zero first column and a repeat: greedy {1, 3}
    ([[0, 1, 1, 0], [0, 0, 0, 1], [0, 1, 1, 0]],
     {(1, 1, 1): [0, 1, 0, 1], (0, 1, 0): [0, 0, 0, 1], (1, 0, 1): [0, 1, 0, 0],
      (1, 0, 0): None}),
    # rank 2 in a 4x5 matrix whose later columns are all sums: greedy {0, 2}
    ([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [0, 0, 1, 1, 0], [1, 1, 0, 1, 0]],
     {(0, 1, 1, 0): [0, 0, 1, 0, 0], (1, 0, 1, 1): [1, 0, 1, 0, 0], (0, 1, 0, 0): None}),
]


@pytest.mark.parametrize("rows, cases", GREEDY_FIXTURES)
def test_solve_pins_the_greedy_support_answer(rows, cases):
    A = BitMatrix(rows)
    for b, want in cases.items():
        x = solve_linear(A, BitVec(b))
        assert (x is None) is (want is None) and in_image(A, BitVec(b)) is (want is not None)
        if want is not None:
            assert x == BitVec(want)


def member_and_non_member_vectors(a, rng, count=12):
    m, l = a.shape
    for i in range(count):
        x = rng.integers(0, 2, size=l, dtype=np.uint8)
        b = (a.astype(np.int64) @ x) % 2  # a member
        if i % 3 == 1:
            b = b ^ np.eye(m, dtype=np.int64)[int(rng.integers(m))]  # one bit off it
        elif i % 3 == 2:
            b = rng.integers(0, 2, size=m)
        yield b.astype(np.uint8)


def check_against_oracle(a, rng):
    A = BitMatrix(a)
    greedy = greedy_columns(a)
    seen = set()
    for b in member_and_non_member_vectors(a, rng):
        member = oracle_member(a, b)
        seen.add(member)
        assert in_image(A, BitVec(b)) is member
        x = solve_linear(A, BitVec(b))
        assert (x is not None) is member
        if member:
            assert np.array_equal((a.astype(np.int64) @ x.bits) % 2, b)
            assert not np.delete(x.bits, greedy).any()  # unique on the greedy columns
    return seen


@pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
def test_membership_and_solve_across_word_boundaries(m):
    rng = np.random.default_rng(300 + m)
    seen = set()
    for l in (m // 2, m - 1, m + 1):
        seen |= check_against_oracle(rng.integers(0, 2, size=(m, l), dtype=np.uint8), rng)
    # rank deficient: every column a sum of the first m // 3
    base = rng.integers(0, 2, size=(m, m // 3), dtype=np.uint8)
    mix = rng.integers(0, 2, size=(m // 3, m // 2), dtype=np.uint8)
    low_rank = np.hstack([base, (base.astype(np.int64) @ mix % 2).astype(np.uint8)])
    assert BitMatrix(low_rank).rank() == oracle_rank(low_rank) < low_rank.shape[1]
    seen |= check_against_oracle(low_rank, rng)
    assert seen == {True, False}


def test_membership_runs_without_numpy_2_bit_counting(monkeypatch):
    # pyproject allows numpy 1.x, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = np.random.default_rng(365)
    assert check_against_oracle(rng.integers(0, 2, size=(130, 70), dtype=np.uint8), rng) == {True, False}


@pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
def test_an_all_zero_matrix_holds_only_zero(m):
    A = BitMatrix(np.zeros((m, 3), dtype=np.uint8))
    assert in_image(A, BitVec.zeros(m)) and solve_linear(A, BitVec.zeros(m)) == BitVec.zeros(3)
    for k in (0, m - 1):
        b = BitVec(np.eye(m, dtype=np.uint8)[k])
        assert not in_image(A, b) and solve_linear(A, b) is None


@pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
def test_a_square_full_rank_matrix_has_no_parity_checks(m):
    rng = np.random.default_rng(400 + m)
    while True:
        a = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
        if oracle_rank(a) == m:
            break
    A = BitMatrix(a)
    assert A._reduced_basis()[0].shape[0] == 0  # H is empty: everything is a member
    for _ in range(5):
        b = rng.integers(0, 2, size=m, dtype=np.uint8)
        x = solve_linear(A, BitVec(b))
        assert in_image(A, BitVec(b)) and np.array_equal((a.astype(np.int64) @ x.bits) % 2, b)


@pytest.mark.parametrize("m, n", [(64, 63), (64, 65), (65, 64), (129, 128), (8, 0)])
def test_membership_rejects_a_vector_of_the_wrong_length(m, n):
    A = BitMatrix(np.eye(m, 3, dtype=np.uint8))
    for query in (in_image, solve_linear):
        with pytest.raises(ValueError):
            query(A, BitVec.zeros(n))


def test_rank_and_keygen_never_build_stage_two(monkeypatch):
    built = []
    stage_two = BitMatrix._reduced_basis
    monkeypatch.setattr(BitMatrix, "_reduced_basis",
                        lambda self: built.append(self) or stage_two(self))
    rng = np.random.default_rng(41)
    A = BitMatrix(rng.integers(0, 2, (80, 60), dtype=np.uint8))
    assert A.rank() == oracle_rank(A.array)
    pub, _ = gen_instance(XlpnParams(m=80, l=60, tau=Fraction(1, 4)), rng)
    assert built == [] and A._reduced is None and pub.A._reduced is None
    assert in_image(pub.A, pub.y ^ pub.y) and built == [pub.A]
    assert pub.A._reduced is not None


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
            A = BitMatrix(rng.integers(0, 2, (9, 6), dtype=np.uint8))
            if A.rank() == 6:
                break
        x_true = BitVec.random(6, rng)
        b = mat_vec_mul(A, x_true)
        assert solve_linear(A, b) == x_true  # full column rank: only one answer


# columns of a drawn matrix: random, zero, a repeat, or the sum of two earlier ones
COLUMN_KINDS = ("random", "zero", "repeat", "sum")


def drawn_bits(data, m):
    value = data.draw(st.integers(0, (1 << m) - 1))
    return np.array([(value >> i) & 1 for i in range(m)], dtype=np.uint8)


def drawn_matrix(data):
    """A small matrix of heights around the 64-bit word edge, often l >= m."""
    m = data.draw(st.sampled_from([1, 2, 3, 5, 8, 63, 64, 65]), label="m")
    l = data.draw(st.integers(1, 12), label="l")
    cols = []
    for j in range(l):
        kind = data.draw(st.sampled_from(COLUMN_KINDS if j else COLUMN_KINDS[:2]))
        if kind == "random":
            cols.append(drawn_bits(data, m))
        elif kind == "zero":
            cols.append(np.zeros(m, dtype=np.uint8))
        else:
            i, k = data.draw(st.integers(0, j - 1)), data.draw(st.integers(0, j - 1))
            cols.append(cols[i] if kind == "repeat" else cols[i] ^ cols[k])
    return np.column_stack(cols)


if given is not None:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_basis_answers_match_independent_oracles(data):
        a = drawn_matrix(data)
        m, l = a.shape
        A = BitMatrix(a)
        greedy = greedy_columns(a)
        assert A.rank() == oracle_rank(a) == len(greedy)
        image = image_set(a.tolist(), l) if l <= 10 else None
        for _ in range(6):
            if data.draw(st.booleans(), label="member"):
                x = np.array([data.draw(st.integers(0, 1)) for _ in range(l)], dtype=np.int64)
                b = ((a.astype(np.int64) @ x) % 2).astype(np.uint8)
            else:
                b = drawn_bits(data, m)
            member = tuple(b.tolist()) in image if image is not None else oracle_member(a, b)
            assert in_image(A, BitVec(b)) is member
            x = solve_linear(A, BitVec(b))
            assert (x is not None) is member
            if member:
                assert np.array_equal((a.astype(np.int64) @ x.bits) % 2, b)
                assert not np.delete(x.bits, greedy).any()  # on the greedy columns, so unique
else:
    @pytest.mark.skip(reason="needs hypothesis")
    def test_basis_answers_match_independent_oracles():
        pass


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
