"""Dense linear algebra over GF(2): bit vectors, bit matrices, permutations.

Values keep one bit per byte (numpy uint8, each entry 0 or 1) so that
elementwise work, matrix application and packing all run in C.  A matrix
answers column-space questions from a basis built lazily in two stages.
Stage 1, all that rank() needs, is the XOR-echelon pass over the columns
as Python integers, each holding a column and the columns that make it
up, pivoting on its highest set row: a reduction step is one XOR at any
height.  Stage 2, built on the first membership or solve query,
back-substitutes that basis into reduced form and keeps it as packed
uint64 words: the parity-check rows H of the column space and, per
pivot, the columns that XOR to its reduced vector.  b is in the image
iff every row of H meets it in an even number of bits.

Serialization convention used by every module downstream: bits pack 8 per
byte, most significant bit first within each byte.  A permutation's byte
form is the 32-byte seed it is expanded from (Permutation.from_bytes), so
it takes 32 bytes on the wire and inside a commitment at every m; one
built from a map has none.  A matrix has no byte form either: a statement
names its matrix by a seed (lpn).  Length headers, when a format needs
them, are the caller's job.

All values are immutable after construction and safe to share across
threads.  Nothing here is constant-time; this is research code, not
production cryptography.
"""
from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = [
    "BitVec",
    "BitMatrix",
    "Permutation",
    "mat_vec_mul",
    "solve_linear",
    "in_image",
    "hamming_distance",
    "sample_fixed_weight",
]

PERM_SEED_BYTES = 32
PERM_TAG = b"FEDZKP-P1"


def _as_bit_array(bits, ndim: int) -> np.ndarray:
    arr = np.array(bits, dtype=np.uint8, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional bit array, got shape {arr.shape}")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bit entries must be 0 or 1")
    return arr


# _BYTE_PARITY[x] is True iff the byte x has an odd number of set bits
_BYTE_PARITY = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1) & 1
).astype(bool)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a 0/1 array into little-endian uint64 words.

    Bit k lands in word k // 64 at bit k % 64.  The padding past the last
    bit is zero, so two packed rows ANDed together count only real bits.
    """
    n = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + ((n + 63) // 64 * 8,), dtype=np.uint8)
    out[..., :(n + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


class BitVec:
    """Immutable bit vector over GF(2)."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = _as_bit_array(bits, 1)
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitVec":
        # fast path for internal results: takes ownership, skips validation
        vec = object.__new__(cls)
        arr.setflags(write=False)  # about half the cost of assigning flags.writeable
        vec._bits = arr
        return vec

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls._wrap(np.zeros(n, dtype=np.uint8))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVec":
        return cls._wrap(rng.integers(0, 2, size=n, dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i) -> int:
        return int(self._bits[i])

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self._bits.size != other._bits.size:
            raise ValueError("length mismatch in BitVec xor")
        return BitVec._wrap(self._bits ^ other._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        # bits are 0/1 bytes: equal bytes mean equal vectors, without array_equal's overhead
        return self._bits.size == other._bits.size and self._bits.tobytes() == other._bits.tobytes()

    def __hash__(self) -> int:
        return hash((self._bits.size, self.to_bytes()))

    def __repr__(self) -> str:
        body = "".join(str(int(b)) for b in self._bits[:64])
        if len(self) > 64:
            body += "..."
        return f"BitVec(len={len(self)}, {body})"

    def weight(self) -> int:
        """Hamming weight."""
        return int(np.count_nonzero(self._bits))

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padded to a byte boundary."""
        return np.packbits(self._bits).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitVec":
        """Inverse of to_bytes; rejects wrong lengths and nonzero padding."""
        if len(data) != (n + 7) // 8:
            raise ValueError(f"expected {(n + 7) // 8} bytes for {n} bits, got {len(data)}")
        raw = np.frombuffer(data, dtype=np.uint8)
        full = np.unpackbits(raw)
        if full[n:].any():
            raise ValueError("nonzero padding bits")
        return cls._wrap(full[:n].copy())


class BitMatrix:
    """Immutable matrix over GF(2), row-major, one bit per byte."""

    __slots__ = ("_a", "_basis", "_reduced")

    def __init__(self, rows):
        arr = _as_bit_array(rows, 2)
        arr.setflags(write=False)
        self._a = arr
        self._basis = None
        self._reduced = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitMatrix":
        mat = object.__new__(cls)
        arr.setflags(write=False)
        mat._a = arr
        mat._basis = None
        mat._reduced = None
        return mat

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def rank(self) -> int:
        return len(self._column_basis())

    def _column_basis(self) -> dict:
        """XOR-echelon basis of the column space: pivot row -> entry.

        Column j enters as vector << cols | 1 << j, the low bits recording
        which original columns XOR to the vector, so one XOR reduces both.
        An entry's pivot is its vector's highest set row; a column whose
        vector reduces to zero (pivot below 0) is dependent.  Built once
        and cached; rebuilding is idempotent, so the unlocked cache write
        is benign under concurrent use.
        """
        if self._basis is None:
            basis: dict = {}
            m, l = self._a.shape
            if m and l:
                packed = np.packbits(self._a, axis=0, bitorder="little").tobytes(order="F")
                stride = (m + 7) // 8
                for j in range(l):
                    w = int.from_bytes(packed[j * stride:(j + 1) * stride], "little") << l | 1 << j
                    while (p := w.bit_length() - 1 - l) >= 0:
                        hit = basis.get(p)
                        if hit is None:
                            basis[p] = w
                            break
                        w ^= hit
            self._basis = basis
        return self._basis

    def _reduced_basis(self) -> tuple:
        """(H, pivots, combos): stage 2 of the column basis, built on first use.

        Back-substitution clears every other pivot bit from each entry,
        lowest pivot first: those bits all lie below the entry's own pivot,
        so it XORs in only already reduced entries.  In reduced form a
        member b is the XOR of the vectors at the pivots where b is set,
        which gives what is kept here, H and combos as uint64 words:

        - H, one parity-check row per non-pivot row n of A: bit n, and bit
          p for each pivot p whose reduced vector has bit n set.  b is in
          the column space iff every row of H is even on b.
        - pivots, the pivot row positions, and combos, row i the original
          columns that XOR to the reduced vector at pivots[i].

        Cached like the stage-1 basis, with the same benign race.
        """
        if self._reduced is None:
            basis = self._column_basis()
            m, l, r = self.rows, self.cols, len(basis)
            pivots = sorted(basis)
            mask = sum(1 << p for p in pivots)
            reduced: dict = {}
            for p in pivots:
                w = basis[p]
                hits = (w >> l ^ 1 << p) & mask  # the other pivots set, all below p
                while hits:
                    q = hits.bit_length() - 1
                    w ^= reduced[q]
                    hits ^= 1 << q
                reduced[p] = w
            width = m + l
            stride = (width + 7) // 8
            data = b"".join(w.to_bytes(stride, "little") for w in reduced.values())
            rows = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(r, stride),
                                 axis=1, count=width, bitorder="little")
            pivots = np.array(pivots, dtype=np.int64)
            free = np.delete(np.arange(m), pivots)
            checks = np.zeros((m - r, m), dtype=np.uint8)
            checks[:, pivots] = rows[:, l + free].T
            checks[np.arange(m - r), free] = 1
            self._reduced = (_pack_words(checks), pivots, _pack_words(rows[:, :l]))
        return self._reduced


class Permutation:
    """Bijection on {0..m-1}; input position i lands at position map[i]."""

    __slots__ = ("_map", "_inv", "_seed")

    def __init__(self, mapping):
        arr = np.array(mapping, dtype=np.int64, copy=True)
        if arr.ndim != 1 or not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("a permutation map lists each of 0..m-1 exactly once")
        arr.setflags(write=False)
        self._map, self._inv, self._seed = arr, None, None

    @classmethod
    def _wrap(cls, arr: np.ndarray, seed: Optional[bytes] = None) -> "Permutation":
        p = object.__new__(cls)
        arr.setflags(write=False)
        p._map, p._inv, p._seed = arr, None, seed
        return p

    @classmethod
    def random(cls, m: int, rng: np.random.Generator) -> "Permutation":
        """The permutation a fresh seed names, drawing again on a tie."""
        while True:
            try:
                return cls.from_bytes(rng.bytes(PERM_SEED_BYTES), m)
            except ValueError:  # the keys tied
                pass

    def __len__(self) -> int:
        return self._map.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return bool(np.array_equal(self._map, other._map))

    def __hash__(self) -> int:
        return hash(self._map.tobytes())

    def apply(self, a: BitVec) -> BitVec:
        """out[map[i]] = a[i]."""
        if len(a) != self._map.size:
            raise ValueError("permutation domain size does not match vector length")
        out = np.empty(self._map.size, dtype=np.uint8)
        out[self._map] = a.bits
        return BitVec._wrap(out)

    def inverse(self) -> "Permutation":
        if self._inv is None:
            inv = np.empty_like(self._map)
            inv[self._map] = np.arange(self._map.size)
            self._inv = Permutation._wrap(inv)
        return self._inv

    def to_bytes(self) -> bytes:
        """The seed this permutation was expanded from; one built from a map,
        or an inverse, has no byte form."""
        if self._seed is None:
            raise ValueError("only a permutation expanded from a seed has a byte form")
        return self._seed

    @classmethod
    def from_bytes(cls, seed: bytes, m: int) -> "Permutation":
        """The permutation on {0..m-1} that a 32-byte seed names: the argsort
        of its _perm_keys.  A seed whose keys tie names none and is refused."""
        if len(seed) != PERM_SEED_BYTES:
            raise ValueError(f"expected a {PERM_SEED_BYTES}-byte seed, got {len(seed)} bytes")
        keys = _perm_keys(seed, m)
        order = np.argsort(keys)
        ranked = keys[order]
        if (ranked[1:] == ranked[:-1]).any():
            raise ValueError("the seed's keys tie, so it names no permutation")
        return cls._wrap(order, bytes(seed))


def _perm_keys(seed: bytes, m: int) -> np.ndarray:
    """m little-endian u32 keys: SHAKE-256 over PERM_TAG, u32le(m) and the seed."""
    stream = hashlib.shake_256(PERM_TAG + m.to_bytes(4, "little") + seed).digest(4 * m)
    return np.frombuffer(stream, dtype="<u4")


def mat_vec_mul(A: BitMatrix, x: BitVec) -> BitVec:
    """A @ x over GF(2)."""
    if len(x) != A.cols:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} times len {len(x)}")
    # uint8 matmul accumulates mod 256; parity is preserved because 256 is even
    return BitVec._wrap((A.array @ x.bits) & 1)


def solve_linear(A: BitMatrix, b: BitVec) -> Optional[BitVec]:
    """Some x with A @ x = b, or None if b is outside the column space.

    Deterministic: the returned solution is supported on the greedy
    (first-come) independent column set, every other coordinate is 0.
    Unique automatically when A has full column rank.
    """
    if not in_image(A, b):
        return None
    _, pivots, combos = A._reduced_basis()
    x = np.bitwise_xor.reduce(combos[b.bits[pivots] == 1], axis=0)
    return BitVec._wrap(np.unpackbits(x.view(np.uint8), count=A.cols, bitorder="little"))


def in_image(A: BitMatrix, b: BitVec) -> bool:
    """True iff b lies in the column space of A: no parity check is odd on b."""
    if len(b) != A.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} against len {len(b)}")
    checks = A._reduced_basis()[0]
    # a row's parity is the parity of the XOR of its bytes
    folded = np.bitwise_xor.reduce((checks & _pack_words(b.bits)).view(np.uint8), axis=1)
    return not _BYTE_PARITY[folded].any()


def hamming_distance(a: BitVec, b: BitVec) -> int:
    """Number of positions where a and b differ."""
    if len(a) != len(b):
        raise ValueError("length mismatch in hamming_distance")
    return int(np.count_nonzero(a.bits != b.bits))


def sample_fixed_weight(m: int, w: int, rng: np.random.Generator) -> BitVec:
    """Uniform vector of length m with Hamming weight exactly w."""
    if not 0 <= w <= m:
        raise ValueError(f"weight {w} out of range for length {m}")
    out = np.zeros(m, dtype=np.uint8)
    if w:
        out[rng.choice(m, size=w, replace=False)] = 1
    return BitVec._wrap(out)
