"""Dense linear algebra over GF(2): bit vectors, bit matrices, permutations.

Values keep one bit per byte (numpy uint8, each entry 0 or 1) so that
elementwise work, matrix application and packing all run in C.  Linear
solving instead packs each matrix column into a Python integer and runs
the standard XOR-echelon walk: the XOR of two columns is a single big-int
operation regardless of height.

Serialization convention used by every module downstream: bits pack 8 per
byte, most significant bit first within each byte; a matrix serializes
row-major as one continuous bit stream, zero-padded to a byte boundary at
the end.  Length headers, when a format needs them, are the caller's job.

All values are immutable after construction and safe to share across
threads.  Nothing here is constant-time; this is research code, not
production cryptography.
"""
from __future__ import annotations

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


def _as_bit_array(bits, ndim: int) -> np.ndarray:
    arr = np.array(bits, dtype=np.uint8, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional bit array, got shape {arr.shape}")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bit entries must be 0 or 1")
    return arr


def _pack_int(bits: np.ndarray) -> int:
    """Pack a 0/1 array into an int with bit k of the result = bits[k]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack_int(value: int, n: int) -> np.ndarray:
    data = value.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n, bitorder="little")


class BitVec:
    """Immutable bit vector over GF(2)."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = _as_bit_array(bits, 1)
        arr.flags.writeable = False
        self._bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitVec":
        # fast path for internal results: takes ownership, skips validation
        vec = object.__new__(cls)
        arr.flags.writeable = False
        vec._bits = arr
        return vec

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls._wrap(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitVec":
        return cls._wrap(np.ones(n, dtype=np.uint8))

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
        return bool(np.array_equal(self._bits, other._bits))

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

    __slots__ = ("_a", "_basis")

    def __init__(self, rows):
        arr = _as_bit_array(rows, 2)
        arr.flags.writeable = False
        self._a = arr
        self._basis = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitMatrix":
        mat = object.__new__(cls)
        arr.flags.writeable = False
        mat._a = arr
        mat._basis = None
        return mat

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls._wrap(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, m: int, l: int) -> "BitMatrix":
        return cls._wrap(np.zeros((m, l), dtype=np.uint8))

    @classmethod
    def random(cls, m: int, l: int, rng: np.random.Generator) -> "BitMatrix":
        return cls._wrap(rng.integers(0, 2, size=(m, l), dtype=np.uint8))

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def row(self, i: int) -> BitVec:
        return BitVec._wrap(self._a[i].copy())

    def col(self, j: int) -> BitVec:
        return BitVec._wrap(self._a[:, j].copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self._a.shape, self.to_bytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def to_bytes(self) -> bytes:
        """Row-major bit stream, MSB-first, padded only at the very end."""
        return np.packbits(self._a.ravel()).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, m: int, l: int) -> "BitMatrix":
        flat = BitVec.from_bytes(data, m * l)
        return cls._wrap(flat.bits.reshape(m, l).copy())

    def rank(self) -> int:
        return len(self._column_basis())

    def _column_basis(self) -> dict:
        """XOR-echelon basis of the column space, keyed by pivot low-bit.

        Each entry maps a power of two (the pivot, i.e. the first set row
        position of the stored vector) to a pair (vector, combination),
        where `combination` records which original columns XOR to
        `vector`.  Built once and cached; rebuilding is idempotent, so the
        unlocked cache write is benign under concurrent use.
        """
        if self._basis is None:
            basis: dict = {}
            a = self._a
            if a.shape[0] and a.shape[1]:
                packed = np.packbits(a, axis=0, bitorder="little").tobytes(order="F")
                stride = (a.shape[0] + 7) // 8
            for j in range(self.cols):
                v = int.from_bytes(packed[j * stride:(j + 1) * stride], "little") if self.rows else 0
                c = 1 << j
                while v:
                    low = v & -v
                    hit = basis.get(low)
                    if hit is None:
                        basis[low] = (v, c)
                        break
                    v ^= hit[0]
                    c ^= hit[1]
            self._basis = basis
        return self._basis


class Permutation:
    """Bijection on {0..m-1}; input position i lands at position map[i]."""

    __slots__ = ("_map", "_inv")

    def __init__(self, mapping):
        arr = np.array(mapping, dtype=np.int64, copy=True)
        if arr.ndim != 1:
            raise ValueError("permutation map must be one-dimensional")
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("not a bijection on 0..m-1")
        arr.flags.writeable = False
        self._map = arr
        self._inv = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Permutation":
        p = object.__new__(cls)
        arr.flags.writeable = False
        p._map = arr
        p._inv = None
        return p

    @classmethod
    def random(cls, m: int, rng: np.random.Generator) -> "Permutation":
        return cls._wrap(rng.permutation(m).astype(np.int64, copy=False))

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
            self._inv = Permutation._wrap(np.argsort(self._map))
        return self._inv

    def to_bytes(self) -> bytes:
        """Each index as 32-bit little-endian, in domain order."""
        return self._map.astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Permutation":
        if len(data) % 4:
            raise ValueError("permutation encoding must be a multiple of 4 bytes")
        arr = np.frombuffer(data, dtype="<u4").astype(np.int64)
        return cls(arr)


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
    if len(b) != A.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} against len {len(b)}")
    basis = A._column_basis()
    r = _pack_int(b.bits)
    x = 0
    while r:
        hit = basis.get(r & -r)
        if hit is None:
            return None
        r ^= hit[0]
        x ^= hit[1]
    return BitVec._wrap(_unpack_int(x, A.cols))


def in_image(A: BitMatrix, b: BitVec) -> bool:
    """True iff b lies in the column space of A."""
    return solve_linear(A, b) is not None


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
