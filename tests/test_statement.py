"""The canonical statement bytes: round trips, refusals, one encoding each."""
import struct
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedzkp.gf2 import BitVec  # noqa: E402
from fedzkp.lpn import SEED_BYTES, PublicInput, XlpnParams, gen_instance  # noqa: E402
from fedzkp.watermark import (  # noqa: E402
    DOMAIN_TAG,
    aggregate,
    canonical_bytes,
    from_canonical_bytes,
)

ODD = XlpnParams(m=50, l=33, tau=Fraction(1, 4))  # 3*m not a multiple of 8


def statement(K, m, l, w, seeds=None, y=None, tag=DOMAIN_TAG):
    """Hand-built canonical bytes; zero seeds and y bits by default."""
    seeds = bytes(K * SEED_BYTES) if seeds is None else seeds
    y = bytes((K * m + 7) // 8) if y is None else y
    return tag + struct.pack("<IIII", K, m, l, w) + seeds + y


def test_round_trip_with_padding_in_both_blocks():
    rng = np.random.default_rng(11)
    agg = aggregate([gen_instance(ODD, rng)[0] for _ in range(3)])
    assert (3 * ODD.m) % 8
    blob = canonical_bytes(agg)
    assert len(blob) == len(DOMAIN_TAG) + 16 + 3 * SEED_BYTES + (3 * ODD.m + 7) // 8
    back = from_canonical_bytes(blob)
    assert back == agg and back.w == ODD.w and canonical_bytes(back) == blob
    # every slot is a view into one unpacked y block, and no matrix is expanded
    owner = back.parts[0].y.bits.base
    assert owner is not None and all(p.y.bits.base is owner for p in back.parts)
    assert not any("A" in vars(p) for p in back.parts)
    assert all(np.array_equal(b.A.array, a.A.array) for b, a in zip(back.parts, agg.parts))


def test_the_largest_weight_is_m_over_two():
    assert from_canonical_bytes(statement(1, 9, 4, 4)).w == 4
    assert from_canonical_bytes(statement(1, 8, 4, 4)).w == 4


def _set_last_bit(blob, at):
    at %= len(blob)
    return blob[:at] + bytes([blob[at] | 1]) + blob[at + 1:]


# (case, bytes, what the error names)
REFUSED = [
    ("bad_tag", statement(1, 8, 4, 2, tag=b"FEDZKP-H1"), "FEDZKP-H3"),
    ("matrix_statement", statement(1, 8, 4, 2, seeds=bytes(4), tag=b"FEDZKP-H2"), "FEDZKP-H3"),
    ("short_header", statement(1, 8, 4, 2)[:20], "truncated"),
    ("no_clients", statement(0, 8, 4, 2), "client input"),
    ("m_equals_l", statement(1, 8, 8, 2), "m > l"),
    ("m_below_l", statement(1, 4, 8, 2), "m > l"),
    ("l_zero", statement(1, 8, 0, 2), "m > l"),
    ("weight_above_half_m", statement(1, 9, 4, 5), "weight"),
    ("short", statement(1, 8, 4, 2)[:-1], "bytes"),
    ("trailing", statement(1, 8, 4, 2) + b"\x00", "bytes"),
    ("y_padding_bit", _set_last_bit(statement(1, 9, 3, 2), -1), "y block"),
]


@pytest.mark.parametrize("blob, match", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_the_parser_refuses(blob, match):
    with pytest.raises(ValueError, match=match):
        from_canonical_bytes(blob)


def _clear_padding(block: bytes, bits: int) -> bytes:
    if not block or not bits % 8:
        return block
    return block[:-1] + bytes([block[-1] & (0xFF << (8 - bits % 8)) & 0xFF])


@st.composite
def near_statements(draw):
    """Bytes shaped like a statement: small sizes, any bits, padding
    cleared or not, maybe a wrong tag, maybe a byte short or a byte over."""
    K, l = draw(st.integers(0, 3)), draw(st.integers(0, 8))
    m = max(0, l + draw(st.integers(-1, 6)))
    w = draw(st.integers(0, m // 2 + 1))
    seeds = draw(st.binary(min_size=K * SEED_BYTES, max_size=K * SEED_BYTES))
    y = draw(st.binary(min_size=(K * m + 7) // 8, max_size=(K * m + 7) // 8))
    if draw(st.booleans()):
        y = _clear_padding(y, K * m)
    body = seeds + y
    tag = draw(st.sampled_from([DOMAIN_TAG] * 5 + [b"FEDZKP-H2"]))
    blob = tag + struct.pack("<IIII", K, m, l, w) + body
    return draw(st.sampled_from([blob, blob, blob, blob[:-1], blob + b"\x00"]))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.binary(max_size=64) | near_statements())
def test_each_statement_has_exactly_one_encoding(blob):
    try:
        agg = from_canonical_bytes(blob)
    except ValueError:
        return
    assert canonical_bytes(agg) == blob


@settings(derandomize=True, deadline=None, max_examples=120)
@given(K=st.integers(1, 5), m=st.integers(2, 40), data=st.data())
def test_canonical_bytes_are_one_packing_of_each_concatenated_block(K, m, data):
    # the seeds back to back, then every y as one bit string packed once;
    # the oracle packs by hand, bit by bit
    l = data.draw(st.integers(1, m - 1), label="l")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = [PublicInput(rng.bytes(SEED_BYTES), l, BitVec.random(m, rng), m // 2)
             for _ in range(K)]
    bits = "".join(str(b) for p in parts for b in p.y.bits)
    bits += "0" * (-len(bits) % 8)
    oracle = (DOMAIN_TAG + struct.pack("<IIII", K, m, l, m // 2)
              + b"".join(p.seed for p in parts)
              + bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8)))
    assert canonical_bytes(aggregate(parts)) == oracle

