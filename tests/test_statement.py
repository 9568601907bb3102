"""The canonical statement bytes: round trips, refusals, one encoding each."""
import struct
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedzkp.gf2 import BitMatrix, BitVec  # noqa: E402
from fedzkp.lpn import PublicInput, XlpnParams, gen_instance  # noqa: E402
from fedzkp.watermark import (  # noqa: E402
    DOMAIN_TAG,
    aggregate,
    canonical_bytes,
    from_canonical_bytes,
)

ODD = XlpnParams(m=50, l=33, tau=Fraction(1, 4))  # m*l and m not multiples of 8


def statement(K, m, l, w, a=None, y=None, tag=DOMAIN_TAG):
    """Hand-built canonical bytes; zero bit blocks of the right size by default."""
    a = bytes((K * m * l + 7) // 8) if a is None else a
    y = bytes((K * m + 7) // 8) if y is None else y
    return tag + struct.pack("<IIII", K, m, l, w) + a + y


def test_round_trip_with_padding_in_both_blocks():
    rng = np.random.default_rng(11)
    agg = aggregate([gen_instance(ODD, rng)[0] for _ in range(3)])
    assert (3 * ODD.m * ODD.l) % 8 and (3 * ODD.m) % 8
    blob = canonical_bytes(agg)
    back = from_canonical_bytes(blob)
    assert back == agg and back.w == ODD.w and canonical_bytes(back) == blob
    # every slot is a view into one unpacked A block, not a copy of its own
    owner = back.parts[0].A.array.base
    assert owner is not None and all(p.A.array.base is owner for p in back.parts)


def test_the_largest_weight_is_m_over_two():
    assert from_canonical_bytes(statement(1, 9, 4, 4)).w == 4
    assert from_canonical_bytes(statement(1, 8, 4, 4)).w == 4


def _set_last_bit(blob, at):
    at %= len(blob)
    return blob[:at] + bytes([blob[at] | 1]) + blob[at + 1:]


# (case, bytes, what the error names)
REFUSED = [
    ("bad_tag", statement(1, 8, 4, 2, tag=b"FEDZKP-H1"), "FEDZKP-H2"),
    ("short_header", statement(1, 8, 4, 2)[:20], "truncated"),
    ("no_clients", statement(0, 8, 4, 2), "client input"),
    ("m_equals_l", statement(1, 8, 8, 2), "m > l"),
    ("m_below_l", statement(1, 4, 8, 2), "m > l"),
    ("l_zero", statement(1, 8, 0, 2), "m > l"),
    ("weight_above_half_m", statement(1, 9, 4, 5), "weight"),
    ("short", statement(1, 8, 4, 2)[:-1], "bytes"),
    ("trailing", statement(1, 8, 4, 2) + b"\x00", "bytes"),
    ("a_padding_bit", _set_last_bit(statement(1, 9, 3, 2), len(DOMAIN_TAG) + 16 + 3), "A block"),
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
    a_bits, y_bits = K * m * l, K * m
    a = draw(st.binary(min_size=(a_bits + 7) // 8, max_size=(a_bits + 7) // 8))
    y = draw(st.binary(min_size=(y_bits + 7) // 8, max_size=(y_bits + 7) // 8))
    if draw(st.booleans()):
        a, y = _clear_padding(a, a_bits), _clear_padding(y, y_bits)
    body = a + y
    tag = draw(st.sampled_from([DOMAIN_TAG] * 5 + [b"FEDZKP-H1"]))
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
    # the writer packs slot by slot; the oracle concatenates every slot first
    l = data.draw(st.integers(1, m - 1), label="l")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = [PublicInput(BitMatrix.random(m, l, rng), BitVec.random(m, rng), m // 2)
             for _ in range(K)]
    oracle = (DOMAIN_TAG + struct.pack("<IIII", K, m, l, m // 2)
              + np.packbits(np.concatenate([p.A.array.ravel() for p in parts])).tobytes()
              + np.packbits(np.concatenate([p.y.bits for p in parts])).tobytes())
    assert canonical_bytes(aggregate(parts)) == oracle

