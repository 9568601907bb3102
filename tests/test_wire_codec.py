"""Binary wire fields: one canonical base64 spelling each, and what they cost."""
import base64
import json
import math
import string
from fractions import Fraction

import numpy as np
import pytest

from fedzkp import costs, protocol
from fedzkp.commitments import OPENING_BYTES
from fedzkp.lpn import XlpnParams, gen_instance
from fedzkp.protocol import ProtocolError, ProverSession, VerifierSession
from fedzkp.watermark import aggregate, hash_watermark

# m=73 leaves every payload short of a multiple of 3 bytes, so each one ends
# in padding: the 10-byte t, 16-byte C at L_COM=128, 32-byte pi seed, digest
# and openings, and the 116-byte aggregate of K=2.
PARAMS = XlpnParams(m=73, l=32, tau=Fraction(1, 4))
L_COM = 128
ERR_N = 8
D = 40
ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
FIELDS = [("HELLO", "digest"), ("AGG_INPUT", "aggregate")]
FIELDS += [("COMMIT", k) for k in ("C0", "C1", "C2")]
FIELDS += [("RESPONSE", k) for k in ("pi", "t0", "t1", "t2", "d0", "d1", "d2")]
BINARY_FIELDS = {field for _, field in FIELDS}


def b64(raw):
    return base64.b64encode(raw).decode()


def unb64(text):
    return base64.b64decode(text, validate=True)


def encoded_len(n):
    return 4 * math.ceil(n / 3)


def trailing_bit_set(text):
    """`text` with the zero trailing bits of its last data character made nonzero."""
    i = len(text.rstrip("=")) - 1
    return text[:i] + ALPHABET[ALPHABET.index(text[i]) + 1] + text[i + 1:]


# every other way to write a field's bytes `raw`, whose canonical spelling is `text`
SPELLINGS = {
    "missing_padding": lambda raw, text: text.rstrip("="),
    "trailing_bits": lambda raw, text: trailing_bit_set(text),
    "space": lambda raw, text: text[:4] + " " + text[4:],
    "newline": lambda raw, text: text[:4] + "\n" + text[4:],
    "url_safe": lambda raw, text: base64.urlsafe_b64encode(raw).decode(),
    "hex": lambda raw, text: raw.hex(),
    "non_ascii": lambda raw, text: text[:4] + "é" + text[5:],
    "non_string": lambda raw, text: list(raw),
}


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(3)
    pairs = [gen_instance(PARAMS, rng) for _ in range(2)]
    agg = aggregate([pub for pub, _ in pairs])
    return pairs, agg, hash_watermark(agg, 64)


def line_to_verifier(world, mtype, field):
    """A verifier and the honest prover line it is fed next: the first line of
    type `mtype` whose `field` is spelled with a '+' or a '/', so that the
    URL-safe alphabet spells it otherwise."""
    pairs, agg, wm = world
    prover = ProverSession(pairs[1][1], agg, PARAMS, 1, D, np.random.default_rng(4), L_COM)
    verifier = VerifierSession(wm.h, ERR_N, D, np.random.default_rng(5), L_COM)
    pending = list(prover.start())
    while pending:
        doc = json.loads(pending.pop(0))
        if doc["type"] == mtype and set(doc.get(field, "")) & {"+", "/"}:
            return verifier, doc
        for reply in verifier.feed(json.dumps(doc)):
            pending.extend(prover.feed(reply))
    raise AssertionError(f"no {mtype} line spells {field} with '+' or '/'")


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("mtype, field", FIELDS, ids=[field for _, field in FIELDS])
def test_any_other_spelling_of_a_field_draws_an_error(world, mtype, field, spelling,
                                                      monkeypatch):
    monkeypatch.setattr(protocol, "_last_valid", None)  # so the verifier asks for AGG_INPUT
    verifier, doc = line_to_verifier(world, mtype, field)
    text = doc[field]
    raw = unb64(text)
    assert len(raw) % 3 and text == b64(raw)  # padded and canonical
    spelled = SPELLINGS[spelling](raw, text)
    assert spelled != text
    out = verifier.feed(json.dumps({**doc, field: spelled}))
    assert [json.loads(line)["type"] for line in out] == ["ERROR"]
    assert verifier.done and not verifier.accepted
    assert f"field {field!r}" in verifier.reason


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


@given(st.binary(max_size=300))
def test_bytes_round_trip_through_their_one_spelling(raw):
    text = protocol._b64(raw)
    assert text == b64(raw) and len(text) == encoded_len(len(raw))
    assert protocol._bytes_field({"f": text}, "f") == raw


@given(st.text(alphabet=ALPHABET + "=-_ \né", max_size=24))
def test_the_reader_accepts_only_the_canonical_spelling(text):
    try:
        raw = protocol._bytes_field({"f": text}, "f")
    except ProtocolError:
        return
    assert b64(raw) == text


def test_a_claims_bytes_are_its_framing_plus_4_ceil_n_over_3_per_field(monkeypatch):
    """A seeded d=300 honest session at the paper sizes, AGG_INPUT included.

    Every binary field of n bytes takes 4*ceil(n/3) characters, so the
    session's bytes are its JSON framing plus a sum that the challenge
    counts fix.  The closed form of costs.cost_report stays the paper's;
    the measured bytes are only set beside it.
    """
    monkeypatch.setattr(protocol, "_last_valid", None)
    K, m, l, l_com, d, n_bits, err_n = 10, 800, 700, 800, 300, 1024, 153
    params = XlpnParams(m=m, l=l, tau=Fraction(1, 4))
    rng = np.random.default_rng(7)
    pairs = [gen_instance(params, rng) for _ in range(K)]
    agg = aggregate([pub for pub, _ in pairs])
    prover = ProverSession(pairs[4][1], agg, params, 4, d, np.random.default_rng(8), l_com)
    verifier = VerifierSession(hash_watermark(agg, n_bits).h, err_n, d,
                               np.random.default_rng(9), l_com)
    pending = list(prover.start())
    while pending:
        for reply in verifier.feed(pending.pop(0)):
            pending.extend(prover.feed(reply))
    assert verifier.accepted and prover.accepted

    docs = [json.loads(line) for line in verifier.transcript]
    sizes = {"digest": 32, "aggregate": 33 + K * (32 + m // 8), "pi": 32,
             "t0": m // 8, "t1": m // 8, "t2": m // 8, "C0": l_com // 8,
             "C1": l_com // 8, "C2": l_com // 8,
             "d0": OPENING_BYTES, "d1": OPENING_BYTES, "d2": OPENING_BYTES}
    framing = 0
    for doc in docs:
        for k in BINARY_FIELDS & doc.keys():
            assert len(unb64(doc[k])) == sizes[k] and len(doc[k]) == encoded_len(sizes[k])
        framing += len(protocol._encode({k: "" if k in BINARY_FIELDS else v
                                         for k, v in doc.items()})) + 1
    counts = [sum(doc["type"] == "CHALLENGE" and doc["c"] == c for doc in docs)
              for c in range(3)]
    assert sum(counts) == d and min(counts) > 0

    enc = {k: encoded_len(n) for k, n in sizes.items()}
    opened = 2 * enc["t0"] + 2 * enc["d0"]  # two t's and their openings, any challenge
    predicted = (framing + enc["digest"] + enc["aggregate"]
                 + d * (enc["C0"] + enc["C1"] + enc["C2"] + opened)
                 + (counts[0] + counts[1]) * enc["pi"])
    measured = sum(len(line) + 1 for line in verifier.transcript)
    assert measured == predicted
    # about 0.35 MB against the 844,175 B the closed form bills a session
    assert costs.cost_report(K, m, l, d, l_com).communication_bits == 8 * 844_175
    assert 345_000 < measured < 360_000
