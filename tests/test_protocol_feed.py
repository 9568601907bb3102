"""Property test: feed() never raises on peer input, in any reachable state."""
import json
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedzkp import protocol  # noqa: E402
from fedzkp.lpn import XlpnParams, gen_instance  # noqa: E402
from fedzkp.protocol import ProverSession, VerifierSession  # noqa: E402
from fedzkp.watermark import aggregate, hash_watermark  # noqa: E402

PARAMS = XlpnParams(m=48, l=32, tau=Fraction(1, 4))
D = 2
L_COM = 128
ERR_N = 8

_rng = np.random.default_rng(41)
PAIRS = [gen_instance(PARAMS, _rng) for _ in range(2)]
AGG = aggregate([pub for pub, _ in PAIRS])
WM = hash_watermark(AGG, 64)

# (role, state, whether the verifier's memo holds AGG when the session is
# built and fed).  Only a miss reaches the prover's VALIDITY_RESULT and the
# verifier's AGG_INPUT; a verifier's HELLO is tried against both memos.
STATES = [("prover", s, s != "VALIDITY_RESULT") for s in
          ("START", "AGG_REQUEST|VALIDITY_RESULT", "VALIDITY_RESULT", "CHALLENGE",
           "ROUND_RESULT", "SESSION_RESULT", "DONE")]
STATES += [("verifier", "HELLO", False), ("verifier", "HELLO", True),
           ("verifier", "AGG_INPUT", False)]
STATES += [("verifier", s, True) for s in ("COMMIT", "RESPONSE", "DONE")]


def pair():
    prover = ProverSession(PAIRS[0][1], AGG, PARAMS, 0, D, np.random.default_rng(1), L_COM)
    verifier = VerifierSession(WM.h, ERR_N, D, np.random.default_rng(2), L_COM)
    return prover, verifier


def session_in(role, state, warm):
    """A session of `role` that an honest run has brought to `state`, with
    the verifier memo holding AGG (`warm`) or nothing beforehand."""
    protocol._last_valid = WARM if warm else None
    prover, verifier = pair()
    target = prover if role == "prover" else verifier
    pending = [] if target.state == state else [(verifier, x) for x in prover.start()]
    while target.state != state:
        to, line = pending.pop(0)
        peer = prover if to is verifier else verifier
        pending += [(peer, reply) for reply in to.feed(line)]
    return target


# every message of an honest run that misses the memo, both directions, as
# the seed of a mutation; and the memo entry that run leaves
_saved = protocol._last_valid
try:
    WARM = None
    HONEST = [json.loads(line) for line in session_in("verifier", "DONE", False).transcript]
    WARM = protocol._last_valid
finally:
    protocol._last_valid = _saved
HOSTILE = ["[" * 100_000, '{"type":"HELLO","session":"s","seq":' + "9" * 5000 + "}"]

scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats() | st.text(max_size=20))
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                           max_leaves=12)


@st.composite
def messages(draw, session):
    """An honest message addressed to the session as it stands, maybe altered.

    Half of them have the type the session awaits, so they reach its _step.
    """
    awaited = [msg for msg in HONEST if msg["type"] in session.state.split("|")] or HONEST
    msg = {**draw(st.sampled_from(awaited) | st.sampled_from(HONEST)),
           "session": session.session_id or "s", "seq": session._seq_in + 1}
    for key in draw(st.lists(st.sampled_from(sorted(msg)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del msg[key]
        else:
            msg[key] = draw(json_values)
    return json.dumps(msg)


JUNK = st.text() | json_values.map(json.dumps) | st.sampled_from(HOSTILE)


@pytest.fixture(autouse=True, scope="module")
def keep_the_memo():
    saved = protocol._last_valid
    yield
    protocol._last_valid = saved


@pytest.mark.parametrize("role,state,warm", STATES, ids=[
    f"{r}-{s}" + ("-hit" if (r, s, w) == ("verifier", "HELLO", True) else "")
    for r, s, w in STATES])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_feed_never_raises_and_replies_with_json_objects(role, state, warm, data):
    session = session_in(role, state, warm)
    settled = session.summary() if session.done else None
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["message", "message", "message", "junk"]))
        line = data.draw(messages(session) if kind == "message" else JUNK)
        for reply in session.feed(line):
            assert isinstance(json.loads(reply), dict)
    if settled is not None:
        assert session.summary() == settled
