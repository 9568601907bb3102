"""Wire protocol tests: sans-io state machines, TCP endpoints, replay."""
import hashlib
import json
import socket
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fedzkp import lpn, protocol
from fedzkp.commitments import Commitment
from fedzkp.gf2 import BitMatrix, BitVec, mat_vec_mul
from fedzkp.lpn import Credential, XlpnParams, gen_instance
from fedzkp.protocol import (
    ProverSession,
    TransportError,
    VerifierSession,
    decode_aggregate,
    encode_aggregate,
    encode_msg1,
    encode_response,
    run_prover_endpoint,
    run_verifier_endpoint,
)
from fedzkp.sigma import Challenge, RoundMessage1, simulate_round
from fedzkp.storage import (KIND_AGGREGATE, MAGIC, load_aggregate, save_aggregate,
                            save_public_input)
from fedzkp.watermark import (DOMAIN_TAG, aggregate, canonical_bytes, hash_watermark,
                              select_component)

PARAMS = XlpnParams(m=48, l=32, tau=Fraction(1, 4))
N_BITS = 64
ERR_N = 8
L_COM = 128
THIRD = XlpnParams(m=PARAMS.m, l=PARAMS.l, tau=Fraction(1, 3))  # w = 16
SAME_W = XlpnParams(m=PARAMS.m, l=PARAMS.l, tau=Fraction(6, 25))  # another tau, w = 12


def make_world(seed=0, K=3, params=PARAMS):
    rng = np.random.default_rng(seed)
    pairs = [gen_instance(params, rng) for _ in range(K)]
    agg = aggregate([pub for pub, _ in pairs])
    wm = hash_watermark(agg, N_BITS)
    return rng, pairs, agg, wm


def relabel(agg, w):
    """agg's seeds and y under the weight w: the same bits, another statement."""
    return aggregate([replace(p, w=w) for p in agg.parts])


# lines json.loads itself fails on outside JSONDecodeError
DEEP_NESTING = "[" * 100_000  # RecursionError
HUGE_SEQ = '{"type":"HELLO","session":"s","seq":' + "9" * 5000 + "}"  # int digit limit
HOSTILE_LINES = ("this is not json\n", DEEP_NESTING, HUGE_SEQ)
ZERO_DIGEST = "00" * 32  # hashes no aggregate here, so a verifier always asks for it
# SHAKE-256 of both sides' lines of one seeded honest session, frozen once:
# a change means a prover's or a verifier's bytes moved at a fixed seed
HONEST_SESSION_PIN = "05c4f3d1f1651d78adc32554860d8d47"


def shake(blob):
    return hashlib.shake_256(blob).hexdigest(32)


def types(lines):
    return [json.loads(line)["type"] for line in lines]


def flip_hex(text, i):
    """`text` with hex digit i changed, so one byte of the payload differs."""
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


def drive(prover, verifier):
    """Pump lines between the two sans-io sessions until both settle."""
    pending = list(prover.start())
    while pending:
        line = pending.pop(0)
        replies = verifier.feed(line)
        for reply in replies:
            pending.extend(prover.feed(reply))
    return prover, verifier


def repack_pi(text, m, edit):
    """Hex of a pi encoding with its indices passed through `edit`, packed again."""
    b = (m - 1).bit_length()
    raw = bytes.fromhex(text)
    pad = len(raw) * 8 - m * b
    v = int.from_bytes(raw, "big") >> pad
    v_new = 0
    for i in edit([(v >> (b * (m - 1 - k))) & ((1 << b) - 1) for k in range(m)]):
        v_new = (v_new << b) | i
    return (v_new << pad).to_bytes(len(raw), "big").hex()


def open_session(prover, verifier):
    """HELLO, then AGG_REQUEST and AGG_INPUT if the verifier asks; its VALIDITY_RESULT."""
    (hello,) = prover.start()
    replies = verifier.feed(hello)
    if types(replies) == ["AGG_REQUEST"]:
        replies = verifier.feed(prover.feed(replies[0])[0])
    return replies[0]


class TestLoopback:
    def test_honest_session_accepts(self):
        rng, pairs, agg, wm = make_world()
        prover = ProverSession(pairs[1][1], agg, PARAMS, 1, d=8, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=8, rng=rng, l_com=L_COM)
        drive(prover, verifier)
        assert verifier.done and verifier.accepted
        assert prover.done and prover.accepted
        assert verifier.summary().rounds_passed == 8

    def test_a_seeded_honest_session_is_pinned(self, monkeypatch):
        # an empty memo makes the verifier ask for AGG_INPUT whatever ran before
        monkeypatch.setattr(protocol, "_last_valid", None)
        _, pairs, agg, wm = make_world(seed=5)
        prover = ProverSession(pairs[2][1], agg, PARAMS, 2, d=9,
                               rng=np.random.default_rng(51), l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=9, rng=np.random.default_rng(52), l_com=L_COM)
        drive(prover, verifier)
        assert verifier.accepted and prover.accepted
        challenges = {json.loads(line)["c"] for line in verifier.transcript
                      if json.loads(line)["type"] == "CHALLENGE"}
        assert challenges == {0, 1, 2}  # every opening is in the pinned bytes
        digest = hashlib.shake_256()
        for line in prover.transcript + verifier.transcript:
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest(16) == HONEST_SESSION_PIN

    def test_every_client_slot_works(self):
        rng, pairs, agg, wm = make_world(seed=3)
        for j in range(3):
            prover = ProverSession(pairs[j][1], agg, PARAMS, j, d=4, rng=rng, l_com=L_COM)
            verifier = VerifierSession(wm.h, ERR_N, d=4, rng=rng, l_com=L_COM)
            drive(prover, verifier)
            assert verifier.accepted, f"client {j}"

    def test_random_aggregate_fails_validity(self):
        # watermark extracted from one aggregate, prover argues another
        rng, pairs, agg, wm = make_world(seed=4)
        _, other_pairs, other_agg, _ = make_world(seed=99)
        prover = ProverSession(other_pairs[0][1], other_agg, PARAMS, 0,
                               d=6, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=6, rng=rng, l_com=L_COM)
        drive(prover, verifier)
        assert not verifier.accepted
        assert verifier.round == 0  # no proof round ever ran
        assert "watermark" in verifier.reason
        assert not prover.accepted

    def test_wrong_slot_credential_never_survives(self):
        # credential for slot 0 pushed through slot 1's public input: the
        # prover's own commit guard trips, which is an abort, not a proof
        rng, pairs, agg, wm = make_world(seed=5)
        prover = ProverSession(pairs[0][1], agg, PARAMS, 1, d=6, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=6, rng=rng, l_com=L_COM)
        pending = list(prover.start())
        with pytest.raises(ValueError, match="credential"):
            while pending:
                for reply in verifier.feed(pending.pop(0)):
                    pending.extend(prover.feed(reply))
        assert not verifier.accepted

    def test_a_settled_verdict_is_final_on_both_sides(self):
        rng, pairs, agg, wm = make_world(seed=9)
        prover = ProverSession(pairs[0][1], agg, PARAMS, 0, d=4, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=4, rng=rng, l_com=L_COM)
        drive(prover, verifier)
        for session in (verifier, prover):
            before = session.summary()
            assert before.accepted and before.rounds_passed == 4
            late_error = {"type": "ERROR", "session": session.session_id, "seq": 100,
                          "message": "too late"}
            for junk in ("not json", json.dumps({"type": "HELLO", "session": "s", "seq": 99})):
                out = session.feed(junk)
                assert json.loads(out[0])["type"] == "ERROR"
            # a reply to the peer's late ERROR would start an endless exchange
            assert session.feed(json.dumps(late_error)) == []
            assert session.done and session.summary() == before

    def test_session_ids_differ(self):
        rng, pairs, agg, wm = make_world(seed=6)
        a = ProverSession(pairs[0][1], agg, PARAMS, 0, d=2, rng=rng)
        b = ProverSession(pairs[0][1], agg, PARAMS, 0, d=2, rng=rng)
        assert a.session_id != b.session_id


def test_agg_input_carries_the_aggregate_file_bytes(tmp_path):
    _, _, agg, wm = make_world(seed=2)
    save_aggregate(tmp_path / "aggregate.bin", agg, PARAMS)
    doc = encode_aggregate(agg)
    blob = (tmp_path / "aggregate.bin").read_bytes()
    assert bytes.fromhex(doc["aggregate"]) == blob and doc["digest"] == shake(blob)
    digest, back = decode_aggregate(doc)
    assert digest.hex() == doc["digest"] and blob[8:] == canonical_bytes(agg)
    assert back == agg and hash_watermark(back, N_BITS) == wm
    assert len(blob) == 8 + 25 + 3 * (32 + PARAMS.m // 8)


class TestVerifierRejectsBadWire:
    def setup_method(self):
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=7)

    def fresh(self, d=4):
        return VerifierSession(self.wm.h, ERR_N, d=d, rng=self.rng, l_com=L_COM)

    def test_garbage_line(self):
        for line in HOSTILE_LINES:
            v = self.fresh()
            out = v.feed(line)
            assert v.done and not v.accepted
            assert json.loads(out[0])["type"] == "ERROR"
            assert v.reason.startswith("bad json")

    def test_unknown_type(self):
        v = self.fresh()
        out = v.feed(json.dumps({"type": "NOPE", "session": "s", "seq": 0}))
        assert v.done and json.loads(out[0])["type"] == "ERROR"

    def test_out_of_order_commit_before_hello(self):
        v = self.fresh()
        out = v.feed(json.dumps({"type": "COMMIT", "session": "s", "seq": 0,
                                 "round": 0, "C0": "", "C1": "", "C2": ""}))
        assert v.done and not v.accepted
        assert "unexpected" in json.loads(out[0])["message"]

    def test_sequence_number_must_be_an_integer(self):
        v = self.fresh()
        out = v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": True,
                                 "client": 0, "rounds": 4}))
        assert v.done and not v.accepted
        assert "seq" in json.loads(out[0])["message"]

    def test_prover_error_closes_without_a_reply(self):
        v = self.fresh()
        v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0, "client": 0, "rounds": 4,
                           "digest": ZERO_DIGEST}))
        out = v.feed(json.dumps({"type": "ERROR", "session": "s", "seq": 1,
                                 "message": "giving up"}))
        assert out == [] and v.done and not v.accepted
        assert "giving up" in v.reason

    def test_sequence_must_increase(self):
        v = self.fresh()
        hello = {"type": "HELLO", "session": "s", "seq": 5, "client": 0, "rounds": 4,
                 "digest": ZERO_DIGEST}
        assert types(v.feed(json.dumps(hello))) == ["AGG_REQUEST"]
        out = v.feed(json.dumps({**hello, "type": "AGG_INPUT", "seq": 5}))
        assert v.done and "sequence" in json.loads(out[0])["message"]

    def test_round_count_mismatch(self):
        v = self.fresh(d=4)
        out = v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0,
                                 "client": 0, "rounds": 9}))
        assert v.done and "rounds" in json.loads(out[0])["message"]

    def prover(self):
        return ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                             d=4, rng=self.rng, l_com=L_COM)

    def test_client_index_outside_aggregate(self, monkeypatch):
        self.client_index_outside_aggregate(False, monkeypatch)

    def test_client_index_outside_aggregate_on_a_hit(self, monkeypatch):
        self.client_index_outside_aggregate(True, monkeypatch)

    def client_index_outside_aggregate(self, warm, monkeypatch):
        monkeypatch.setattr(protocol, "_last_valid", None)
        if warm:
            assert drive(self.prover(), self.fresh())[1].accepted
        for client in (self.agg.K, 17):  # the first index past the last slot, and far past
            prover = self.prover()
            (hello,) = prover.start()
            v = self.fresh()
            out = v.feed(json.dumps({**json.loads(hello), "client": client}))
            if not warm:
                assert types(out) == ["AGG_REQUEST"]
                out = v.feed(prover.feed(out[0])[0])
            assert types(out) == ["ERROR"] and v.done and not v.accepted
            assert "client index" in json.loads(out[0])["message"]

    def test_bad_hex_in_aggregate(self, monkeypatch):
        monkeypatch.setattr(protocol, "_last_valid", None)
        prover = self.prover()
        v = self.fresh()
        request = v.feed(prover.start()[0])
        doc = json.loads(prover.feed(request[0])[0])
        doc["aggregate"] = "zz" + doc["aggregate"][2:]
        out = v.feed(json.dumps(doc))
        assert v.done and json.loads(out[0])["type"] == "ERROR"

    def test_duplicate_commit_rejected(self):
        prover = self.prover()
        v = self.fresh()
        commit_line = prover.feed(open_session(prover, v))[0]
        v.feed(commit_line)
        doc = json.loads(commit_line)
        doc["seq"] += 1
        out = v.feed(json.dumps(doc))  # same round again, now out of state
        assert v.done and "unexpected" in json.loads(out[0])["message"]

    @pytest.mark.parametrize("mtype", ["COMMIT", "RESPONSE"])
    def test_a_wrong_round_index_draws_an_error(self, mtype):
        prover = self.prover()
        v = self.fresh()
        line = prover.feed(open_session(prover, v))[0]
        if mtype == "RESPONSE":
            line = prover.feed(v.feed(line)[0])[0]
        doc = json.loads(line)
        assert doc["type"] == mtype and doc["round"] == 0
        out = v.feed(json.dumps({**doc, "round": 1}))
        assert types(out) == ["ERROR"] and json.loads(out[0])["message"] == "wrong round index"
        assert v.done and not v.accepted

    def test_a_response_naming_another_challenge_is_rejected(self):
        # the openings answer the verifier's own challenge; only "c" differs
        prover = self.prover()
        v = self.fresh()
        commit = prover.feed(open_session(prover, v))[0]
        doc = json.loads(prover.feed(v.feed(commit)[0])[0])
        out = [json.loads(line) for line in v.feed(json.dumps({**doc, "c": (doc["c"] + 1) % 3}))]
        assert [m["type"] for m in out] == ["ROUND_RESULT", "SESSION_RESULT"]
        assert out[0]["accepted"] is False
        assert v.done and not v.accepted and v.reason == "round 0 rejected"

    def pi_response(self, params, monkeypatch):
        """A verifier whose next line is the RESPONSE `doc`, which opens pi."""
        monkeypatch.setattr(protocol, "_last_valid", None)
        rng, pairs, agg, wm = make_world(seed=7, params=params)
        prover = ProverSession(pairs[0][1], agg, params, 0, d=8, rng=rng, l_com=L_COM)
        v = VerifierSession(wm.h, ERR_N, d=8, rng=rng, l_com=L_COM)
        (commit,) = prover.feed(open_session(prover, v))
        while True:
            (response,) = prover.feed(v.feed(commit)[0])
            doc = json.loads(response)
            if "pi" in doc:
                return v, doc
            (commit,) = prover.feed(v.feed(response)[0])

    def test_an_honest_pi_takes_ceil_log2_m_bits_per_index(self, monkeypatch):
        v, doc = self.pi_response(PARAMS, monkeypatch)  # m=48: 6 bits, 36 bytes
        assert len(doc["pi"]) == 72
        assert types(v.feed(json.dumps(doc))) == ["ROUND_RESULT"] and not v.done

    @pytest.mark.parametrize("case, reason", [
        ("padding bit", "padding"), ("index >= m", "out of range"),
        ("repeated index", "repeated"), ("short", "expected 38 bytes"),
        ("long", "expected 38 bytes")])
    def test_a_malformed_pi_draws_an_error(self, case, reason, monkeypatch):
        params = XlpnParams(m=50, l=32, tau=Fraction(1, 4))  # 300 bits of indices, 4 of padding
        v, doc = self.pi_response(params, monkeypatch)
        pi = doc["pi"]
        assert len(pi) == 76 and repack_pi(pi, 50, lambda idx: idx) == pi
        doc["pi"] = {
            "padding bit": pi[:-1] + format(int(pi[-1], 16) | 1, "x"),
            "index >= m": repack_pi(pi, 50, lambda idx: [50] + idx[1:]),
            "repeated index": repack_pi(pi, 50, lambda idx: idx[:1] * 2 + idx[2:]),
            "short": pi[:-2],
            "long": pi + "00",
        }[case]
        out = v.feed(json.dumps(doc))
        assert types(out) == ["ERROR"]
        assert v.done and not v.accepted and reason in v.reason

    def test_feeding_a_closed_session(self):
        v = self.fresh()
        v.feed("garbage")
        out = v.feed("more garbage")
        assert json.loads(out[0])["type"] == "ERROR"

    def test_rejects_constructor_misuse(self):
        with pytest.raises(ValueError):
            VerifierSession(self.wm.h, ERR_N, d=0, rng=self.rng)
        with pytest.raises(ValueError):
            VerifierSession(self.wm.h, N_BITS + 1, d=4, rng=self.rng)

    def test_err_n_must_leave_room_to_accept(self):
        # validity accepts distance < err_n, so err_n = 0 would reject every aggregate
        for err_n in (-1, 0):
            with pytest.raises(ValueError, match=f"err_n {err_n} out of range"):
                VerifierSession(self.wm.h, err_n, d=4, rng=self.rng)
        v = VerifierSession(self.wm.h, 1, d=4, rng=self.rng, l_com=L_COM)
        assert drive(self.prover(), v)[1].accepted  # the exact aggregate is at distance 0


class TestProverRejectsBadWire:
    def setup_method(self):
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=8)

    def fresh(self, d=4):
        p = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                          d=d, rng=self.rng, l_com=L_COM)
        p.start()
        return p

    def test_garbage_line(self):
        for line in HOSTILE_LINES:
            p = self.fresh()
            out = p.feed(line)
            assert p.done and not p.accepted
            assert json.loads(out[0])["type"] == "ERROR"
            assert p.reason.startswith("bad json")

    def test_wrong_session_id(self):
        p = self.fresh()
        out = p.feed(json.dumps({"type": "VALIDITY_RESULT", "session": "other",
                                 "seq": 0, "accepted": True}))
        assert p.done and not p.accepted
        assert json.loads(out[0])["type"] == "ERROR"

    def test_challenge_before_validity(self):
        p = self.fresh()
        out = p.feed(json.dumps({"type": "CHALLENGE", "session": p.session_id,
                                 "seq": 0, "round": 0, "c": 1}))
        assert p.done and "unexpected" in json.loads(out[0])["message"]

    def test_challenge_out_of_range(self):
        p = self.fresh()
        p.feed(json.dumps({"type": "VALIDITY_RESULT", "session": p.session_id,
                           "seq": 0, "accepted": True}))
        out = p.feed(json.dumps({"type": "CHALLENGE", "session": p.session_id,
                                 "seq": 1, "round": 0, "c": 3}))
        assert p.done and json.loads(out[0])["type"] == "ERROR"

    def test_a_second_agg_request_is_unexpected(self):
        p = self.fresh()
        request = {"type": "AGG_REQUEST", "session": p.session_id, "seq": 0}
        assert types(p.feed(json.dumps(request))) == ["AGG_INPUT"]
        out = p.feed(json.dumps({**request, "seq": 1}))
        assert p.done and not p.accepted
        assert "unexpected AGG_REQUEST" in json.loads(out[0])["message"]

    def test_agg_request_after_validity_is_unexpected(self):
        p = self.fresh()
        assert types(p.feed(json.dumps({"type": "VALIDITY_RESULT", "session": p.session_id,
                                        "seq": 0, "accepted": True}))) == ["COMMIT"]
        out = p.feed(json.dumps({"type": "AGG_REQUEST", "session": p.session_id, "seq": 1}))
        assert p.done and "unexpected AGG_REQUEST" in json.loads(out[0])["message"]

    def test_verifier_error_closes_quietly(self):
        p = self.fresh()
        out = p.feed(json.dumps({"type": "ERROR", "session": p.session_id,
                                 "seq": 0, "message": "go away"}))
        assert p.done and not p.accepted and out == []
        assert "go away" in p.reason

    @pytest.mark.parametrize("verdict", [{"accepted": True, "rounds_passed": 0},
                                         {"accepted": False, "rounds_passed": 3}])
    @pytest.mark.parametrize("rejected_by", ["VALIDITY_RESULT", "ROUND_RESULT"])
    def test_a_session_result_must_match_the_rounds_seen(self, rejected_by, verdict):
        p = self.fresh()
        bodies = [("VALIDITY_RESULT", {"accepted": rejected_by != "VALIDITY_RESULT"})]
        if rejected_by == "ROUND_RESULT":
            bodies += [("CHALLENGE", {"round": 0, "c": 1}),
                       ("ROUND_RESULT", {"round": 0, "accepted": False})]
        bodies.append(("SESSION_RESULT", verdict))
        for seq, (mtype, body) in enumerate(bodies):
            out = p.feed(json.dumps({"type": mtype, "session": p.session_id,
                                     "seq": seq, **body}))
        assert json.loads(out[0])["type"] == "ERROR"
        assert p.done and not p.accepted and p.round == 0
        assert "contradicts" in p.reason

    @pytest.mark.parametrize("accepted", ["no", [0], 1, None],
                             ids=["string", "list", "int", "null"])
    @pytest.mark.parametrize("at", ["VALIDITY_RESULT", "ROUND_RESULT", "SESSION_RESULT"])
    def test_accepted_must_be_a_json_bool(self, at, accepted):
        p = self.fresh(d=1)
        bodies = [("VALIDITY_RESULT", {"accepted": True}),
                  ("CHALLENGE", {"round": 0, "c": 1}),
                  ("ROUND_RESULT", {"round": 0, "accepted": True}),
                  ("SESSION_RESULT", {"accepted": True, "rounds_passed": 1})]
        for seq, (mtype, body) in enumerate(bodies):
            if mtype == at:
                body = {**body, "accepted": accepted}
            out = p.feed(json.dumps({"type": mtype, "session": p.session_id,
                                     "seq": seq, **body}))
            if mtype == at:
                break
        assert [json.loads(line)["type"] for line in out] == ["ERROR"]
        assert p.done and not p.accepted
        assert "must be a boolean" in p.reason

    def test_cannot_start_twice(self):
        p = self.fresh()
        from fedzkp.protocol import ProtocolError
        with pytest.raises(ProtocolError):
            p.start()

    def test_rejects_bad_client_index(self):
        with pytest.raises(ValueError):
            ProverSession(self.pairs[0][1], self.agg, PARAMS, 3, d=4, rng=self.rng)


class TestEchoedPeerText:
    """Peer text quoted in an ERROR reply or a reason is cut short."""

    def session(self, role):
        rng, pairs, agg, wm = make_world(seed=10)
        if role == "verifier":
            return VerifierSession(wm.h, ERR_N, d=4, rng=rng, l_com=L_COM)
        prover = ProverSession(pairs[0][1], agg, PARAMS, 0, d=4, rng=rng, l_com=L_COM)
        prover.start()
        return prover

    @pytest.mark.parametrize("role", ["verifier", "prover"])
    def test_a_huge_type_gives_a_short_reply_and_reason(self, role):
        session = self.session(role)
        out = session.feed(json.dumps({"type": "x" * 1_000_000,
                                       "session": session.session_id or "s", "seq": 0}))
        assert types(out) == ["ERROR"] and len(out[0]) < 300
        assert session.done and not session.accepted
        assert len(session.reason) < 200 and session.reason.startswith("unknown message type 'xxx")

    @pytest.mark.parametrize("role", ["verifier", "prover"])
    def test_a_huge_peer_error_gives_a_short_reason(self, role):
        session = self.session(role)
        out = session.feed(json.dumps({"type": "ERROR", "session": session.session_id or "s",
                                       "seq": 0, "message": "y" * 1_000_000}))
        assert out == [] and session.done and not session.accepted
        assert len(session.reason) < 200 and "yyy" in session.reason


class OneBitCommitForger:
    """Credential-less prover that commits with l_com=1 and equivocates.

    A one-bit commitment binds nothing.  The forger commits to three zero
    bits; once the challenge is known it reruns the honest-verifier
    simulator until the simulated commitments are those zero bits too
    (about eight tries), and answers with the simulated opening.
    """

    ZEROS = RoundMessage1(*[Commitment(b"\x00", 1)] * 3)

    def __init__(self, agg, client, d, rng):
        self.agg, self.client, self.d, self.rng = agg, client, d, rng
        self.pub = select_component(agg, client)
        self.seq = 0
        self.round = 0

    def _line(self, mtype, **body):
        self.seq += 1
        return json.dumps({"type": mtype, "session": "forger", "seq": self.seq - 1, **body})

    def _commit(self):
        return self._line("COMMIT", round=self.round, **encode_msg1(self.ZEROS))

    def _respond(self, c):
        while True:
            tr = simulate_round(self.pub, Challenge(c), self.rng, l_com=1)
            if tr.msg1 == self.ZEROS:
                return self._line("RESPONSE", round=self.round, **encode_response(tr.response))

    def start(self):
        self.encoded = encode_aggregate(self.agg)
        return [self._line("HELLO", client=self.client, rounds=self.d,
                           digest=self.encoded["digest"])]

    def feed(self, line):
        msg = json.loads(line)
        if msg["type"] == "AGG_REQUEST":
            return [self._line("AGG_INPUT", aggregate=self.encoded["aggregate"])]
        if msg["type"] == "VALIDITY_RESULT" and msg["accepted"]:
            return [self._commit()]
        if msg["type"] == "CHALLENGE":
            return [self._respond(msg["c"])]
        if msg["type"] == "ROUND_RESULT" and msg["accepted"]:
            self.round += 1
            return [self._commit()] if self.round < self.d else []
        return []


def lightest_opening(pub, rng, tries=20):
    """A credential-less guess at (s, e): the lightest e = y xor A s of `tries` draws.

    It opens (A, y) exactly; only its weight is off, and a statement
    relabelled to that weight would accept it.
    """
    best = None
    for _ in range(tries):
        s = BitVec.random(pub.A.cols, rng)
        e = pub.y ^ mat_vec_mul(pub.A, s)
        if best is None or e.weight() < best.e.weight():
            best = Credential(s, e)
    return best


class TestWireForgeries:
    def forged_tau(self):
        """The genuine aggregate, the lightest guessed opening of slot 1, and the
        genuine parts under a forged noise rate: the header's w relabelled to
        that opening's weight."""
        rng, pairs, agg, wm = make_world(seed=0)
        cred = lightest_opening(agg.parts[1], rng)
        w = cred.e.weight()
        assert (w, PARAMS.w) == (16, 12)
        forged = relabel(agg, w)
        genuine, sent = encode_aggregate(agg)["aggregate"], encode_aggregate(forged)["aggregate"]
        at = 2 * (HEADER_BYTES - 4)  # the hex of the header's w field
        assert sent[:at] + sent[at + 8:] == genuine[:at] + genuine[at + 8:]
        assert sent[at:at + 8] == struct.pack("<I", w).hex()
        return pairs, agg, wm, cred, forged

    def test_a_forged_tau_fails_validity(self, monkeypatch):
        monkeypatch.setattr(protocol, "_last_valid", None)
        pairs, agg, wm, cred, forged = self.forged_tau()
        genuine = drive(ProverSession(pairs[1][1], agg, PARAMS, 1, d=4,
                                      rng=np.random.default_rng(1), l_com=L_COM),
                        VerifierSession(wm.h, ERR_N, d=4, rng=np.random.default_rng(2),
                                        l_com=L_COM))[1]
        assert genuine.accepted
        entry = protocol._last_valid
        prover = ProverSession(cred, forged, PARAMS, 1, d=40,
                               rng=np.random.default_rng(3), l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=40, rng=np.random.default_rng(4),
                                   l_com=L_COM)
        drive(prover, verifier)
        sent = [json.loads(line) for line in verifier.transcript]
        assert [m["type"] for m in sent] == ["HELLO", "AGG_REQUEST", "AGG_INPUT",
                                            "VALIDITY_RESULT", "SESSION_RESULT"]
        assert sent[3]["accepted"] is False and sent[3]["distance"] >= ERR_N
        assert verifier.done and not verifier.accepted and verifier.round == 0
        assert protocol._last_valid is entry

    def test_the_forged_tau_passes_against_its_own_mark(self, monkeypatch):
        # control: the opening is a real credential for the relabelled
        # statement, so binding w into the mark is what stops the forgery
        monkeypatch.setattr(protocol, "_last_valid", None)
        _, _, _, cred, forged = self.forged_tau()
        own = hash_watermark(forged, N_BITS)
        prover = ProverSession(cred, forged, PARAMS, 1, d=40,
                               rng=np.random.default_rng(3), l_com=L_COM)
        verifier = VerifierSession(own.h, ERR_N, d=40, rng=np.random.default_rng(4),
                                   l_com=L_COM)
        drive(prover, verifier)
        assert verifier.accepted and verifier.round == 40

    def test_commit_with_a_foreign_l_com_is_rejected(self):
        rng, pairs, agg, wm = make_world(seed=16)
        verifier = VerifierSession(wm.h, ERR_N, d=40, rng=np.random.default_rng(17),
                                   l_com=L_COM)
        drive(OneBitCommitForger(agg, 1, 40, rng), verifier)
        assert verifier.done and not verifier.accepted
        assert "l_com" in verifier.reason and verifier.round == 0

    def test_one_bit_forger_passes_when_l_com_is_one(self):
        # control: the forgery is real, so the l_com check is what stops it
        rng, pairs, agg, wm = make_world(seed=16)
        verifier = VerifierSession(wm.h, ERR_N, d=40, rng=np.random.default_rng(17), l_com=1)
        drive(OneBitCommitForger(agg, 1, 40, rng), verifier)
        assert verifier.accepted and verifier.round == 40


class TestReplay:
    def test_recorded_session_fails_against_fresh_challenges(self, monkeypatch):
        # a transcript answers one challenge sequence; new randomness asks
        # different questions, so the replay dies in the first few rounds
        monkeypatch.setattr(protocol, "_last_valid", None)
        rng, pairs, agg, wm = make_world(seed=9)
        d = 20
        prover = ProverSession(pairs[0][1], agg, PARAMS, 0, d=d, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=d, rng=rng, l_com=L_COM)
        drive(prover, verifier)
        assert verifier.accepted
        recorded = [l for l in prover.transcript
                    if json.loads(l)["type"] in
                    ("HELLO", "AGG_INPUT", "COMMIT", "RESPONSE")]

        rejections = 0
        trials = 40
        for i in range(trials):
            fresh = VerifierSession(wm.h, ERR_N, d=d,
                                    rng=np.random.default_rng(1000 + i), l_com=L_COM)
            for line in recorded:
                if fresh.done:
                    break
                if json.loads(line)["type"] == "AGG_INPUT" and fresh.state != "AGG_INPUT":
                    continue  # the memo holds the aggregate: the verifier did not ask
                fresh.feed(line)
            if not fresh.accepted:
                rejections += 1
                assert fresh.reason.startswith("round ")
        # accept probability is (1/3)^d; at d=20 a single acceptance in 40
        # trials would be a one-in-eighty-billion event
        assert rejections == trials


class TestTcpEndpoints:
    def test_end_to_end_over_tcp(self, tmp_path):
        rng, pairs, agg, wm = make_world(seed=11)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(12),
                l_com=L_COM, max_sessions=1, timeout=30.0, ready=ready,
                transcript_path=tmp_path / "verifier.jsonl", port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        accepted = run_prover_endpoint(
            "127.0.0.1", port_box[0], pairs[2][1], agg, 2, 6,
            np.random.default_rng(13), l_com=L_COM,
            transcript_path=tmp_path / "prover.jsonl")
        t.join(30.0)
        assert accepted
        assert len(summaries) == 1
        assert summaries[0].accepted and not summaries[0].aborted
        assert summaries[0].client == 2
        # the persisted transcript is replayable json lines
        lines = (tmp_path / "verifier.jsonl").read_text().splitlines()
        assert all(json.loads(l)["type"] for l in lines)
        assert json.loads(lines[-1])["type"] == "SESSION_RESULT"

    def test_a_credential_that_does_not_open_the_slot_raises_at_the_first_commit(self):
        rng, pairs, agg, wm = make_world(seed=16)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(17),
                l_com=L_COM, max_sessions=1, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        # slot 0's credential argued for slot 1
        with pytest.raises(ValueError, match="credential does not open"):
            run_prover_endpoint("127.0.0.1", port_box[0], pairs[0][1], agg, 1, 6,
                                np.random.default_rng(18), l_com=L_COM)
        t.join(30.0)
        assert not t.is_alive()
        assert len(summaries) == 1
        assert summaries[0].aborted and not summaries[0].accepted
        assert summaries[0].rounds_passed == 0

    def test_transport_abort_is_not_reject(self):
        rng, pairs, agg, wm = make_world(seed=14)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(15),
                l_com=L_COM, max_sessions=1, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)

        # dial in, say hello, then hang up mid-session
        with socket.create_connection(("127.0.0.1", port_box[0]), timeout=10.0) as conn:
            conn.sendall((json.dumps({"type": "HELLO", "session": "x", "seq": 0,
                                      "client": 0, "rounds": 6,
                                      "digest": ZERO_DIGEST}) + "\n").encode())
        t.join(30.0)
        assert len(summaries) == 1
        assert summaries[0].aborted and not summaries[0].accepted

    def test_undecodable_bytes_reject_instead_of_crashing(self):
        rng, pairs, agg, wm = make_world(seed=21)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(22),
                l_com=L_COM, max_sessions=1, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        with socket.create_connection(("127.0.0.1", port_box[0]), timeout=10.0) as conn:
            conn.sendall(b"\xff\xfe not utf-8\n")
            t.join(10.0)
        assert not t.is_alive() and len(summaries) == 1
        assert not summaries[0].accepted and not summaries[0].aborted
        assert "bad json" in summaries[0].reason

    def test_a_deeply_nested_line_is_rejected_and_the_endpoint_serves_on(self):
        rng, pairs, agg, wm = make_world(seed=27)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(28),
                l_com=L_COM, max_sessions=2, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        with socket.create_connection(("127.0.0.1", port_box[0]), timeout=10.0) as conn, \
                conn.makefile("rb") as rd:
            conn.sendall(DEEP_NESTING.encode() + b"\n")
            assert json.loads(rd.readline())["type"] == "ERROR"
        accepted = run_prover_endpoint("127.0.0.1", port_box[0], pairs[1][1], agg,
                                       1, 6, np.random.default_rng(29),
                                       l_com=L_COM)
        t.join(30.0)
        assert accepted and not t.is_alive()
        assert [(s.accepted, s.aborted) for s in summaries] == [(False, False), (True, False)]
        assert summaries[0].reason.startswith("bad json")


class TestBoundedReads:
    """A line without a newline is cut at MAX_LINE_BYTES and rejects the session."""

    def test_verifier_rejects_an_endless_line(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 256)
        rng, pairs, agg, wm = make_world(seed=18)
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, wm.h, ERR_N, 6, np.random.default_rng(19),
                l_com=L_COM, max_sessions=1, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        with socket.create_connection(("127.0.0.1", port_box[0]), timeout=10.0) as conn:
            conn.sendall(b"x" * 1024)
            t.join(10.0)  # the connection stays open: the verdict may not wait on it
            assert not t.is_alive()
        assert len(summaries) == 1
        assert not summaries[0].accepted and not summaries[0].aborted
        assert "too long" in summaries[0].reason

    def test_prover_rejects_an_endless_line(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 256)
        rng, pairs, agg, wm = make_world(seed=20)
        replies = []
        with socket.create_server(("127.0.0.1", 0)) as srv:
            def fake_verifier():
                conn, _ = srv.accept()
                with conn, conn.makefile("rb") as rd:
                    rd.readline()  # HELLO
                    conn.sendall(b"x" * 1024)
                    replies.append(rd.readline())

            t = threading.Thread(target=fake_verifier, daemon=True)
            t.start()
            accepted = run_prover_endpoint(
                "127.0.0.1", srv.getsockname()[1], pairs[0][1], agg, 0, 4,
                rng, l_com=L_COM, timeout=10.0)
            t.join(10.0)
        assert accepted is False and not t.is_alive()
        assert json.loads(replies[0])["message"] == "line too long"


HEADER_BYTES = 8 + 9 + 16  # magic and kind, the FEDZKP-H3 tag, (K, m, l, w)
ODD = XlpnParams(m=50, l=33, tau=Fraction(1, 4))  # three y's end in padding


def _patch(blob, at, raw):
    return blob[:at] + raw + blob[at + len(raw):]


def _field(blob, k, value):
    """`blob` with header field k (0 K, 1 m, 2 l, 3 w) set to `value`."""
    return _patch(blob, HEADER_BYTES - 16 + 4 * k, struct.pack("<I", value))


def _padding_bit(blob):
    """`blob`, an ODD aggregate of 3 clients, with the last padding bit of
    the y block set."""
    return blob[:-1] + bytes([blob[-1] | 1])


# AGG_INPUT payloads built from the genuine aggregate's bytes, a
# public_0.bin file's bytes and an ODD-sized aggregate's bytes
MALFORMED = {
    "truncated_header": lambda blob, public, odd: blob[:20].hex(),
    "short_part": lambda blob, public, odd: blob[:-1].hex(),
    "trailing_byte": lambda blob, public, odd: (blob + b"\x00").hex(),
    "bad_tag": lambda blob, public, odd: _patch(blob, 8, b"FEDZKP-H1").hex(),
    "no_clients": lambda blob, public, odd: _field(blob, 0, 0)[:HEADER_BYTES].hex(),
    # m and l swapped, and the y block 3 * 16 bits shorter to match
    "m_not_above_l": lambda blob, public, odd:
        _field(_field(blob, 1, PARAMS.l), 2, PARAMS.m)[:-6].hex(),
    "w_above_half_m": lambda blob, public, odd: _field(blob, 3, PARAMS.m // 2 + 1).hex(),
    "y_padding_bit": lambda blob, public, odd: _padding_bit(odd).hex(),
    "public_input_kind": lambda blob, public, odd: public.hex(),
    "number": lambda blob, public, odd: 17,
    "list": lambda blob, public, odd: [blob.hex()],
}


class TestAggregateMemo:
    """A verifier process decodes, hashes and eliminates one valid aggregate once."""

    @pytest.fixture(autouse=True)
    def spies(self, monkeypatch):
        # built before the spies: key generation eliminates each A for its rank
        # (stage 1 only); the verifier's slots are fresh objects and build both
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=23)
        monkeypatch.setattr(protocol, "_last_valid", None)
        self.calls = {"decode": 0, "hash": 0, "basis": 0, "reduced": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        def basis(matrix):
            if matrix._basis is None:
                self.calls["basis"] += 1
            return build(matrix)

        def reduced(matrix):
            if matrix._reduced is None:
                self.calls["reduced"] += 1
            return reduce(matrix)

        build, reduce = BitMatrix._column_basis, BitMatrix._reduced_basis
        monkeypatch.setattr(protocol, "decode_aggregate",
                            counted("decode", protocol.decode_aggregate))
        monkeypatch.setattr(protocol, "hash_watermark",
                            counted("hash", protocol.hash_watermark))
        monkeypatch.setattr(BitMatrix, "_column_basis", basis)
        monkeypatch.setattr(BitMatrix, "_reduced_basis", reduced)

    def session(self, client=1, d=8, seed=24):
        prover = ProverSession(self.pairs[client][1], self.agg, PARAMS, client, d=d,
                               rng=np.random.default_rng(seed), l_com=L_COM)
        verifier = VerifierSession(self.wm.h, ERR_N, d=d,
                                   rng=np.random.default_rng(seed + 1), l_com=L_COM)
        return drive(prover, verifier)[1]

    def feed_aggregate(self, doc, digest=None):
        """A verifier fed a HELLO that announces `digest` and then the AGG_INPUT `doc`.

        By default the digest is that of doc's bytes, or one no aggregate
        has when they are not hex; either way the verifier must ask.
        """
        if digest is None:
            try:
                digest = shake(bytes.fromhex(doc["aggregate"]))
            except (TypeError, ValueError):
                digest = ZERO_DIGEST
        v = VerifierSession(self.wm.h, ERR_N, d=4, rng=self.rng, l_com=L_COM)
        request = v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0,
                                     "client": 0, "rounds": 4, "digest": digest}))
        assert types(request) == ["AGG_REQUEST"]
        out = v.feed(json.dumps({"type": "AGG_INPUT", "session": "s", "seq": 1, **doc}))
        return v, [json.loads(line) for line in out]

    def hello(self, digest, client=0):
        """A fresh verifier and its replies to a HELLO that announces `digest`."""
        v = VerifierSession(self.wm.h, ERR_N, d=4, rng=self.rng, l_com=L_COM)
        out = v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0,
                                 "client": client, "rounds": 4, "digest": digest}))
        return v, [json.loads(line) for line in out]

    def test_two_sessions_decode_hash_and_eliminate_once(self):
        assert self.session().accepted and self.session(seed=34).accepted
        assert self.calls == {"decode": 1, "hash": 1, "basis": 1, "reduced": 1}

    def test_a_miss_expands_only_the_claimed_slot_after_validity(self, monkeypatch):
        expanded = []
        expand = lpn.expand_matrix
        monkeypatch.setattr(lpn, "expand_matrix",
                            lambda seed, m, l: expanded.append(seed) or expand(seed, m, l))
        v, out = self.feed_aggregate(encode_aggregate(self.agg))
        assert out[0]["type"] == "VALIDITY_RESULT" and out[0]["accepted"]
        assert expanded == [] and protocol._last_valid[2] == self.wm
        assert self.session(client=1).accepted
        # once for the prover's own copy of slot 1, once for the verifier's
        assert expanded == [self.agg.parts[1].seed] * 2

    def test_two_taus_that_round_to_one_weight_share_the_entry(self, tmp_path):
        # 1/4 and 6/25 both give w = 12 at m = 48: one statement, one file, one digest
        paths = [tmp_path / "quarter.bin", tmp_path / "six_25ths.bin"]
        for path, params in zip(paths, (PARAMS, SAME_W)):
            save_aggregate(path, self.agg, params)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        aggs = [load_aggregate(path)[0] for path in paths]
        verifiers = []
        for k in range(4):  # alternating, so the prover's own entry misses each time
            prover = ProverSession(self.pairs[1][1], aggs[k % 2], (PARAMS, SAME_W)[k % 2],
                                   1, d=4, rng=np.random.default_rng(80 + k), l_com=L_COM)
            verifier = VerifierSession(self.wm.h, ERR_N, d=4,
                                       rng=np.random.default_rng(90 + k), l_com=L_COM)
            verifiers.append(drive(prover, verifier)[1])
        assert all(v.accepted for v in verifiers)
        assert [types(v.transcript).count("AGG_REQUEST") for v in verifiers] == [1, 0, 0, 0]
        assert self.calls == {"decode": 1, "hash": 1, "basis": 1, "reduced": 1}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_aggregate_draws_an_error(self, case, tmp_path):
        assert self.session().accepted
        entry = protocol._last_valid
        blob = bytes.fromhex(encode_aggregate(self.agg)["aggregate"])
        save_public_input(tmp_path / "public_0.bin", self.pairs[0][0], PARAMS)
        public = (tmp_path / "public_0.bin").read_bytes()
        odd = bytes.fromhex(encode_aggregate(make_world(seed=24, params=ODD)[2])["aggregate"])
        v, out = self.feed_aggregate({"aggregate": MALFORMED[case](blob, public, odd)})
        assert v.done and not v.accepted and out[0]["type"] == "ERROR"
        assert protocol._last_valid is entry

    def test_bad_hex_is_rejected_with_a_warm_memo(self):
        assert self.session().accepted
        text = encode_aggregate(self.agg)["aggregate"]
        v, out = self.feed_aggregate({"aggregate": text[:-2] + "zz"})
        assert v.done and out[0]["type"] == "ERROR" and "hex" in out[0]["message"]

    def test_an_altered_aggregate_fails_and_leaves_the_entry(self):
        assert self.session().accepted
        entry = protocol._last_valid
        text = encode_aggregate(self.agg)["aggregate"]
        doc = {"aggregate": flip_hex(text, 2 * HEADER_BYTES)}  # part 0's seed
        v, out = self.feed_aggregate(doc)
        assert out[0]["type"] == "VALIDITY_RESULT" and not out[0]["accepted"]
        assert v.done and not v.accepted
        assert protocol._last_valid is entry
        assert self.session(seed=44).accepted
        assert self.calls["decode"] == 2 and self.calls["hash"] == 2

    def test_cold_and_warm_runs_agree(self):
        cold = [self.session(client=c, seed=50 + c) for c in range(3)]
        warm = [self.session(client=c, seed=50 + c) for c in range(3)]
        # one elimination per slot and process, both stages
        assert self.calls == {"decode": 1, "hash": 1, "basis": 3, "reduced": 3}
        transfers = [types(v.transcript).count(t) for v in cold + warm
                     for t in ("AGG_REQUEST", "AGG_INPUT")]
        assert transfers == [1, 1] + [0, 0] * 5
        for a, b in zip(cold, warm):
            assert a.summary() == b.summary() and a.accepted
        assert [a.transcript for a in cold[1:]] == [b.transcript for b in warm[1:]]

        # the miss differs only by its two transfer lines and the seq shift they cause
        def rest(lines):
            return [{k: v for k, v in json.loads(line).items() if k != "seq"}
                    for line in lines if json.loads(line)["type"] not in ("AGG_REQUEST",
                                                                          "AGG_INPUT")]
        assert rest(cold[0].transcript) == rest(warm[0].transcript)

    def test_a_hit_sends_no_aggregate(self):
        assert self.session().accepted
        prover = ProverSession(self.pairs[1][1], self.agg, PARAMS, 1, d=8,
                               rng=np.random.default_rng(60), l_com=L_COM)
        verifier = VerifierSession(self.wm.h, ERR_N, d=8, rng=np.random.default_rng(61),
                                   l_com=L_COM)
        drive(prover, verifier)
        assert verifier.accepted and prover.accepted
        assert types(prover.transcript)[:3] == ["HELLO", "VALIDITY_RESULT", "COMMIT"]
        assert not {"AGG_REQUEST", "AGG_INPUT"} & set(types(prover.transcript))
        assert self.calls == {"decode": 1, "hash": 1, "basis": 1, "reduced": 1}

    def test_a_verifier_with_another_mark_length_fetches_the_aggregate(self):
        assert self.session().accepted
        short = hash_watermark(self.agg, N_BITS // 2)
        prover = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0, d=4,
                               rng=np.random.default_rng(70), l_com=L_COM)
        verifier = VerifierSession(short.h, ERR_N, d=4, rng=np.random.default_rng(71),
                                   l_com=L_COM)
        drive(prover, verifier)
        assert types(verifier.transcript)[:2] == ["HELLO", "AGG_REQUEST"]
        assert verifier.accepted and protocol._last_valid[0][0] == N_BITS // 2

    def test_a_miss_requests_the_aggregate_and_keys_on_its_own_digest(self):
        v = self.session()
        assert v.accepted
        assert types(v.transcript)[:5] == ["HELLO", "AGG_REQUEST", "AGG_INPUT",
                                           "VALIDITY_RESULT", "COMMIT"]
        blob = bytes.fromhex(json.loads(v.transcript[2])["aggregate"])
        assert json.loads(v.transcript[0])["digest"] == shake(blob)
        assert protocol._last_valid[0] == (N_BITS, hashlib.shake_256(blob).digest(32))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bytes_unlike_the_digest_are_rejected(self, warm):
        genuine = encode_aggregate(self.agg)
        third = encode_aggregate(relabel(self.agg, THIRD.w))
        # the same seeds and y relabelled to another w: only the header differs
        head = 2 * HEADER_BYTES
        assert third["aggregate"][:head] != genuine["aggregate"][:head]
        assert third["aggregate"][head:] == genuine["aggregate"][head:]
        if warm:
            assert self.session().accepted
        entry = protocol._last_valid
        announced, sent = (third, genuine) if warm else (genuine, third)
        v, out = self.feed_aggregate({"aggregate": sent["aggregate"]}, announced["digest"])
        assert [m["type"] for m in out] == ["ERROR"]
        assert "digest" in out[0]["message"] and announced["digest"] in out[0]["message"]
        assert v.done and not v.accepted and "digest" in v.reason
        assert protocol._last_valid is entry

    @pytest.mark.parametrize("digest", [None, "ab" * 31, "ab" * 33, "zz" * 32, 17,
                                        ["00" * 32]],
                             ids=["missing", "short", "long", "not_hex", "number", "list"])
    def test_a_malformed_digest_draws_an_error(self, digest):
        assert self.session().accepted
        entry = protocol._last_valid
        v, out = self.hello(digest)
        assert [m["type"] for m in out] == ["ERROR"] and "digest" in out[0]["message"]
        assert v.done and not v.accepted
        assert protocol._last_valid is entry

    def test_an_unsolicited_agg_input_after_a_hit_is_an_error(self):
        assert self.session().accepted
        genuine = encode_aggregate(self.agg)
        v, out = self.hello(genuine["digest"])
        assert [m["type"] for m in out] == ["VALIDITY_RESULT"] and out[0]["accepted"]
        out = v.feed(json.dumps({"type": "AGG_INPUT", "session": "s", "seq": 1,
                                 "aggregate": genuine["aggregate"]}))
        assert types(out) == ["ERROR"] and "unexpected AGG_INPUT" in json.loads(out[0])["message"]
        assert v.done and not v.accepted
        assert self.calls["decode"] == 1

    def test_threads_share_the_entry_without_a_wrong_verdict(self):
        genuine = encode_aggregate(self.agg)
        last = len(genuine["aggregate"]) - 1  # in the last part's y
        altered = {"aggregate": flip_hex(genuine["aggregate"], last)}
        errors = []

        def worker(i):
            try:
                for k in range(6):
                    if (i + k) % 2:
                        v, out = self.feed_aggregate(altered)
                        assert not out[0]["accepted"] and v.done
                    else:
                        assert self.session(client=k % 3, d=4, seed=100 * i + k).accepted
            except Exception as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert protocol._last_valid[0] == (N_BITS, bytes.fromhex(genuine["digest"]))

    def test_two_sessions_through_one_endpoint(self, tmp_path):
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, self.wm.h, ERR_N, 6, np.random.default_rng(25),
                l_com=L_COM, max_sessions=2, timeout=30.0, ready=ready,
                transcript_path=tmp_path / "verifier.jsonl", port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        verdicts = [run_prover_endpoint("127.0.0.1", port_box[0], self.pairs[c][1],
                                        self.agg, c, 6,
                                        np.random.default_rng(26 + c), l_com=L_COM)
                    for c in (0, 2)]
        t.join(30.0)
        assert verdicts == [True, True] and not t.is_alive()
        assert [s.accepted for s in summaries] == [True, True]
        assert self.calls["decode"] == 1 and self.calls["hash"] == 1
        lines = (tmp_path / "verifier.jsonl").read_text().splitlines()
        assert types(lines).count("AGG_INPUT") == 1


def test_a_statement_beyond_memory_is_refused_without_expanding_a_matrix(monkeypatch):
    # K=1, m=2^20, l=m-1: A would be 2^40 bits, its y block is 128 KiB
    monkeypatch.setattr(protocol, "_last_valid", None)
    _, _, _, wm = make_world(seed=40)
    expanded = []

    def guard(seed, m, l):
        expanded.append((m, l))
        raise MemoryError(f"expanded a {m} x {l} matrix")  # never allocate it here

    monkeypatch.setattr(lpn, "expand_matrix", guard)
    m = 1 << 20
    blob = (MAGIC + bytes([KIND_AGGREGATE]) + DOMAIN_TAG
            + struct.pack("<IIII", 1, m, m - 1, m // 4) + bytes(32) + bytes(m // 8))
    v = VerifierSession(wm.h, ERR_N, d=4, rng=np.random.default_rng(41), l_com=L_COM)
    tracemalloc.start()
    try:
        assert types(v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0, "client": 0,
                                        "rounds": 4, "digest": shake(blob)}))) == ["AGG_REQUEST"]
        out = v.feed(json.dumps({"type": "AGG_INPUT", "session": "s", "seq": 1,
                                 "aggregate": blob.hex()}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert types(out) == ["VALIDITY_RESULT", "SESSION_RESULT"]
    assert not json.loads(out[0])["accepted"] and v.done and not v.accepted
    assert expanded == [] and protocol._last_valid is None
    assert peak < 8 * m  # a few copies of the unpacked y, not the matrix's 2^40 bits


class TestAggregateInputLine:
    """The prover takes HELLO's digest and AGG_INPUT's hex from one encoding per
    session; the AGG_INPUT line is what encoding the whole message gives."""

    @pytest.fixture(autouse=True)
    def spy(self, monkeypatch):
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=31)
        self.encodes = 0

        def counted(agg):
            self.encodes += 1
            return encode(agg)

        encode = protocol.encode_aggregate
        monkeypatch.setattr(protocol, "encode_aggregate", counted)

    def agg_line(self, agg, params, cred=None):
        prover = ProverSession(cred or self.pairs[0][1], agg, params, 0, d=4,
                               rng=self.rng, l_com=L_COM)
        (hello,) = prover.start()
        (line,) = prover.feed(json.dumps({"type": "AGG_REQUEST",
                                          "session": prover.session_id, "seq": 0}))
        assert types(prover.transcript) == ["HELLO", "AGG_REQUEST", "AGG_INPUT"]
        assert prover.transcript[::2] == [hello, line]
        assert json.loads(hello)["digest"] == shake(bytes.fromhex(json.loads(line)["aggregate"]))
        return prover, line

    def test_the_line_is_the_encoded_message_cold_and_warm(self):
        for _ in range(2):
            prover, line = self.agg_line(self.agg, PARAMS)
            assert line == protocol._encode({
                "type": "AGG_INPUT", "session": prover.session_id, "seq": 1,
                "aggregate": encode_aggregate(self.agg)["aggregate"]})
        assert self.encodes == 2

    def test_no_stale_bytes_across_aggregates_or_tau(self):
        _, other_pairs, other, _ = make_world(seed=32)
        worlds = [(self.agg, PARAMS, self.pairs[0][1]), (other, PARAMS, other_pairs[0][1])]
        # params never reach the line: THIRD over self.agg still sends self.agg
        worlds += worlds + [(relabel(self.agg, THIRD.w), THIRD, None),
                            (self.agg, THIRD, None), (self.agg, SAME_W, None),
                            (self.agg, PARAMS, None)]
        for agg, params, cred in worlds:
            _, line = self.agg_line(agg, params, cred)
            doc = json.loads(line)
            assert doc["aggregate"] == encode_aggregate(agg)["aggregate"]
            assert decode_aggregate(doc)[1] == agg

    def test_threads_never_send_another_threads_aggregate(self):
        _, other_pairs, other, _ = make_world(seed=33)
        worlds = [(agg, params, cred, encode_aggregate(agg)["aggregate"])
                  for agg, params, cred in ((self.agg, PARAMS, self.pairs[0][1]),
                                            (other, PARAMS, other_pairs[0][1]),
                                            (relabel(self.agg, THIRD.w), THIRD,
                                             self.pairs[0][1]))]
        errors = []

        def worker(i):
            try:
                for k in range(12):
                    agg, params, cred, expected = worlds[(i + k) % 3]
                    _, line = self.agg_line(agg, params, cred)
                    assert json.loads(line)["aggregate"] == expected
            except Exception as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and errors == []
