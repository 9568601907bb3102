"""Wire protocol tests: sans-io state machines, TCP endpoints, replay."""
import json
import socket
import struct
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from fedzkp import protocol
from fedzkp.commitments import Commitment
from fedzkp.gf2 import BitMatrix
from fedzkp.lpn import XlpnParams, gen_instance
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
from fedzkp.storage import save_aggregate, save_public_input
from fedzkp.watermark import aggregate, hash_watermark, select_component

PARAMS = XlpnParams(m=48, l=32, tau=Fraction(1, 4))
N_BITS = 64
ERR_N = 8
L_COM = 128


def make_world(seed=0, K=3):
    rng = np.random.default_rng(seed)
    pairs = [gen_instance(PARAMS, rng) for _ in range(K)]
    agg = aggregate([pub for pub, _ in pairs])
    wm = hash_watermark(agg, N_BITS)
    return rng, pairs, agg, wm


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


class TestLoopback:
    def test_honest_session_accepts(self):
        rng, pairs, agg, wm = make_world()
        prover = ProverSession(pairs[1][1], agg, PARAMS, 1, d=8, rng=rng, l_com=L_COM)
        verifier = VerifierSession(wm.h, ERR_N, d=8, rng=rng, l_com=L_COM)
        drive(prover, verifier)
        assert verifier.done and verifier.accepted
        assert prover.done and prover.accepted
        assert verifier.summary().rounds_passed == 8

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
            for junk in ("not json", json.dumps({"type": "HELLO", "session": "s", "seq": 99})):
                out = session.feed(junk)
                assert json.loads(out[0])["type"] == "ERROR"
            assert session.done and session.summary() == before

    def test_session_ids_differ(self):
        rng, pairs, agg, wm = make_world(seed=6)
        a = ProverSession(pairs[0][1], agg, PARAMS, 0, d=2, rng=rng)
        b = ProverSession(pairs[0][1], agg, PARAMS, 0, d=2, rng=rng)
        assert a.session_id != b.session_id


def test_agg_input_carries_the_aggregate_file_bytes(tmp_path):
    _, _, agg, wm = make_world(seed=2)
    save_aggregate(tmp_path / "aggregate.bin", agg, PARAMS)
    doc = encode_aggregate(agg, PARAMS)
    assert bytes.fromhex(doc["aggregate"]) == (tmp_path / "aggregate.bin").read_bytes()
    back, params = decode_aggregate(doc)
    assert params == PARAMS and hash_watermark(back, N_BITS) == wm


class TestVerifierRejectsBadWire:
    def setup_method(self):
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=7)

    def fresh(self, d=4):
        return VerifierSession(self.wm.h, ERR_N, d=d, rng=self.rng, l_com=L_COM)

    def test_garbage_line(self):
        v = self.fresh()
        out = v.feed("this is not json\n")
        assert v.done and not v.accepted
        assert json.loads(out[0])["type"] == "ERROR"

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
        v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0, "client": 0, "rounds": 4}))
        out = v.feed(json.dumps({"type": "ERROR", "session": "s", "seq": 1,
                                 "message": "giving up"}))
        assert out == [] and v.done and not v.accepted
        assert "giving up" in v.reason

    def test_sequence_must_increase(self):
        v = self.fresh()
        hello = {"type": "HELLO", "session": "s", "seq": 5, "client": 0, "rounds": 4}
        assert v.feed(json.dumps(hello)) == []
        out = v.feed(json.dumps({**hello, "type": "AGG_INPUT", "seq": 5}))
        assert v.done and "sequence" in json.loads(out[0])["message"]

    def test_round_count_mismatch(self):
        v = self.fresh(d=4)
        out = v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0,
                                 "client": 0, "rounds": 9}))
        assert v.done and "rounds" in json.loads(out[0])["message"]

    def test_client_index_outside_aggregate(self):
        prover = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                               d=4, rng=self.rng, l_com=L_COM)
        hello, agg_line = prover.start()
        v = self.fresh()
        v.feed(json.dumps({**json.loads(hello), "client": 17}))
        out = v.feed(agg_line)
        assert v.done and "client index" in json.loads(out[0])["message"]

    def test_bad_hex_in_aggregate(self):
        prover = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                               d=4, rng=self.rng, l_com=L_COM)
        hello, agg_line = prover.start()
        doc = json.loads(agg_line)
        doc["aggregate"] = "zz" + doc["aggregate"][2:]
        v = self.fresh()
        v.feed(hello)
        out = v.feed(json.dumps(doc))
        assert v.done and json.loads(out[0])["type"] == "ERROR"

    def test_duplicate_commit_rejected(self):
        prover = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                               d=4, rng=self.rng, l_com=L_COM)
        v = self.fresh()
        hello, agg_line = prover.start()
        v.feed(hello)
        validity = v.feed(agg_line)
        commit_line = prover.feed(validity[0])[0]
        v.feed(commit_line)
        doc = json.loads(commit_line)
        doc["seq"] += 1
        out = v.feed(json.dumps(doc))  # same round again, now out of state
        assert v.done and "unexpected" in json.loads(out[0])["message"]

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


class TestProverRejectsBadWire:
    def setup_method(self):
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=8)

    def fresh(self, d=4):
        p = ProverSession(self.pairs[0][1], self.agg, PARAMS, 0,
                          d=d, rng=self.rng, l_com=L_COM)
        p.start()
        return p

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
            tr = simulate_round(self.pub, Challenge(c), PARAMS.w, self.rng, l_com=1)
            if tr.msg1 == self.ZEROS:
                return self._line("RESPONSE", round=self.round, **encode_response(tr.response))

    def start(self):
        return [self._line("HELLO", client=self.client, rounds=self.d),
                self._line("AGG_INPUT", **encode_aggregate(self.agg, PARAMS))]

    def feed(self, line):
        msg = json.loads(line)
        if msg["type"] == "VALIDITY_RESULT" and msg["accepted"]:
            return [self._commit()]
        if msg["type"] == "CHALLENGE":
            return [self._respond(msg["c"])]
        if msg["type"] == "ROUND_RESULT" and msg["accepted"]:
            self.round += 1
            return [self._commit()] if self.round < self.d else []
        return []


class TestWireForgeries:
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
    def test_recorded_session_fails_against_fresh_challenges(self):
        # a transcript answers one challenge sequence; new randomness asks
        # different questions, so the replay dies in the first few rounds
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
                fresh.feed(line)
            if not fresh.accepted:
                rejections += 1
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
            "127.0.0.1", port_box[0], pairs[2][1], agg, PARAMS, 2, 6,
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
            run_prover_endpoint("127.0.0.1", port_box[0], pairs[0][1], agg, PARAMS, 1, 6,
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
                                      "client": 0, "rounds": 6}) + "\n").encode())
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
                    rd.readline(), rd.readline()  # HELLO, AGG_INPUT
                    conn.sendall(b"x" * 1024)
                    replies.append(rd.readline())

            t = threading.Thread(target=fake_verifier, daemon=True)
            t.start()
            accepted = run_prover_endpoint(
                "127.0.0.1", srv.getsockname()[1], pairs[0][1], agg, PARAMS, 0, 4,
                rng, l_com=L_COM, timeout=10.0)
            t.join(10.0)
        assert accepted is False and not t.is_alive()
        assert json.loads(replies[0])["message"] == "line too long"


HEADER_BYTES = 40  # magic, kind, (m, l, tau, w), client count


def _patch(blob, at, raw):
    return blob[:at] + raw + blob[at + len(raw):]


# AGG_INPUT payloads built from the genuine aggregate's bytes and a
# public_0.bin file's bytes
MALFORMED = {
    "truncated_header": lambda blob, public: blob[:20].hex(),
    "short_part": lambda blob, public: blob[:-1].hex(),
    "trailing_byte": lambda blob, public: (blob + b"\x00").hex(),
    "tau_den_zero": lambda blob, public: _patch(blob, 8 + 4 + 4 + 8, bytes(8)).hex(),
    "weight_off_tau": lambda blob, public:
        _patch(blob, 8 + 4 + 4 + 8 + 8, struct.pack("<I", PARAMS.w + 1)).hex(),
    "public_input_kind": lambda blob, public: public.hex(),
    "number": lambda blob, public: 17,
    "list": lambda blob, public: [blob.hex()],
}


class TestAggregateMemo:
    """A verifier process decodes, hashes and eliminates one valid aggregate once."""

    @pytest.fixture(autouse=True)
    def spies(self, monkeypatch):
        # built before the spies: key generation eliminates each A for its rank
        self.rng, self.pairs, self.agg, self.wm = make_world(seed=23)
        monkeypatch.setattr(protocol, "_last_valid", None)
        self.calls = {"decode": 0, "hash": 0, "basis": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        def basis(matrix):
            if matrix._basis is None:
                self.calls["basis"] += 1
            return build(matrix)

        build = BitMatrix._column_basis
        monkeypatch.setattr(protocol, "decode_aggregate",
                            counted("decode", protocol.decode_aggregate))
        monkeypatch.setattr(protocol, "hash_watermark",
                            counted("hash", protocol.hash_watermark))
        monkeypatch.setattr(BitMatrix, "_column_basis", basis)

    def session(self, client=1, d=8, seed=24):
        prover = ProverSession(self.pairs[client][1], self.agg, PARAMS, client, d=d,
                               rng=np.random.default_rng(seed), l_com=L_COM)
        verifier = VerifierSession(self.wm.h, ERR_N, d=d,
                                   rng=np.random.default_rng(seed + 1), l_com=L_COM)
        return drive(prover, verifier)[1]

    def feed_aggregate(self, doc):
        v = VerifierSession(self.wm.h, ERR_N, d=4, rng=self.rng, l_com=L_COM)
        v.feed(json.dumps({"type": "HELLO", "session": "s", "seq": 0,
                           "client": 0, "rounds": 4}))
        out = v.feed(json.dumps({"type": "AGG_INPUT", "session": "s", "seq": 1, **doc}))
        return v, [json.loads(line) for line in out]

    def test_two_sessions_decode_hash_and_eliminate_once(self):
        assert self.session().accepted and self.session(seed=34).accepted
        assert self.calls == {"decode": 1, "hash": 1, "basis": 1}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_aggregate_draws_an_error(self, case, tmp_path):
        assert self.session().accepted
        entry = protocol._last_valid
        blob = bytes.fromhex(encode_aggregate(self.agg, PARAMS)["aggregate"])
        save_public_input(tmp_path / "public_0.bin", self.pairs[0][0], PARAMS)
        public = (tmp_path / "public_0.bin").read_bytes()
        v, out = self.feed_aggregate({"aggregate": MALFORMED[case](blob, public)})
        assert v.done and not v.accepted and out[0]["type"] == "ERROR"
        assert protocol._last_valid is entry

    def test_bad_hex_is_rejected_with_a_warm_memo(self):
        assert self.session().accepted
        doc = encode_aggregate(self.agg, PARAMS)
        doc["aggregate"] = doc["aggregate"][:-2] + "zz"
        v, out = self.feed_aggregate(doc)
        assert v.done and out[0]["type"] == "ERROR" and "hex" in out[0]["message"]

    def test_an_altered_aggregate_fails_and_leaves_the_entry(self):
        assert self.session().accepted
        entry = protocol._last_valid
        doc = encode_aggregate(self.agg, PARAMS)
        doc["aggregate"] = flip_hex(doc["aggregate"], 2 * HEADER_BYTES)  # part 0's A
        v, out = self.feed_aggregate(doc)
        assert out[0]["type"] == "VALIDITY_RESULT" and not out[0]["accepted"]
        assert v.done and not v.accepted
        assert protocol._last_valid is entry
        assert self.session(seed=44).accepted
        assert self.calls["decode"] == 2 and self.calls["hash"] == 2

    def test_cold_and_warm_runs_agree(self):
        cold = [self.session(client=c, seed=50 + c) for c in range(3)]
        warm = [self.session(client=c, seed=50 + c) for c in range(3)]
        assert self.calls["decode"] == 1
        for a, b in zip(cold, warm):
            assert a.transcript == b.transcript
            assert a.summary() == b.summary() and a.accepted

    def test_threads_share_the_entry_without_a_wrong_verdict(self):
        genuine = encode_aggregate(self.agg, PARAMS)
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
        assert protocol._last_valid[0][1] == genuine["aggregate"]

    def test_two_sessions_through_one_endpoint(self):
        port_box = []
        ready = threading.Event()
        summaries = []

        def serve():
            summaries.extend(run_verifier_endpoint(
                "127.0.0.1", 0, self.wm.h, ERR_N, 6, np.random.default_rng(25),
                l_com=L_COM, max_sessions=2, timeout=30.0, ready=ready,
                port_box=port_box))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(10.0)
        verdicts = [run_prover_endpoint("127.0.0.1", port_box[0], self.pairs[c][1],
                                        self.agg, PARAMS, c, 6,
                                        np.random.default_rng(26 + c), l_com=L_COM)
                    for c in (0, 2)]
        t.join(30.0)
        assert verdicts == [True, True] and not t.is_alive()
        assert [s.accepted for s in summaries] == [True, True]
        assert self.calls["decode"] == 1 and self.calls["hash"] == 1
