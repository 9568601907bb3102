"""Wire protocol: the credential proof run between two processes.

One JSON object per line over a byte stream, binary payloads hex-encoded,
permutations as 32-bit little-endian indices.  AGG_INPUT's one field
"aggregate" holds the bytes of storage's aggregate.bin; COMMIT digests
are as long as the verifier's own l_com.  The prover speaks first:

    HELLO -> AGG_INPUT -> (VALIDITY_RESULT) ->
        [ COMMIT -> (CHALLENGE) -> RESPONSE -> (ROUND_RESULT) ] x d
    -> (SESSION_RESULT)

parenthesized messages flow verifier-to-prover, the rest prover-to-
verifier.  Every message carries the session id and a per-sender
sequence number that must strictly increase; round-scoped messages also
carry the round index.  Anything malformed or out of order draws an
ERROR reply and closes the session as rejected; a peer's ERROR closes it
as rejected without a reply.  A settled verdict is final: a line fed
after it draws an ERROR reply and changes nothing, and a SESSION_RESULT
that contradicts the rounds the prover saw counts as malformed.  A torn
connection is an abort, which is deliberately distinct from a reject: it
says nothing about the credential.

Both roles are sans-io subclasses of one skeleton, _Session: feed() maps
one incoming line to a list of outgoing lines, so tests can drive them
without sockets and a transcript is just the lines in order.  The
skeleton owns the seq, session-id and ERROR handling and the verdict;
each state is named after the message it awaits, and a role adds only
its _step.  Both TCP endpoints run a session through one loop, _run.

A verifier process keeps the last aggregate that passed validity: one
entry of K*m*l bytes, with its decoded slots and its hash, never admitted
on a failed check.  It is keyed on the watermark length and the
"aggregate" string compared verbatim; a cached key always holds a string
that decoded, so no value of another JSON type can equal it.  A repeat
of that AGG_INPUT skips the decode and the hash and reuses the decoded
slots, so each slot's column elimination runs once per process.  The
distance against the session's own watermark, the client index and every
round are still checked per session.
"""
from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commitments import DEFAULT_COMMIT_BITS, Commitment
from .gf2 import BitVec, Permutation, hamming_distance
from .lpn import Credential, PublicInput, XlpnParams
from .sigma import (
    Challenge,
    RoundMessage1,
    RoundResponse,
    prover_commit,
    prover_respond,
    verifier_challenge,
    verifier_check_round,
)
from .storage import aggregate_from_bytes, aggregate_to_bytes
from .watermark import AggregatedInput, hash_watermark, select_component

PROVER_TYPES = ("HELLO", "AGG_INPUT", "COMMIT", "RESPONSE")
VERIFIER_TYPES = ("VALIDITY_RESULT", "CHALLENGE", "ROUND_RESULT", "SESSION_RESULT")
ALL_TYPES = PROVER_TYPES + VERIFIER_TYPES + ("ERROR",)

MAX_LINE_BYTES = 64 * 1024 * 1024

# (key, AggregatedInput, XlpnParams, HashWatermark) of the last
# aggregate that passed validity, or None.  Swapped as one tuple, so the
# verifier threads never see half an entry.
_last_valid: Optional[tuple] = None


class ProtocolError(Exception):
    """Malformed or out-of-order wire data."""


class TransportError(Exception):
    """Connection failed mid-session; not a verdict on the credential."""


@dataclass(frozen=True)
class SessionSummary:
    session_id: str
    client: Optional[int]
    accepted: bool
    aborted: bool
    reason: str
    rounds_passed: int


def _encode(msg: dict) -> str:
    return json.dumps(msg, separators=(",", ":"))


def _decode(line: str) -> dict:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("line too long")
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad json: {exc.msg}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("message is not an object")
    if msg.get("type") not in ALL_TYPES:
        raise ProtocolError(f"unknown message type {msg.get('type')!r}")
    if not isinstance(msg.get("session"), str):
        raise ProtocolError("missing session id")
    _int_field(msg, "seq")  # bool is an int subclass: "seq": true must not read as 1
    return msg


def _int_field(msg: dict, key: str, lo=None, hi=None) -> int:
    v = msg.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ProtocolError(f"field {key!r} must be an integer")
    if lo is not None and v < lo or hi is not None and v > hi:
        raise ProtocolError(f"field {key!r} out of range")
    return v


def _bool_field(msg: dict, key: str) -> bool:
    v = msg.get(key)
    if not isinstance(v, bool):
        raise ProtocolError(f"field {key!r} must be a boolean")
    return v


def _hex_field(msg: dict, key: str) -> bytes:
    v = msg.get(key)
    if not isinstance(v, str):
        raise ProtocolError(f"field {key!r} must be a hex string")
    try:
        return bytes.fromhex(v)
    except ValueError:
        raise ProtocolError(f"field {key!r} is not valid hex") from None


def _opt_hex(msg: dict, key: str) -> Optional[bytes]:
    return None if msg.get(key) is None else _hex_field(msg, key)


def encode_msg1(msg1: RoundMessage1) -> dict:
    return {"C0": msg1.C0.c.hex(), "C1": msg1.C1.c.hex(), "C2": msg1.C2.c.hex()}


def decode_msg1(body: dict, l_com: int) -> RoundMessage1:
    digests = [_hex_field(body, k) for k in ("C0", "C1", "C2")]
    if any(len(c) != (l_com + 7) // 8 for c in digests):
        raise ProtocolError(f"commitment is not an l_com={l_com} digest")
    return RoundMessage1(*(Commitment(c, l_com) for c in digests))


def encode_response(resp: RoundResponse) -> dict:
    out = {"c": resp.c}
    if resp.pi is not None:
        out["pi"] = resp.pi.to_bytes().hex()
    for k in ("t0", "t1", "t2"):
        v = getattr(resp, k)
        if v is not None:
            out[k] = v.to_bytes().hex()
    for k in ("d0", "d1", "d2"):
        v = getattr(resp, k)
        if v is not None:
            out[k] = v.hex()
    return out


def decode_response(body: dict, m: int) -> RoundResponse:
    c = _int_field(body, "c", lo=0, hi=2)
    pi_raw = _opt_hex(body, "pi")
    try:
        pi = None if pi_raw is None else Permutation.from_bytes(pi_raw)
        ts = [None if (raw := _opt_hex(body, k)) is None else BitVec.from_bytes(raw, m)
              for k in ("t0", "t1", "t2")]
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return RoundResponse(c, pi, ts[0], ts[1], ts[2],
                         _opt_hex(body, "d0"), _opt_hex(body, "d1"), _opt_hex(body, "d2"))


def encode_aggregate(agg: AggregatedInput, params: XlpnParams) -> dict:
    return {"aggregate": aggregate_to_bytes(agg, params).hex()}


def decode_aggregate(body: dict) -> tuple:
    try:
        return aggregate_from_bytes(_hex_field(body, "aggregate"), "aggregate")
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


class _Session:
    """Plumbing both roles share: seq and session-id checks, ERROR, verdict.

    Each state is named after the message it awaits ("START" and "DONE"
    await none), so feed() checks the message type against the state and
    hands the message to the subclass's _step.  `peer` names the other
    role in the reason a peer ERROR leaves.  feed() never raises on
    peer input: bad lines turn into an ERROR reply and a rejected session.
    A settled verdict is final: later lines still draw an ERROR reply but
    leave `accepted` and `reason` as they were.
    """

    peer: str

    def __init__(self, d: int, rng: np.random.Generator, l_com: int, state: str,
                 session_id: Optional[str] = None, client: Optional[int] = None):
        if d < 1:
            raise ValueError("need at least one round")
        self.d = d
        self.rng = rng
        self.l_com = l_com
        self.session_id = session_id
        self.state = state
        self.client = client
        self.round = 0
        self.accepted = False
        self.reason = ""
        self.transcript: list = []
        self._seq_out = 0
        self._seq_in = -1

    @property
    def done(self) -> bool:
        return self.state == "DONE"

    def _send(self, mtype: str, body: dict) -> str:
        msg = {"type": mtype, "session": self.session_id or "?",
               "seq": self._seq_out, **body}
        self._seq_out += 1
        line = _encode(msg)
        self.transcript.append(line)
        return line

    def _settle(self, accepted: bool, reason: str) -> None:
        self.state = "DONE"
        self.accepted = accepted
        self.reason = reason

    def _fail(self, reason: str) -> list:
        if not self.done:
            self._settle(False, reason)
        return [self._send("ERROR", {"message": reason})]

    def _check_round(self, msg: dict) -> None:
        if _int_field(msg, "round", lo=0) != self.round:
            raise ProtocolError("wrong round index")

    def feed(self, line: str) -> list:
        self.transcript.append(line.rstrip("\n"))
        try:
            msg = _decode(line)
            if self.done:
                raise ProtocolError("session already closed")
            if msg["seq"] <= self._seq_in:
                raise ProtocolError("sequence number did not increase")
            self._seq_in = msg["seq"]
            if self.session_id is None:
                self.session_id = msg["session"]
            elif msg["session"] != self.session_id:
                raise ProtocolError("session id changed mid-stream")
            mtype = msg["type"]
            if mtype == "ERROR":
                self._settle(False, f"{self.peer} error: {msg.get('message', '')}")
                return []
            if mtype != self.state:
                raise ProtocolError(f"unexpected {mtype} in state {self.state}")
            return self._step(msg)
        except ProtocolError as exc:
            return self._fail(str(exc))

    def summary(self) -> SessionSummary:
        return SessionSummary(session_id=self.session_id or "?", client=self.client,
                              accepted=self.accepted, aborted=False,
                              reason=self.reason, rounds_passed=self.round)


class VerifierSession(_Session):
    """Sans-io verifier side of one proof session.

    Holds the watermark extracted from the local model and the security
    parameters the verifier insists on; everything else arrives over the
    wire.
    """

    peer = "prover"

    def __init__(self, h_extracted: BitVec, err_n: int, d: int,
                 rng: np.random.Generator, l_com: int = DEFAULT_COMMIT_BITS):
        super().__init__(d, rng, l_com, "HELLO")
        if not 0 <= err_n <= len(h_extracted):
            raise ValueError("near-collision threshold out of range")
        self.h = h_extracted
        self.err_n = err_n
        self._pub: Optional[PublicInput] = None
        self._w: Optional[int] = None
        self._msg1: Optional[RoundMessage1] = None
        self._challenge: Optional[Challenge] = None

    def _step(self, msg: dict) -> list:
        mtype = msg["type"]
        if mtype == "HELLO":
            self.client = _int_field(msg, "client", lo=0)
            rounds = _int_field(msg, "rounds", lo=1)
            if rounds != self.d:
                raise ProtocolError(f"verifier runs {self.d} rounds, peer asked {rounds}")
            self.state = "AGG_INPUT"
            return []

        if mtype == "AGG_INPUT":
            global _last_valid
            key = (len(self.h), msg.get("aggregate"))
            memo = _last_valid
            hit = memo is not None and memo[0] == key
            if hit:
                agg, params, fresh = memo[1:]
            else:
                agg, params = decode_aggregate(msg)
            if self.client >= agg.K:
                raise ProtocolError("client index outside the aggregate")
            if not hit:
                fresh = hash_watermark(agg, len(self.h))
            dist = hamming_distance(self.h, fresh.h)
            ok = dist < self.err_n
            if ok and not hit:
                _last_valid = (key, agg, params, fresh)
            out = [self._send("VALIDITY_RESULT", {"accepted": ok, "distance": dist})]
            if not ok:
                self._settle(False, "aggregate does not match the embedded watermark")
                out.append(self._send("SESSION_RESULT",
                                      {"accepted": False, "rounds_passed": 0}))
                return out
            self._pub = select_component(agg, self.client)
            self._w = params.w
            self.state = "COMMIT"
            return out

        self._check_round(msg)
        if mtype == "COMMIT":
            self._msg1 = decode_msg1(msg, self.l_com)
            self._challenge = verifier_challenge(self.rng)
            self.state = "RESPONSE"
            return [self._send("CHALLENGE", {"round": self.round,
                                             "c": self._challenge.c})]

        # RESPONSE
        resp = decode_response(msg, self._pub.A.rows)
        ok = verifier_check_round(self._pub, self._msg1, self._challenge, resp, self._w)
        out = [self._send("ROUND_RESULT", {"round": self.round, "accepted": ok})]
        if not ok:
            self._settle(False, f"round {self.round} rejected")
        else:
            self.round += 1
            if self.round < self.d:
                self.state = "COMMIT"
                return out
            self._settle(True, "all rounds accepted")
        out.append(self._send("SESSION_RESULT",
                              {"accepted": self.accepted, "rounds_passed": self.round}))
        return out


class ProverSession(_Session):
    """Sans-io prover side: owns a credential and argues one aggregate slot.

    The constructor does not check that the credential opens the claimed
    slot.  Each COMMIT does (sigma.prover_commit), so a credential that
    does not open it raises ValueError out of feed() at the first COMMIT,
    right after an accepting VALIDITY_RESULT.
    """

    peer = "verifier"

    def __init__(self, cred: Credential, agg: AggregatedInput, params: XlpnParams,
                 client: int, d: int, rng: np.random.Generator,
                 l_com: int = DEFAULT_COMMIT_BITS):
        if not 0 <= client < agg.K:
            raise ValueError("client index outside the aggregate")
        super().__init__(d, rng, l_com, "START", rng.bytes(8).hex(), client)
        self.cred = cred
        self.agg = agg
        self.params = params
        self.pub = select_component(agg, client)
        self._round_state = None

    def _commit(self) -> str:
        self._round_state, msg1 = prover_commit(self.pub, self.cred, self.rng,
                                                self.l_com)
        return self._send("COMMIT", {"round": self.round, **encode_msg1(msg1)})

    def start(self) -> list:
        if self.state != "START":
            raise ProtocolError("session already started")
        self.state = "VALIDITY_RESULT"
        return [
            self._send("HELLO", {"client": self.client, "rounds": self.d}),
            self._send("AGG_INPUT", encode_aggregate(self.agg, self.params)),
        ]

    def _step(self, msg: dict) -> list:
        mtype = msg["type"]
        if mtype == "VALIDITY_RESULT":
            if not _bool_field(msg, "accepted"):
                self.state = "SESSION_RESULT"
                self.reason = "aggregate failed the validity check"
                return []
        elif mtype == "CHALLENGE":
            self._check_round(msg)
            ch = Challenge(_int_field(msg, "c", lo=0, hi=2))
            resp = prover_respond(self._round_state, ch)
            self.state = "ROUND_RESULT"
            return [self._send("RESPONSE", {"round": self.round,
                                            **encode_response(resp)})]
        elif mtype == "ROUND_RESULT":
            self._check_round(msg)
            if not _bool_field(msg, "accepted"):
                self.state = "SESSION_RESULT"
                self.reason = f"round {self.round} rejected"
                return []
            self.round += 1
            if self.round == self.d:
                self.state = "SESSION_RESULT"
                return []
        else:  # SESSION_RESULT
            accepted = self.round == self.d
            if (_bool_field(msg, "accepted") is not accepted
                    or _int_field(msg, "rounds_passed") != self.round):
                raise ProtocolError("session result contradicts the rounds seen")
            self._settle(accepted, self.reason or "accepted")
            return []
        self.state = "CHALLENGE"
        return [self._commit()]


def _write_lines(wr, lines) -> None:
    for line in lines:
        wr.write(line + "\n")
    wr.flush()


def _run(session: _Session, conn, transcript_path=None, first=()) -> SessionSummary:
    """Send `first`, then feed peer lines to the session until it settles.

    A read stops after MAX_LINE_BYTES + 1 characters (bytes, on the ASCII
    wire), so a peer that never sends a newline gets its session rejected
    instead of growing memory without bound.  The reader decodes with
    errors="replace": bad UTF-8 then fails as bad JSON, not as a crash.
    A connection lost before the verdict is an abort; after it, only the
    tail write failed and the verdict stands.  The session's transcript is
    appended to `transcript_path` either way.
    """
    try:
        with conn, conn.makefile("r", encoding="utf-8", errors="replace", newline="\n") as rd, \
                conn.makefile("w", encoding="utf-8", newline="\n") as wr:
            _write_lines(wr, first)
            while not session.done:
                line = rd.readline(MAX_LINE_BYTES + 1)
                if not line:
                    raise TransportError("connection closed mid-session")
                if len(line) > MAX_LINE_BYTES:
                    replies = session._fail("line too long")
                else:
                    replies = session.feed(line)
                _write_lines(wr, replies)
    except (OSError, TransportError) as exc:
        if not session.done:
            return SessionSummary(
                session_id=session.session_id or "?", client=session.client,
                accepted=False, aborted=True, reason=str(exc),
                rounds_passed=session.round)
    finally:
        if transcript_path is not None:
            with open(transcript_path, "a") as fh:
                for line in session.transcript:
                    fh.write(line + "\n")
    return session.summary()


def run_verifier_endpoint(host: str, port: int, h_extracted: BitVec, err_n: int,
                          d: int, rng: np.random.Generator,
                          l_com: int = DEFAULT_COMMIT_BITS, max_sessions: int = 1,
                          transcript_path=None, ready=None, port_box=None,
                          timeout: float = 120.0) -> list:
    """Serve proof sessions one at a time; returns their summaries.

    Binds, accepts max_sessions connections sequentially, runs one
    session per connection.  `ready` (a threading.Event) fires once the
    socket listens, so a test can start the prover without racing;
    `port_box` (a list) receives the bound port, for port=0 callers.
    """
    summaries = []
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        if port_box is not None:
            port_box.append(srv.getsockname()[1])
        if ready is not None:
            ready.set()
        for _ in range(max_sessions):
            try:
                conn, _addr = srv.accept()
            except socket.timeout:
                break
            conn.settimeout(timeout)
            summaries.append(_run(VerifierSession(h_extracted, err_n, d, rng, l_com),
                                  conn, transcript_path))
    return summaries


def run_prover_endpoint(host: str, port: int, cred: Credential,
                        agg: AggregatedInput, params: XlpnParams, client: int,
                        d: int, rng: np.random.Generator,
                        l_com: int = DEFAULT_COMMIT_BITS,
                        transcript_path=None, timeout: float = 120.0) -> bool:
    """Connect, prove, return the verifier's verdict.

    Raises TransportError when the connection dies before a verdict;
    that is an abort, not a rejection.  Raises ValueError at the first
    COMMIT when the credential does not open the claimed slot; the
    verifier then sees the connection close, an abort.
    """
    session = ProverSession(cred, agg, params, client, d, rng, l_com)
    try:
        conn = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(str(exc)) from None
    summary = _run(session, conn, transcript_path, first=session.start())
    if summary.aborted:
        raise TransportError(summary.reason)
    return summary.accepted
