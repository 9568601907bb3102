"""Three-move proof of credential knowledge, repeated over independent rounds.

One round: the prover blinds its credential behind a random permutation pi
and random vectors (v, f), commits to

    C0 = Com(seed || t0)  t0 = A @ v xor f
    C1 = Com(t1)          t1 = pi(f)
    C2 = Com(t2)          t2 = pi(f xor e)

where seed is the 32-byte seed pi is expanded from (gf2.Permutation),
and the verifier asks for one of three partial openings.  OPENS[c] names
the two commitments challenge c opens; the prover's response and the
verifier's check both read it:

    c = 0  open C0, C1; accept iff t0 xor pi^-1(t1) is in the image of A
    c = 1  open C0, C2; accept iff t0 xor pi^-1(t2) xor y is in the image of A
    c = 2  open C1, C2; accept iff weight(t1 xor t2) = w

The weight w is the public input's own field, so the statement a round
is checked against is the one its (A, y) came with.  "In the image of A"
is gf2.in_image: a syndrome test against A's parity checks, which the
first such round on a matrix object builds and later rounds reuse.

Each check leaks nothing about (s, e) on its own, yet answering all three
for one committed round pins the credential down: a prover without it can
prepare for at most two challenges, so a single round has soundness error
2/3 and d rounds drive it to (2/3)^d.

Every prover blinds through one function, _blind.  The honest prover
blinds its e.  The cheating prover blinds a fake e that fits two of the
checks: y xor A @ s' for a guessed s' gives up c = 2, and a random
weight-w vector gives up c = 1, or c = 0 once y is folded into t0 and
t1, t2 swap.  The honest-verifier simulator is that cheating prover,
giving up a challenge other than the one it is asked.  For c in {0, 1} it
opens values distributed exactly as an honest prover's; for c = 2 only up
to pi being expanded from a seed, so rounds are computationally
zero-knowledge (Beullens-Katsumata-Pintore, ASIACRYPT 2020).  The
witness extractor reads e = pi^-1(t1 xor t2) from three accepting rounds
sharing a first message, and solves A @ s = y xor e once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commitments import DEFAULT_COMMIT_BITS, OPENING_BYTES, Commitment, commit_batch, verify_commit
from .gf2 import (PERM_SEED_BYTES, BitVec, Permutation, in_image, mat_vec_mul, sample_fixed_weight,
                  solve_linear)
from .lpn import Credential, PublicInput

DEFAULT_ROUNDS = 300

# the two commitments challenge c opens
OPENS = ((0, 1), (0, 2), (1, 2))


class ExtractionError(Exception):
    """Witness extraction failed: transcripts inconsistent or system unsolvable."""


@dataclass(frozen=True)
class RoundMessage1:
    C0: Commitment
    C1: Commitment
    C2: Commitment


@dataclass(frozen=True)
class Challenge:
    c: int

    def __post_init__(self):
        if self.c not in (0, 1, 2):
            raise ValueError(f"challenge must be 0, 1 or 2, got {self.c}")


@dataclass(frozen=True)
class RoundResponse:
    """Partial opening; fields not prescribed by the challenge stay None."""

    c: int
    pi: Optional[Permutation]
    t0: Optional[BitVec]
    t1: Optional[BitVec]
    t2: Optional[BitVec]
    d0: Optional[bytes]
    d1: Optional[bytes]
    d2: Optional[bytes]


@dataclass(frozen=True)
class Transcript:
    msg1: RoundMessage1
    challenge: Challenge
    response: RoundResponse
    accepted: bool


@dataclass(frozen=True)
class ProverRoundState:
    """Everything the prover must remember between commit and response."""

    pi: Permutation
    v: BitVec
    f: BitVec
    t0: BitVec
    t1: BitVec
    t2: BitVec
    d0: bytes
    d1: bytes
    d2: bytes


def _payloads(pi, t0, t1, t2) -> tuple:
    # the values C0, C1 and C2 commit to, in order
    return (pi, t0), (t1,), (t2,)


def _blob(*values) -> bytes:
    # committed bytes: pi's 32-byte seed, then each t bit-packed
    return b"".join(v.to_bytes() for v in values)


def _blind(A, e, rng) -> tuple:
    """The round's (pi, v, f, t0, t1, t2) hiding e, a raw 0/1 array, and its openings.

    One call draws the openings, pi's seed and v || f, as raw 64-bit words:
    rng.bytes costs about 7 us whatever its length, random_raw about 1 us.
    A seed whose keys tie names no permutation, so the round draws again.
    """
    m, l = A.array.shape
    k = 3 * OPENING_BYTES + PERM_SEED_BYTES
    while True:
        raw = rng.bit_generator.random_raw((8 * k + l + m + 63) // 64).astype("<u8").tobytes()
        try:
            pi = Permutation.from_bytes(raw[3 * OPENING_BYTES:k], m)
            break
        except ValueError:  # the keys tied, about once in 2**33 / m**2 rounds
            pass
    vf = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=k), count=l + m)
    v, f = BitVec._wrap(vf[:l]), BitVec._wrap(vf[l:])
    t0 = BitVec._wrap(mat_vec_mul(A, v).bits ^ f.bits)
    return pi, v, f, t0, pi.apply(f), pi.apply(BitVec._wrap(f.bits ^ e)), raw[:3 * OPENING_BYTES]


def _commit_round(pi, v, f, t0, t1, t2, openings, l_com) -> tuple[ProverRoundState, RoundMessage1]:
    (C0, o0), (C1, o1), (C2, o2) = commit_batch(
        [_blob(*vals) for vals in _payloads(pi, t0, t1, t2)], openings, l_com)
    state = ProverRoundState(pi, v, f, t0, t1, t2, o0.d, o1.d, o2.d)
    return state, RoundMessage1(C0, C1, C2)


def prover_commit(
    pub: PublicInput,
    cred: Credential,
    rng: np.random.Generator,
    l_com: int = DEFAULT_COMMIT_BITS,
) -> tuple[ProverRoundState, RoundMessage1]:
    """First prover move: blind the credential and commit."""
    A, e = pub.A, cred.e.bits
    m, l = A.array.shape
    if len(cred.s) != l or e.size != m or len(pub.y) != m:
        raise ValueError("credential dimensions do not match the public input")
    # raw 0/1 arrays between the two products: at small m the products are
    # the smaller part of a round, and BitVec operators cost per call
    if (mat_vec_mul(A, cred.s).bits ^ e).tobytes() != pub.y.bits.tobytes():
        raise ValueError("credential does not open the public input")
    return _commit_round(*_blind(A, e, rng), l_com)


def verifier_challenge(rng: np.random.Generator) -> Challenge:
    return Challenge(int(rng.integers(0, 3)))


def prover_respond(state: ProverRoundState, challenge: Challenge) -> RoundResponse:
    """Open exactly the two commitments the challenge prescribes."""
    c = challenge.c
    if c not in (0, 1, 2):  # OPENS[-1] would open (1, 2)
        raise ValueError(f"challenge must be 0, 1 or 2, got {c}")
    opened = OPENS[c]
    o0, o1, o2 = 0 in opened, 1 in opened, 2 in opened
    return RoundResponse(c, state.pi if o0 else None, state.t0 if o0 else None,
                         state.t1 if o1 else None, state.t2 if o2 else None,
                         state.d0 if o0 else None, state.d1 if o1 else None,
                         state.d2 if o2 else None)


def verifier_check_round(
    pub: PublicInput,
    msg1: RoundMessage1,
    challenge: Challenge,
    resp: RoundResponse,
) -> bool:
    """Accept or reject one round; malformed input rejects rather than raises."""
    try:
        c = challenge.c
        if resp.c != c or c not in (0, 1, 2):
            return False
        m = pub.A.rows
        values = _payloads(resp.pi, resp.t0, resp.t1, resp.t2)
        digests = (resp.d0, resp.d1, resp.d2)
        coms = (msg1.C0, msg1.C1, msg1.C2)
        for i in OPENS[c]:
            if any(v is None or len(v) != m for v in values[i]):
                return False
            if not verify_commit(coms[i], digests[i], _blob(*values[i])):
                return False
        if c == 2:
            return (resp.t1 ^ resp.t2).weight() == pub.w
        t = resp.t0 ^ resp.pi.inverse().apply(resp.t2 if c else resp.t1)
        return in_image(pub.A, t ^ pub.y if c else t)
    except (ValueError, TypeError, AttributeError):
        return False


def cheat_commit(
    pub: PublicInput,
    w: int,
    unanswerable: int,
    rng: np.random.Generator,
    l_com: int = DEFAULT_COMMIT_BITS,
) -> tuple[ProverRoundState, RoundMessage1]:
    """Credential-less prover that sacrifices one challenge.

    Blinds a fake error vector that satisfies the checks for the two
    challenges other than `unanswerable`; no strategy can cover all three
    without the witness.  The returned state plugs straight into
    prover_respond.
    """
    m, l = pub.A.rows, pub.A.cols
    if unanswerable == 2:
        # consistent with y via a guessed secret, but the error weight is wrong
        e_fake = pub.y ^ mat_vec_mul(pub.A, BitVec.random(l, rng))
    elif unanswerable in (0, 1):
        # right weight, but e_fake ignores y entirely
        e_fake = sample_fixed_weight(m, w, rng)
    else:
        raise ValueError(f"unanswerable must be 0, 1 or 2, got {unanswerable}")
    pi, v, f, t0, t1, t2, openings = _blind(pub.A, e_fake.bits, rng)
    if unanswerable == 0:
        # fold y into t0 and swap t1, t2 so the c=1 algebra closes; c=0 is what breaks
        t0, t1, t2 = t0 ^ pub.y, t2, t1
    return _commit_round(pi, v, f, t0, t1, t2, openings, l_com)


def simulate_round(
    pub: PublicInput,
    challenge: Challenge,
    rng: np.random.Generator,
    l_com: int = DEFAULT_COMMIT_BITS,
) -> Transcript:
    """Accepting transcript for a known challenge, built without the credential.

    The cheating prover that gives up another challenge (2 for c in {0, 1},
    1 for c = 2) answers this one; what it opens is distributed as an
    honest prover's, which is what makes single rounds zero-knowledge
    against an honest verifier (computationally: see the module notes).
    """
    state, msg1 = cheat_commit(pub, pub.w, 1 if challenge.c == 2 else 2, rng, l_com)
    resp = prover_respond(state, challenge)
    return Transcript(msg1, challenge, resp, verifier_check_round(pub, msg1, challenge, resp))


def extract_witness(
    pub: PublicInput,
    tr0: Transcript,
    tr1: Transcript,
    tr2: Transcript,
) -> tuple[BitVec, BitVec]:
    """Recover (s, e) from accepting transcripts of one round under all challenges.

    The three transcripts must share their first message; binding then
    forces the overlapping openings to agree, which is checked explicitly.
    """
    if (tr0.challenge.c, tr1.challenge.c, tr2.challenge.c) != (0, 1, 2):
        raise ExtractionError("transcripts must carry challenges 0, 1, 2 in order")
    if not (tr0.accepted and tr1.accepted and tr2.accepted):
        raise ExtractionError("all three transcripts must be accepting")
    if not (tr0.msg1 == tr1.msg1 == tr2.msg1):
        raise ExtractionError("first messages differ across transcripts")
    r0, r1, r2 = tr0.response, tr1.response, tr2.response
    if r1.pi != r0.pi or r1.t0 != r0.t0:
        raise ExtractionError("openings of C0 disagree between challenges 0 and 1")
    if r2.t1 != r0.t1 or r2.t2 != r1.t2:
        raise ExtractionError("openings of C1/C2 disagree across transcripts")
    # the c = 0 and c = 1 checks XOR to y xor pi^-1(t1 xor t2) in the image of A
    e = r0.pi.inverse().apply(r0.t1 ^ r1.t2)
    s = solve_linear(pub.A, pub.y ^ e)
    if s is None:
        raise ExtractionError("y xor e is outside the image of A; transcripts not truly accepting")
    return s, e
