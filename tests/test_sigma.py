from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from fedzkp.bounds import advantage_bound
from fedzkp.commitments import commit_batch
from fedzkp.gf2 import BitVec, Permutation, mat_vec_mul, in_image, sample_fixed_weight
from fedzkp import gf2, sigma
from fedzkp.lpn import XlpnParams, gen_instance
from fedzkp.sigma import (
    Challenge,
    ExtractionError,
    RoundMessage1,
    RoundResponse,
    cheat_commit,
    extract_witness,
    prover_commit,
    prover_respond,
    simulate_round,
    verifier_challenge,
    verifier_check_round,
)

SMALL = XlpnParams(m=12, l=8, tau=Fraction(1, 4))


def forced_challenge(c):
    """A Challenge holding c, past the constructor's range check."""
    ch = Challenge(0)
    object.__setattr__(ch, "c", c)
    return ch


def honest_round(pub, cred, c, rng, l_com=64):
    state, msg1 = prover_commit(pub, cred, rng, l_com)
    resp = prover_respond(state, Challenge(c))
    return state, msg1, resp


# -------------------------------------------------------------- round algebra

def test_prover_state_invariants():
    rng = np.random.default_rng(0)
    pub, cred = gen_instance(SMALL, rng)
    state, _ = prover_commit(pub, cred, rng)
    assert state.t0 == mat_vec_mul(pub.A, state.v) ^ state.f
    assert state.t1 == state.pi.apply(state.f)
    assert state.t2 == state.pi.apply(state.f ^ cred.e)
    # blinded error: t1 xor t2 is a permuted copy of e, same weight
    assert (state.t1 ^ state.t2).weight() == cred.e.weight()
    assert in_image(pub.A, state.t0 ^ state.f)


def test_a_round_whose_seed_keys_tie_draws_again(monkeypatch):
    rng = np.random.default_rng(4)
    pub, cred = gen_instance(SMALL, rng)
    expand, seeds = gf2._perm_keys, []

    def first_ties(seed, m):
        seeds.append(seed)
        keys = expand(seed, m).copy()
        if len(seeds) == 1:
            keys[1] = keys[0]
        return keys

    monkeypatch.setattr(gf2, "_perm_keys", first_ties)
    state, msg1, resp = honest_round(pub, cred, 0, rng)
    assert len(seeds) == 2 and state.pi.to_bytes() == seeds[1] != seeds[0]
    assert verifier_check_round(pub, msg1, Challenge(0), resp)


def test_commitments_fresh_per_call():
    rng = np.random.default_rng(1)
    pub, cred = gen_instance(SMALL, rng)
    seen = {prover_commit(pub, cred, rng)[1].C0.c for _ in range(100)}
    assert len(seen) == 100


def test_invalid_credential_rejected():
    rng = np.random.default_rng(2)
    pub, cred = gen_instance(SMALL, rng)
    bad = replace(cred, s=cred.s ^ BitVec([1] + [0] * 7))
    with pytest.raises(ValueError):
        prover_commit(pub, bad, rng)


# ----------------------------------------------------------------- challenges

def test_verifier_challenge_uniform_and_deterministic():
    rng = np.random.default_rng(3)
    draws = np.array([verifier_challenge(rng).c for _ in range(30_000)])
    assert set(np.unique(draws)) <= {0, 1, 2}
    for v in (0, 1, 2):
        assert abs((draws == v).mean() - 1 / 3) < 0.02
    a = [verifier_challenge(np.random.default_rng(9)).c for _ in range(50)]
    b = [verifier_challenge(np.random.default_rng(9)).c for _ in range(50)]
    assert a == b
    with pytest.raises(ValueError):
        Challenge(3)


# ----------------------------------------------------------- information flow

def test_response_reveals_only_prescribed_values():
    rng = np.random.default_rng(4)
    pub, cred = gen_instance(SMALL, rng)
    state, _ = prover_commit(pub, cred, rng)
    r0 = prover_respond(state, Challenge(0))
    assert r0.t2 is None and r0.d2 is None
    assert r0.pi is not None and r0.t0 is not None and r0.t1 is not None
    r1 = prover_respond(state, Challenge(1))
    assert r1.t1 is None and r1.d1 is None and r1.t2 is not None
    r2 = prover_respond(state, Challenge(2))
    assert r2.pi is None and r2.t0 is None and r2.d0 is None
    assert r2.t1 is not None and r2.t2 is not None
    with pytest.raises(ValueError, match="0, 1 or 2"):
        Challenge(5)
    for out_of_range in (5, -1):  # OPENS[-1] would open C1 and C2
        with pytest.raises(ValueError, match="0, 1 or 2"):
            prover_respond(state, forced_challenge(out_of_range))


# ------------------------------------------------------------- completeness

def test_completeness_all_challenges_many_instances():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pub, cred = gen_instance(SMALL, rng)
        state, msg1 = prover_commit(pub, cred, rng, l_com=64)
        for c in (0, 1, 2):
            resp = prover_respond(state, Challenge(c))
            assert verifier_check_round(pub, msg1, Challenge(c), resp)


def test_knowledge_error():
    # with no hash queries the advantage bound is q sessions at (2/3)^d each
    assert advantage_bound(0, 1, 1024, 153, 1) == Fraction(2, 3)
    assert advantage_bound(0, 1, 1024, 153, 300) == Fraction(2, 3) ** 300
    assert advantage_bound(0, 1, 1024, 153, 300) < Fraction(1, 10**50)


# ------------------------------------------------------------------ rejection

def test_tampered_openings_rejected():
    rng = np.random.default_rng(7)
    pub, cred = gen_instance(SMALL, rng)
    state, msg1, resp = honest_round(pub, cred, 2, rng)
    flipped = resp.t1 ^ BitVec([1] + [0] * 11)
    bad = replace(resp, t1=flipped)
    assert not verifier_check_round(pub, msg1, Challenge(2), bad)

    state, msg1, resp = honest_round(pub, cred, 0, rng)
    bad = replace(resp, d0=b"\x00" * 32)
    assert not verifier_check_round(pub, msg1, Challenge(0), bad)


# the response fields each challenge opens; the other fields are never read
OPENED_FIELDS = {0: ("pi", "t0", "t1", "d0", "d1"),
                 1: ("pi", "t0", "t2", "d0", "d2"),
                 2: ("t1", "t2", "d1", "d2")}


def wrong_length(field):
    if field == "pi":
        return Permutation(list(range(5)))
    return BitVec.zeros(5) if field.startswith("t") else b"\x00" * 5


@pytest.fixture(scope="module")
def round_per_challenge():
    rng = np.random.default_rng(8)
    pub, cred = gen_instance(SMALL, rng)
    return pub, {c: honest_round(pub, cred, c, rng)[1:] for c in (0, 1, 2)}


@pytest.mark.parametrize("broken", ["none", "wrong_length"])
@pytest.mark.parametrize("field", ["pi", "t0", "t1", "t2", "d0", "d1", "d2"])
@pytest.mark.parametrize("c", [0, 1, 2])
def test_only_a_broken_opened_field_rejects(round_per_challenge, c, field, broken):
    pub, rounds = round_per_challenge
    msg1, resp = rounds[c]
    bad = replace(resp, **{field: None if broken == "none" else wrong_length(field)})
    got = verifier_check_round(pub, msg1, Challenge(c), bad)
    assert got is (field not in OPENED_FIELDS[c])


def test_malformed_response_rejects_without_raising(round_per_challenge):
    pub, rounds = round_per_challenge
    for c, (msg1, resp) in rounds.items():
        assert verifier_check_round(pub, msg1, Challenge(c), resp) is True
        for other in {0, 1, 2} - {c}:  # challenge mismatch
            assert verifier_check_round(pub, msg1, Challenge(other), resp) is False
        for out_of_range in (3, -1):  # on both sides
            bad = replace(resp, c=out_of_range)
            assert verifier_check_round(pub, msg1, forced_challenge(out_of_range),
                                        bad) is False
        assert verifier_check_round(pub, msg1, Challenge(c), None) is False


def test_a_membership_test_that_raises_rejects(round_per_challenge, monkeypatch):
    # in_image raises ValueError on a vector of the wrong length; a round that
    # hands it one must reject, not raise out of the verifier
    pub, rounds = round_per_challenge
    monkeypatch.setattr(sigma, "in_image", lambda A, b: in_image(A, BitVec(b.bits[:-1])))
    for c in (0, 1):
        msg1, resp = rounds[c]
        assert verifier_check_round(pub, msg1, Challenge(c), resp) is False


@pytest.mark.parametrize("length, weight", [(8, SMALL.w), (16, SMALL.w), (SMALL.m, SMALL.w - 1),
                                            (SMALL.m, SMALL.w + 1), (SMALL.m, SMALL.w)])
def test_challenge_two_needs_openings_m_long_at_weight_w(length, weight):
    # t1 and t2 open their commitments, so only their length and the
    # weight of t1 xor t2 tell these rounds apart
    rng = np.random.default_rng(11)
    pub, _ = gen_instance(SMALL, rng)
    t1 = BitVec.random(length, rng)
    t2 = t1 ^ sample_fixed_weight(length, weight, rng)
    (C0, _), (C1, o1), (C2, o2) = commit_batch([b"\x00", t1.to_bytes(), t2.to_bytes()], rng, 64)
    resp = RoundResponse(2, None, None, t1, t2, None, o1.d, o2.d)
    got = verifier_check_round(pub, RoundMessage1(C0, C1, C2), Challenge(2), resp)
    assert got is (length == SMALL.m and weight == SMALL.w)


def test_wrong_weight_fails_challenge_two():
    rng = np.random.default_rng(9)
    pub, cred = gen_instance(SMALL, rng)
    state, msg1 = cheat_commit(pub, SMALL.w, 2, rng)
    resp = prover_respond(state, Challenge(2))
    assert not verifier_check_round(pub, msg1, Challenge(2), resp)


# ------------------------------------------------------------------- cheating

CHEAT = XlpnParams(m=40, l=20, tau=Fraction(1, 4))


def test_cheater_answers_exactly_the_other_two():
    # the two prepared challenges must always verify; the sacrificed one can
    # pass only by the fake error landing in the image of A, which is rare
    rng = np.random.default_rng(10)
    pub, _ = gen_instance(CHEAT, rng)
    for unanswerable in (0, 1, 2):
        sacrificed_fails = 0
        for _ in range(50):
            state, msg1 = cheat_commit(pub, CHEAT.w, unanswerable, rng, l_com=64)
            for c in (0, 1, 2):
                resp = prover_respond(state, Challenge(c))
                got = verifier_check_round(pub, msg1, Challenge(c), resp)
                if c != unanswerable:
                    assert got
                else:
                    sacrificed_fails += not got
        assert sacrificed_fails >= 48
    with pytest.raises(ValueError):
        cheat_commit(pub, CHEAT.w, 3, rng)


def test_cheater_rate_near_two_thirds():
    rng = np.random.default_rng(11)
    pub, _ = gen_instance(CHEAT, rng)
    wins = 0
    trials = 900
    for _ in range(trials):
        guess = int(rng.integers(0, 3))
        state, msg1 = cheat_commit(pub, CHEAT.w, guess, rng, l_com=64)
        ch = verifier_challenge(rng)
        resp = prover_respond(state, ch)
        wins += verifier_check_round(pub, msg1, ch, resp)
    assert 0.60 < wins / trials < 0.73


# ------------------------------------------------------------------ simulator

def test_simulator_accepts_every_challenge():
    rng = np.random.default_rng(12)
    pub, _ = gen_instance(SMALL, rng)
    for c in (0, 1, 2):
        for _ in range(300):
            tr = simulate_round(pub, Challenge(c), rng, l_com=64)
            assert tr.accepted
            if c == 2:
                assert (tr.response.t1 ^ tr.response.t2).weight() == SMALL.w


def test_simulator_marginals_match_real_prover():
    # opened t-vectors at m=8: compare real vs simulated per challenge and slot
    params = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    rng = np.random.default_rng(13)
    pub, cred = gen_instance(params, rng)
    n = 100_000
    opened = {0: ("t0", "t1"), 1: ("t0", "t2"), 2: ("t1", "t2")}

    def as_byte(vec):
        return vec.to_bytes()[0]

    for c in (0, 1, 2):
        real = {slot: np.zeros(256, dtype=np.int64) for slot in opened[c]}
        sim = {slot: np.zeros(256, dtype=np.int64) for slot in opened[c]}
        for _ in range(n):
            state, _ = prover_commit(pub, cred, rng, l_com=8)
            resp = prover_respond(state, Challenge(c))
            for slot in opened[c]:
                real[slot][as_byte(getattr(resp, slot))] += 1
            tr = simulate_round(pub, Challenge(c), rng, l_com=8)
            for slot in opened[c]:
                sim[slot][as_byte(getattr(tr.response, slot))] += 1
        for slot in opened[c]:
            _, p, _, _ = chi2_contingency(np.vstack([real[slot], sim[slot]]) + 1)
            assert p > 0.01, f"challenge {c} slot {slot}: p={p}"


# ------------------------------------------------------------------ extractor

def triple(pub, cred, rng, l_com=64):
    state, msg1 = prover_commit(pub, cred, rng, l_com)
    out = []
    for c in (0, 1, 2):
        resp = prover_respond(state, Challenge(c))
        from fedzkp.sigma import Transcript

        out.append(
            Transcript(msg1, Challenge(c), resp, verifier_check_round(pub, msg1, Challenge(c), resp))
        )
    return out


def test_extractor_recovers_credential():
    rng = np.random.default_rng(14)
    for _ in range(100):
        pub, cred = gen_instance(SMALL, rng)
        tr0, tr1, tr2 = triple(pub, cred, rng)
        s, e = extract_witness(pub, tr0, tr1, tr2)
        assert s == cred.s and e == cred.e


def test_extractor_on_identity_block_matrix():
    # A = [I; 0]: solving is plain XOR reading, recovery must still be exact.
    # No seed names this A; sigma reads only a statement's A, y and w.
    rng = np.random.default_rng(15)
    A_rows = np.vstack([np.eye(4, dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)])
    from types import SimpleNamespace

    from fedzkp.gf2 import BitMatrix
    from fedzkp.lpn import Credential

    A = BitMatrix(A_rows)
    s = BitVec([1, 0, 1, 1])
    e = BitVec([0, 1, 0, 0, 1, 0])
    pub = SimpleNamespace(A=A, y=mat_vec_mul(A, s) ^ e, w=e.weight())
    cred = Credential(s, e)
    tr0, tr1, tr2 = triple(pub, cred, rng)
    s_out, e_out = extract_witness(pub, tr0, tr1, tr2)
    assert s_out == s and e_out == e


def test_extractor_on_a_rank_deficient_matrix_agrees_with_both_blinded_solves():
    # column 3 repeats column 0, so s is not unique; the one solve of y xor e
    # must give the XOR of the c = 0 and c = 1 systems' greedy-support answers
    from types import SimpleNamespace

    from fedzkp.gf2 import BitMatrix, solve_linear
    from fedzkp.lpn import Credential

    rng = np.random.default_rng(17)
    rows = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1],
                     [0, 0, 1, 0], [1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    A = BitMatrix(rows)
    s, e = BitVec([1, 0, 1, 1]), BitVec([0, 1, 0, 0, 1, 0])
    pub = SimpleNamespace(A=A, y=mat_vec_mul(A, s) ^ e, w=e.weight())
    for _ in range(20):
        tr0, tr1, tr2 = triple(pub, Credential(s, e), rng)
        s_out, e_out = extract_witness(pub, tr0, tr1, tr2)
        pi_inv = tr0.response.pi.inverse()
        t0, t1, t2 = tr0.response.t0, tr0.response.t1, tr1.response.t2
        both = (solve_linear(A, t0 ^ pi_inv.apply(t1))
                ^ solve_linear(A, t0 ^ pi_inv.apply(t2) ^ pub.y))
        assert e_out == e and s_out == both and mat_vec_mul(A, s_out) ^ e == pub.y


def test_extractor_rejects_inconsistent_transcripts():
    rng = np.random.default_rng(16)
    pub, cred = gen_instance(SMALL, rng)
    tr0, tr1, tr2 = triple(pub, cred, rng)
    other0, other1, other2 = triple(pub, cred, rng)

    with pytest.raises(ExtractionError):
        extract_witness(pub, tr0, other1, tr2)  # first messages differ
    with pytest.raises(ExtractionError):
        extract_witness(pub, tr1, tr0, tr2)  # challenge order wrong
    bad = replace(tr2, accepted=False)
    with pytest.raises(ExtractionError):
        extract_witness(pub, tr0, tr1, bad)
    # same msg1 but a doctored overlapping opening
    doctored = replace(tr1, response=replace(tr1.response, t0=tr1.response.t0 ^ BitVec([1] + [0] * 11)))
    with pytest.raises(ExtractionError):
        extract_witness(pub, tr0, doctored, tr2)
