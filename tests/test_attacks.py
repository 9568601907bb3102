"""Removal attacks and the six-phase security game."""
from fractions import Fraction

import numpy as np
import pytest

from fedzkp.attacks import (AttackEvalContext, GameOutcome, GameParams,
                            bruteforce_near_collision, finetune_attack,
                            prune_attack, run_security_game,
                            targeted_destruction)
from fedzkp.bounds import advantage_bound, compute_err_n
from fedzkp.gf2 import BitVec, hamming_distance
from fedzkp.lpn import XlpnParams, gen_instance
from fedzkp.model import (accuracy, detection_rate, extract_from_state,
                          make_embedding, run_federation)
from fedzkp.watermark import AggregatedInput, HashWatermark, aggregate, hash_watermark

SMALL_GAME = XlpnParams(m=24, l=12, tau=Fraction(1, 4))


def trained_setup(seed=0, omega=512, n=128, K=3, rounds=3, epochs=4):
    rng = np.random.default_rng(seed)
    h = BitVec.random(n, rng)
    config = make_embedding(omega, n, rng)
    state, hist, (shards, eval_data) = run_federation(
        h, K, rounds, epochs, config, rng, omega=omega,
        samples_per_client=120, test_samples=400)
    ctx = AttackEvalContext(h=h, config=config, eval_data=eval_data)
    return rng, state, hist, shards, ctx


class TestFinetune:
    def test_zero_epochs_unchanged(self):
        _, state, hist, shards, ctx = trained_setup(seed=30)
        attacked, report = finetune_attack(state, shards[0], 0, ctx)
        assert np.array_equal(attacked.theta, state.theta)
        assert np.array_equal(attacked.W_gamma, state.W_gamma)
        assert report.kind == "finetune"
        assert report.parameter == 0
        assert report.report.r == hist[-1].report.r

    def test_negative_epochs_rejected(self):
        _, state, _, shards, ctx = trained_setup(seed=31)
        with pytest.raises(ValueError):
            finetune_attack(state, shards[0], -1, ctx)

    def test_original_state_not_mutated(self):
        _, state, _, shards, ctx = trained_setup(seed=32)
        before = state.W_gamma.copy()
        finetune_attack(state, shards[0], 5, ctx)
        assert np.array_equal(state.W_gamma, before)

    def test_detection_never_improves_on_average(self):
        # the attacker trains without the hinge, so r can only decay or hold
        rs = []
        for seed in (33, 34, 35):
            _, state, _, shards, ctx = trained_setup(seed=seed)
            _, rep0 = finetune_attack(state, shards[0], 0, ctx)
            _, rep5 = finetune_attack(state, shards[0], 5, ctx)
            _, rep25 = finetune_attack(state, shards[0], 25, ctx)
            rs.append((rep0.report.r, rep5.report.r, rep25.report.r))
        arr = np.array(rs).mean(axis=0)
        assert arr[0] >= arr[1] - 1e-9
        assert arr[1] >= arr[2] - 1e-9


def test_attacks_keep_the_float32_model():
    rng, state, _, shards, ctx = trained_setup(seed=38)
    attacked = [finetune_attack(state, shards[0], 2, ctx)[0],
                prune_attack(state, 0.3, ctx)[0],
                targeted_destruction(state, 0.4, ctx, rng)[0]]
    for st in attacked:
        assert st.theta.dtype == st.W_gamma.dtype == np.float32


class TestPrune:
    def test_rate_zero_unchanged(self):
        _, state, hist, _, ctx = trained_setup(seed=36)
        attacked, report = prune_attack(state, 0.0, ctx)
        assert np.array_equal(attacked.theta, state.theta)
        assert report.report.r == hist[-1].report.r

    def test_rate_one_zeroes_everything(self):
        _, state, _, _, ctx = trained_setup(seed=37)
        attacked, report = prune_attack(state, 1.0, ctx)
        assert not attacked.W_gamma.any()
        assert not attacked.theta.any()
        extracted = extract_from_state(attacked, ctx.config)
        assert not extracted.bits.any()
        # all-zero read matches exactly the zero bits of the target
        assert report.report.err == ctx.h.weight()

    def test_rate_validation(self):
        _, state, _, _, ctx = trained_setup(seed=38)
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(ValueError):
                prune_attack(state, bad, ctx)

    def test_zeroed_fraction_matches_rate(self):
        _, state, _, _, ctx = trained_setup(seed=39)
        total = state.theta.size + state.W_gamma.size
        attacked, _ = prune_attack(state, 0.4, ctx)
        zeroed = (attacked.theta == 0).sum() + (attacked.W_gamma == 0).sum()
        assert zeroed >= int(round(0.4 * total))  # pre-existing zeros can only add

    def test_prunes_smallest_magnitudes_globally(self):
        _, state, _, _, ctx = trained_setup(seed=40)
        attacked, _ = prune_attack(state, 0.3, ctx)
        survivors = np.concatenate([np.abs(attacked.theta), np.abs(attacked.W_gamma)])
        killed_mask = np.concatenate([
            (attacked.theta == 0) & (state.theta != 0),
            (attacked.W_gamma == 0) & (state.W_gamma != 0),
        ])
        original = np.concatenate([np.abs(state.theta), np.abs(state.W_gamma)])
        if killed_mask.any():
            assert original[killed_mask].max() <= survivors[survivors > 0].min() + 1e-12


class TestDestruction:
    def test_phi_validation(self):
        _, state, _, _, ctx = trained_setup(seed=41)
        rng = np.random.default_rng(0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                targeted_destruction(state, bad, ctx, rng)

    def test_degenerate_scale_rejected(self):
        _, state, _, _, ctx = trained_setup(seed=42)
        state.W_gamma[:] = 0.7
        with pytest.raises(ValueError):
            targeted_destruction(state, 0.5, ctx, np.random.default_rng(0))

    def test_tiny_phi_keeps_detection(self):
        _, state, _, _, ctx = trained_setup(seed=43)
        _, report = targeted_destruction(state, 1e-6, ctx, np.random.default_rng(1))
        assert report.report.r == 1.0

    def test_increasing_phi_decreases_r_on_average(self):
        means = {phi: [] for phi in (0.1, 0.5, 0.9)}
        for seed in (44, 45, 46):
            _, state, _, _, ctx = trained_setup(seed=seed)
            rng = np.random.default_rng(seed)
            for phi in means:
                rs = [targeted_destruction(state, phi, ctx, rng)[1].report.r
                      for _ in range(5)]
                means[phi].append(np.mean(rs))
        avg = {phi: np.mean(v) for phi, v in means.items()}
        assert avg[0.1] > avg[0.5] > avg[0.9]

    def test_report_pairs_r_and_accuracy_from_attacked_state(self):
        _, state, _, _, ctx = trained_setup(seed=47)
        attacked, report = targeted_destruction(state, 0.6, ctx, np.random.default_rng(2))
        assert report.report == detection_rate(ctx.h, extract_from_state(attacked, ctx.config))
        assert report.accuracy == accuracy(attacked, *ctx.eval_data)


class TestBruteforce:
    def test_zero_budget_returns_none(self):
        rng = np.random.default_rng(50)
        target = HashWatermark(BitVec.random(12, rng), 12)
        assert bruteforce_near_collision([target], 0, SMALL_GAME, rng, err_n=2) is None

    def test_target_validation(self):
        rng = np.random.default_rng(51)
        with pytest.raises(ValueError):
            bruteforce_near_collision([], 10, SMALL_GAME, rng, err_n=2)
        mixed = [HashWatermark(BitVec.random(12, rng), 12),
                 HashWatermark(BitVec.random(16, rng), 16)]
        with pytest.raises(ValueError):
            bruteforce_near_collision(mixed, 10, SMALL_GAME, rng, err_n=2)
        with pytest.raises(ValueError):
            bruteforce_near_collision([mixed[0]], -1, SMALL_GAME, rng, err_n=2)

    def test_generous_threshold_always_hits(self):
        # per-try hit probability 0.194 at n=12, err_n=2; missing 10^4 tries
        # in a row has probability ~10^-938
        rng = np.random.default_rng(52)
        target = HashWatermark(BitVec.random(12, rng), 12)
        forged = bruteforce_near_collision([target], 10_000, SMALL_GAME, rng, err_n=2)
        assert isinstance(forged, AggregatedInput)
        redigest = hash_watermark(forged, 12)
        assert hamming_distance(redigest.h, target.h) <= 4

    def test_hit_frequency_tracks_ball_arithmetic(self):
        # n=16, err_n=1: per-try p = (1+16+120)/2^16; k=60 tries per rep
        rng = np.random.default_rng(53)
        target = HashWatermark(BitVec.random(16, rng), 16)
        p_try = 137 / 65536
        k, reps = 60, 300
        p_rep = 1.0 - (1.0 - p_try) ** k
        hits = sum(
            bruteforce_near_collision([target], k, SMALL_GAME, rng, err_n=1) is not None
            for _ in range(reps)
        )
        se = np.sqrt(reps * p_rep * (1 - p_rep))
        assert abs(hits - reps * p_rep) <= 3 * se
        # and the union bound from the advantage arithmetic caps it
        union = reps * k * 1 * p_try
        assert hits <= union + 3 * se


class TestSecurityGame:
    def params(self, err_n=0, l_com=64):
        return GameParams(xlpn=SMALL_GAME, n_bits=12, err_n=err_n, K=1, l_com=l_com)

    def test_validation(self):
        rng = np.random.default_rng(60)
        with pytest.raises(ValueError):
            run_security_game(0, 1, 3, self.params(), rng)
        with pytest.raises(ValueError):
            run_security_game(1, 1, 0, self.params(), rng)
        with pytest.raises(ValueError):
            run_security_game(1, -1, 3, self.params(), rng)

    def test_outcome_structure(self):
        rng = np.random.default_rng(61)
        out = run_security_game(2, 10, 3, self.params(), rng)
        assert isinstance(out, GameOutcome)
        assert out.queries_used == 10
        assert out.instances == 2
        assert out.log[0].startswith("setup:")
        assert any("challenge 1" in line for line in out.log)
        if out.won_challenge1:
            assert not out.won_challenge2  # challenge 2 skipped on an early win

    def test_control_adversary_with_witness_always_wins(self):
        rng = np.random.default_rng(62)
        for _ in range(25):
            out = run_security_game(1, 0, 4, self.params(), rng,
                                    adversary_knows_witness=True)
            assert out.won_challenge2
            assert out.won

    def test_many_rounds_and_no_queries_never_wins(self):
        # guessing d=60 challenges has probability (2/3)^60 ~ 3e-11
        rng = np.random.default_rng(63)
        outs = [run_security_game(1, 0, 60, self.params(), rng) for _ in range(300)]
        assert not any(o.won for o in outs)

    def test_win_rate_respects_advantage_bound(self):
        rng = np.random.default_rng(64)
        q, k, d, games = 2, 100, 3, 250
        err_n = compute_err_n(12, Fraction(1, 4096))
        assert err_n == 0
        bound = float(advantage_bound(k, q, 12, err_n, d))
        wins = sum(run_security_game(q, k, d, self.params(err_n=err_n), rng).won
                   for _ in range(games))
        rate = wins / games
        sigma = np.sqrt(0.25 / games)
        assert rate <= bound + 3 * sigma

    def test_watermarks_and_credentials_untouched_by_model_attacks(self):
        # model-side attacks must leave validity arithmetic alone
        rng, state, _, shards, ctx = trained_setup(seed=65)
        h_before = ctx.h.bits.copy()
        E_before = ctx.config.E.copy()
        prune_attack(state, 0.5, ctx)
        targeted_destruction(state, 0.5, ctx, rng)
        finetune_attack(state, shards[0], 2, ctx)
        assert np.array_equal(ctx.h.bits, h_before)
        assert np.array_equal(ctx.config.E, E_before)
