"""Model, embedding, and federation tests at small widths."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fedzkp import model
from fedzkp.gf2 import BitVec
from fedzkp.model import (DetectionReport, EmbeddingConfig, ModelState, accuracy,
                          detection_rate, extract_from_state,
                          extract_watermark, fedavg, hinge_loss_and_grad,
                          init_model, local_update, local_updates, make_blobs,
                          make_embedding, run_federation)


def small_setup(omega=256, n=64, seed=0, lam=1.0, mu=0.5, gamma_scale=0.02):
    rng = np.random.default_rng(seed)
    state = init_model(omega, rng, gamma_scale=gamma_scale)
    h = BitVec.random(n, rng)
    config = make_embedding(omega, n, rng, lam=lam, mu_hinge=mu)
    return rng, state, h, config


def as_float64(state, config):
    """float64 copies: training follows its inputs' dtype, so an algebraic
    identity can be checked at float64 round-off."""
    wide = ModelState(state.d_in, state.omega, state.classes,
                      state.theta.astype(np.float64), state.W_gamma.astype(np.float64))
    return wide, replace(config, E=config.E.astype(np.float64))


class TestHingeGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            omega = int(rng.integers(4, 24))
            n = int(rng.integers(2, 16))
            gamma = rng.standard_normal(omega)
            E = rng.standard_normal((omega, n))
            h = BitVec.random(n, rng)
            mu = float(rng.uniform(0.05, 2.0))
            loss, grad = hinge_loss_and_grad(gamma, E, h, mu)
            eps = 1e-6
            for i in range(omega):
                up, down = gamma.copy(), gamma.copy()
                up[i] += eps
                down[i] -= eps
                lu, _ = hinge_loss_and_grad(up, E, h, mu)
                ld, _ = hinge_loss_and_grad(down, E, h, mu)
                fd = (lu - ld) / (2 * eps)
                assert abs(fd - grad[i]) < 1e-4 * max(1.0, abs(grad[i]))

    def test_zero_loss_when_margins_met(self):
        rng = np.random.default_rng(4)
        E = rng.standard_normal((16, 8))
        h = BitVec.random(8, rng)
        t = 2.0 * h.bits.astype(float) - 1.0
        # gamma aligned so every projection sits far on the correct side
        gamma = E @ t
        loss, grad = hinge_loss_and_grad(gamma, E, h, 0.5)
        assert loss == 0.0
        assert not grad.any()

    @staticmethod
    def gather_reference(W_gamma, E, h, mu):
        # the earlier formula: gather the active columns of E, then contract
        t = 2.0 * h.bits.astype(np.float64) - 1.0
        violation = mu - t * (W_gamma @ E)
        active = violation > 0
        return float(violation[active].sum()), -(E[:, active] @ t[active])

    @pytest.mark.parametrize("case", ["mixed", "all_active", "none_active"])
    def test_matches_column_gather(self, case):
        rng = np.random.default_rng(6)
        for _ in range(20):
            omega = int(rng.integers(8, 200))
            n = int(rng.integers(2, omega + 1))  # n <= omega keeps E.T full rank
            h = BitVec.random(n, rng)
            mu = float(rng.uniform(0.05, 2.0))
            E = rng.standard_normal((omega, n))
            gamma = rng.standard_normal(omega)
            if case == "all_active":
                mu = 1e6
            elif case == "none_active":
                # every projection lands at 10 on its target's side
                gamma = np.linalg.lstsq(E.T, 10.0 * (2.0 * h.bits - 1.0), rcond=None)[0]
            loss, grad = hinge_loss_and_grad(gamma, E, h, mu)
            ref_loss, ref_grad = self.gather_reference(gamma, E, h, mu)
            assert loss == ref_loss
            assert np.allclose(grad, ref_grad, rtol=0.0, atol=1e-12)
            if case == "none_active":
                assert loss == 0.0 and not grad.any()

    def test_stacked_rows_equal_their_1d_calls(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            omega = int(rng.integers(8, 300))
            n = int(rng.integers(2, 200))
            K = int(rng.integers(1, 6))
            E = rng.standard_normal((omega, n))
            h = BitVec.random(n, rng)
            mu = float(rng.uniform(0.05, 2.0))
            gammas = 0.1 * rng.standard_normal((K, omega))
            losses, grads = hinge_loss_and_grad(gammas, E, h, mu)
            assert losses.shape == (K,) and grads.shape == (K, omega)
            for k in range(K):
                loss, grad = hinge_loss_and_grad(gammas[k], E, h, mu)
                assert isinstance(loss, float)
                assert abs(losses[k] - loss) <= 1e-12
                assert np.allclose(grads[k], grad, rtol=0.0, atol=1e-12)

    def test_copies_no_part_of_E(self):
        rng = np.random.default_rng(7)
        E = rng.standard_normal((4096, 1024))
        h = BitVec.random(1024, rng)
        for shape in (4096, (10, 4096)):  # one scale vector, then K=10 stacked
            gamma = 0.02 * rng.standard_normal(shape)  # about half the bits active
            tracemalloc.start()
            try:
                hinge_loss_and_grad(gamma, E, h, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < E.nbytes // 16, shape

    def test_shape_validation(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            hinge_loss_and_grad(np.zeros(4), rng.standard_normal((5, 3)), BitVec.zeros(3), 0.5)
        with pytest.raises(ValueError):
            hinge_loss_and_grad(np.zeros(4), rng.standard_normal((4, 3)), BitVec.zeros(7), 0.5)
        with pytest.raises(ValueError):
            hinge_loss_and_grad(np.zeros((2, 5)), rng.standard_normal((4, 3)), BitVec.zeros(3), 0.5)
        with pytest.raises(ValueError):
            hinge_loss_and_grad(np.zeros((1, 2, 4)), rng.standard_normal((4, 3)), BitVec.zeros(3), 0.5)


class TestExtraction:
    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(6)
        gamma = rng.standard_normal(64)
        E = rng.standard_normal((64, 32))
        a = extract_watermark(gamma, E)
        b = extract_watermark(-gamma, E)
        # no projection is exactly zero, so the two reads are complements
        assert (a.bits ^ b.bits).all()

    def test_zero_projections_read_as_zero(self):
        E = np.random.default_rng(7).standard_normal((16, 8))
        bits = extract_watermark(np.zeros(16), E)
        assert not bits.bits.any()

    def test_detection_rate_counts_errors(self):
        h = BitVec(np.array([1, 0, 1, 1], dtype=np.uint8))
        rep = detection_rate(h, BitVec(np.array([1, 1, 1, 0], dtype=np.uint8)))
        assert rep == DetectionReport(r=0.5, err=2)
        assert detection_rate(h, h) == DetectionReport(r=1.0, err=0)
        with pytest.raises(ValueError):
            detection_rate(h, BitVec.zeros(5))


def embed_data_free(state, h, config, epochs):
    """Hinge-only training: with an empty shard each epoch is one regularizer step."""
    empty = (np.zeros((0, state.d_in)), np.zeros(0, dtype=np.int64))
    return local_update(state, empty, h, config, epochs, lr=0.05)


class TestEmbedding:
    def test_data_free_embedding_reaches_every_margin(self):
        _, state, h, config = small_setup(omega=512, n=128, seed=8)
        out = embed_data_free(state, h, config, 400)
        rep = detection_rate(h, extract_from_state(out, config))
        assert rep.r == 1.0
        loss, _ = hinge_loss_and_grad(out.W_gamma, config.E, h, config.mu_hinge)
        assert loss == 0.0
        # theta untouched, original state untouched
        assert np.array_equal(out.theta, state.theta)
        rep0 = detection_rate(h, extract_from_state(state, config))
        assert rep0.r < 1.0

    def test_capacity_breach_leaves_errors(self):
        # far more bits than scale entries: the hinge system is overdetermined
        _, state, h, config = small_setup(omega=64, n=512, seed=9)
        out = embed_data_free(state, h, config, 600)
        rep = detection_rate(h, extract_from_state(out, config))
        assert rep.r < 1.0

    def test_config_validation(self):
        rng = np.random.default_rng(10)
        E = rng.standard_normal((8, 4))
        with pytest.raises(ValueError, match="two-dimensional"):
            EmbeddingConfig(E=E[:, 0], lam=1.0, mu_hinge=0.5)
        with pytest.raises(ValueError):
            EmbeddingConfig(E=E, lam=-0.1, mu_hinge=0.5)
        with pytest.raises(ValueError):
            EmbeddingConfig(E=E, lam=1.0, mu_hinge=0.0)


class TestLocalUpdate:
    def test_zero_epochs_is_identity(self):
        rng, state, h, config = small_setup()
        X, y = make_blobs(64, rng)
        out = local_update(state, (X, y), h, config, epochs=0)
        assert np.array_equal(out.theta, state.theta)
        assert np.array_equal(out.W_gamma, state.W_gamma)

    def test_deterministic(self):
        rng, state, h, config = small_setup(seed=11)
        X, y = make_blobs(64, rng)
        a = local_update(state, (X, y), h, config, epochs=2)
        b = local_update(state, (X, y), h, config, epochs=2)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.W_gamma, b.W_gamma)

    def test_empty_shard_takes_pure_regularizer_steps(self):
        rng, state, h, config = small_setup(omega=512, n=64, seed=12)
        empty = (np.empty((0, state.d_in)), np.empty(0, dtype=int))
        out = local_update(state, empty, h, config, epochs=400, lr=0.05)
        assert np.array_equal(out.theta, state.theta)
        rep = detection_rate(h, extract_from_state(out, config))
        assert rep.r == 1.0

    def test_regularizer_step_is_mean_normalized(self):
        # one empty-shard epoch moves gamma by exactly lr * (lam/n) * grad
        rng, state, h, config = small_setup(omega=32, n=16, seed=13, lam=2.5)
        state, config = as_float64(state, config)
        empty = (np.empty((0, state.d_in)), np.empty(0, dtype=int))
        out = local_update(state, empty, h, config, epochs=1, lr=0.1)
        _, grad = hinge_loss_and_grad(state.W_gamma, config.E, h, config.mu_hinge)
        expected = state.W_gamma - 0.1 * (2.5 / 16) * grad
        assert np.allclose(out.W_gamma, expected, rtol=0, atol=1e-15)

    def test_lambda_zero_ignores_watermark(self):
        rng, state, h, config = small_setup(seed=14, lam=0.0)
        empty = (np.empty((0, state.d_in)), np.empty(0, dtype=int))
        out = local_update(state, empty, h, config, epochs=3)
        assert np.array_equal(out.W_gamma, state.W_gamma)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self):
        rng, state, h, config = small_setup(seed=15)
        X, y = make_blobs(64, rng)
        with pytest.raises(RuntimeError):
            local_update(state, (X, y), h, config, epochs=50, lr=1e14)

    def test_a_wide_logit_gap_trains(self):
        # exp(-200) underflows in float32: the true-class probability reads
        # 0, and only a log-softmax loss stays finite
        rng, state, h, config = small_setup(seed=16)
        X, y = make_blobs(64, rng)
        *_, b2 = model._unpack(state)
        b2[0] = 200.0
        out = local_update(state, (X, np.ones_like(y)), h, config, epochs=1)
        assert np.isfinite(out.theta).all() and np.isfinite(out.W_gamma).all()


class TestLocalUpdates:
    @staticmethod
    def shards(rng, K, samples=70):
        return [make_blobs(samples, rng) for _ in range(K)]

    def test_matches_separate_local_update_calls(self):
        rng, state, h, config = small_setup(omega=256, n=64, seed=30, lam=5.0, gamma_scale=1.0)
        state, config = as_float64(state, config)
        shards = [(X.astype(np.float64), y) for X, y in self.shards(rng, 3)]
        before = state.copy()
        together = local_updates(state, shards, h, config, epochs=3, lr=0.03)
        assert len(together) == 3
        for shard, out in zip(shards, together):
            alone = local_update(state, shard, h, config, epochs=3, lr=0.03)
            assert np.allclose(out.theta, alone.theta, rtol=0.0, atol=1e-12)
            assert np.allclose(out.W_gamma, alone.W_gamma, rtol=0.0, atol=1e-12)
            assert extract_from_state(out, config) == extract_from_state(alone, config)
        assert np.array_equal(state.theta, before.theta)
        assert np.array_equal(state.W_gamma, before.W_gamma)

    def test_unequal_shards_raise(self):
        rng, state, h, config = small_setup(seed=31)
        X, y = make_blobs(64, rng)
        with pytest.raises(ValueError):
            local_updates(state, [(X, y), (X[:63], y[:63])], h, config, epochs=1)
        with pytest.raises(ValueError):
            local_updates(state, [], h, config, epochs=1)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_one_diverging_client_raises(self):
        rng, state, h, config = small_setup(seed=32)
        shards = self.shards(rng, 3, samples=64)
        X, y = shards[1]
        shards[1] = (X * 1e300, y)
        with pytest.raises(RuntimeError, match="diverged"):
            local_updates(state, shards, h, config, epochs=1)


class TestFedavg:
    def test_average_of_copies_is_identity(self):
        _, state, _, _ = small_setup(seed=16)
        out = fedavg([state.copy() for _ in range(4)])
        assert np.allclose(out.theta, state.theta)
        assert np.allclose(out.W_gamma, state.W_gamma)

    def test_two_client_midpoint(self):
        _, a, _, _ = small_setup(seed=17)
        b = a.copy()
        b.theta = b.theta + 2.0
        b.W_gamma = b.W_gamma - 4.0
        out = fedavg([a, b])
        assert np.allclose(out.theta, a.theta + 1.0)
        assert np.allclose(out.W_gamma, a.W_gamma - 2.0)

    def test_client_order_irrelevant_up_to_fp(self):
        rng = np.random.default_rng(18)
        states = [init_model(64, rng) for _ in range(3)]
        out1 = fedavg(states)
        out2 = fedavg(states[::-1])
        assert np.allclose(out1.theta, out2.theta)

    def test_weight_validation(self):
        _, state, _, _ = small_setup(seed=19)
        with pytest.raises(ValueError):
            fedavg([state, state.copy()], lambdas=[1.0, 0.5])
        with pytest.raises(ValueError):
            fedavg([state, state.copy()], lambdas=[2.0])
        with pytest.raises(ValueError):
            fedavg([])
        other = init_model(128, np.random.default_rng(20))
        with pytest.raises(ValueError):
            fedavg([state, other])

    def test_weighted_average(self):
        _, a, _, _ = small_setup(seed=21)
        b = a.copy()
        b.theta = b.theta + 4.0
        out = fedavg([a, b], lambdas=[1.5, 0.5])
        assert np.allclose(out.theta, a.theta + 1.0)


class TestFederation:
    def test_small_federation_embeds_and_learns(self):
        rng = np.random.default_rng(22)
        h = BitVec.random(64, rng)
        config = make_embedding(256, 64, rng)
        state, hist, (shards, (X_test, y_test)) = run_federation(
            h, 3, 4, 8, config, rng, omega=256, samples_per_client=120,
            test_samples=300, lr=0.03)
        assert len(hist) == 4
        assert hist[-1].report.r == 1.0
        assert hist[-1].accuracy > 0.9  # widely separated default blobs
        assert len(shards) == 3
        assert all(len(Xk) == 120 for Xk, _ in shards)
        assert accuracy(state, X_test, y_test) == hist[-1].accuracy

    def test_single_client_is_centralized(self):
        rng = np.random.default_rng(23)
        h = BitVec.random(32, rng)
        config = make_embedding(128, 32, rng)
        state, hist, _ = run_federation(h, 1, 3, 3, config, rng, omega=128,
                                        samples_per_client=100, test_samples=100)
        assert hist[-1].report.r == 1.0

    def test_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(24)
            h = BitVec.random(32, rng)
            config = make_embedding(128, 32, rng)
            return run_federation(h, 2, 2, 2, config, rng, omega=128,
                                  samples_per_client=60, test_samples=60)
        s1, h1, _ = run()
        s2, h2, _ = run()
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(s1.W_gamma, s2.W_gamma)
        assert h1 == h2

    def test_one_stacked_hinge_call_per_step(self, monkeypatch):
        calls = []
        real = model.hinge_loss_and_grad

        def spy(W_gamma, E, h, mu_hinge):
            calls.append(W_gamma.shape)
            return real(W_gamma, E, h, mu_hinge)

        monkeypatch.setattr(model, "hinge_loss_and_grad", spy)
        rng = np.random.default_rng(26)
        h = BitVec.random(32, rng)
        config = make_embedding(128, 32, rng)
        K, rounds, epochs, samples, batch = 4, 2, 3, 70, 32
        run_federation(h, K, rounds, epochs, config, rng, omega=128,
                       samples_per_client=samples, test_samples=50, batch=batch)
        steps = -(-samples // batch)
        assert calls == [(K, 128)] * (rounds * epochs * steps)

    def test_client_count_validation(self):
        rng = np.random.default_rng(25)
        h = BitVec.random(16, rng)
        config = make_embedding(64, 16, rng)
        with pytest.raises(ValueError):
            run_federation(h, 0, 1, 1, config, rng, omega=64)


class TestFloat32:
    def test_embedding_is_the_float64_stream_rounded(self):
        # 300 rows span two draw blocks; the generator ends where one
        # float64 draw leaves it, so later draws do not shift
        a, b = np.random.default_rng(40), np.random.default_rng(40)
        E = make_embedding(300, 70, a).E
        assert E.dtype == np.float32
        assert np.array_equal(E, b.standard_normal((300, 70)).astype(np.float32))
        assert a.standard_normal() == b.standard_normal()

    def test_training_keeps_every_array_float32(self):
        rng = np.random.default_rng(41)
        h = BitVec.random(32, rng)
        config = make_embedding(128, 32, rng)
        state, _, (shards, (X_test, _)) = run_federation(
            h, 2, 2, 2, config, rng, omega=128, samples_per_client=60, test_samples=60)
        arrays = [state.theta, state.W_gamma, X_test, *(X for X, _ in shards)]
        assert all(a.dtype == np.float32 for a in arrays)
        losses, grad = hinge_loss_and_grad(np.tile(state.W_gamma, (2, 1)), config.E, h, 0.5)
        assert losses.dtype == grad.dtype == np.float32


class TestData:
    def test_blob_shapes_and_labels(self):
        X, y = make_blobs(500, np.random.default_rng(26), d_in=8, classes=5)
        assert X.shape == (500, 8)
        assert y.shape == (500,)
        assert set(np.unique(y)) <= set(range(5))

    def test_blobs_separable_at_default_scale(self):
        rng = np.random.default_rng(27)
        X, y = make_blobs(800, rng)
        state = init_model(256, rng)
        h = BitVec.random(16, rng)
        config = make_embedding(256, 16, rng, lam=0.0)
        trained = local_update(state, (X[:600], y[:600]), h, config, epochs=8, lr=0.03)
        assert accuracy(trained, X[600:], y[600:]) > 0.9
