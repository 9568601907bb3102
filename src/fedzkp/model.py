"""Desk-scale federated model carrying a sign watermark in its scale layer.

The network is one hidden layer with a per-unit scale vector W_gamma
playing the role a normalization gamma plays in larger models:

    a = relu(X @ W1 + b1)
    z = W_gamma * a
    logits = z @ W2 + b2

The watermark target h lives in the signs of W_gamma @ E for a fixed
Gaussian embedding matrix E.  Training minimizes cross-entropy plus a
hinge regularizer that pushes each projection past a margin on the side
its watermark bit prescribes.  The hinge is reported in its plain sum
form, but local updates scale it as lambda * (loss / n): with per-bit
gradients of magnitude about omega, the raw sum at default sizes would
need a learning rate a thousandfold smaller for the main task, so the
regularizer is normalized per bit instead of shrinking lambda.

The main task is deliberately tiny: 10 Gaussian blob classes in 16
dimensions, enough to expose the fidelity/robustness trade-offs without
real training budgets.

A federated round trains its K clients in lock step (local_updates).
They all start from the global state and hold shards of one length, so
step s takes the same batch slice from each.  The main task runs per
client; the hinge runs once per step for the K scale vectors stacked as
rows, one product pair against E for all of them instead of K.
local_update is the K=1 case of the same loop.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .gf2 import BitVec, hamming_distance

DEFAULT_WIDTH = 4096
DEFAULT_LAMBDA = 1.0
DEFAULT_MARGIN = 0.5
DEFAULT_LR = 0.01
DEFAULT_BATCH = 32
DEFAULT_INPUT_DIM = 16
DEFAULT_CLASSES = 10
GAMMA_INIT_SCALE = 0.02


@dataclass
class ModelState:
    """Flat main-task weights plus the watermark-carrying scale vector."""

    d_in: int
    omega: int
    classes: int
    theta: np.ndarray
    W_gamma: np.ndarray

    def copy(self) -> "ModelState":
        return ModelState(self.d_in, self.omega, self.classes, self.theta.copy(), self.W_gamma.copy())


@dataclass(frozen=True)
class EmbeddingConfig:
    """Where and how the watermark is pressed into the scale vector."""

    E: np.ndarray
    P: np.ndarray
    lam: float = DEFAULT_LAMBDA
    mu_hinge: float = DEFAULT_MARGIN

    def __post_init__(self):
        # a repeated index would drop gradient terms: dgamma[P] += g
        # writes each entry once, it does not accumulate duplicates
        if (self.P.ndim != 1 or self.P.dtype.kind not in "iu"
                or np.unique(self.P).size != self.P.size):
            raise ValueError("P must be a 1-D array of distinct integer indices")
        if self.E.ndim != 2 or self.E.shape[0] != self.P.size:
            raise ValueError("embedding matrix must have one row per selected scale entry")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.mu_hinge <= 0:
            raise ValueError("hinge margin must be positive")


@dataclass(frozen=True)
class DetectionReport:
    r: float
    err: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    report: DetectionReport
    accuracy: float


def _theta_layout(d_in: int, omega: int, classes: int):
    sizes = [d_in * omega, omega, omega * classes, classes]
    offsets = np.cumsum([0] + sizes)
    return sizes, offsets


def _unpack(state: ModelState):
    _, off = _theta_layout(state.d_in, state.omega, state.classes)
    t = state.theta
    W1 = t[off[0]:off[1]].reshape(state.d_in, state.omega)
    b1 = t[off[1]:off[2]]
    W2 = t[off[2]:off[3]].reshape(state.omega, state.classes)
    b2 = t[off[3]:off[4]]
    return W1, b1, W2, b2


def init_model(
    omega: int,
    rng: np.random.Generator,
    d_in: int = DEFAULT_INPUT_DIM,
    classes: int = DEFAULT_CLASSES,
    gamma_scale: float = GAMMA_INIT_SCALE,
) -> ModelState:
    W1 = rng.standard_normal((d_in, omega)) / np.sqrt(d_in)
    b1 = np.zeros(omega)
    W2 = rng.standard_normal((omega, classes)) / np.sqrt(omega)
    b2 = np.zeros(classes)
    theta = np.concatenate([W1.ravel(), b1, W2.ravel(), b2])
    gamma = gamma_scale * rng.standard_normal(omega)
    return ModelState(d_in, omega, classes, theta, gamma)


def make_embedding(omega: int, n: int, rng: np.random.Generator,
                   lam: float = DEFAULT_LAMBDA, mu_hinge: float = DEFAULT_MARGIN,
                   P: Optional[np.ndarray] = None) -> EmbeddingConfig:
    if P is None:
        P = np.arange(omega)
    E = rng.standard_normal((P.size, n))
    return EmbeddingConfig(E=E, P=P, lam=lam, mu_hinge=mu_hinge)


def make_blobs(n_samples: int, rng: np.random.Generator,
               d_in: int = DEFAULT_INPUT_DIM, classes: int = DEFAULT_CLASSES,
               center_scale: float = 3.0):
    """Synthetic classification data: one unit-variance Gaussian blob per class."""
    centers = center_scale * rng.standard_normal((classes, d_in))
    y = rng.integers(0, classes, size=n_samples)
    X = centers[y] + rng.standard_normal((n_samples, d_in))
    return X, y


def _forward(state: ModelState, X: np.ndarray):
    W1, b1, W2, b2 = _unpack(state)
    H = X @ W1 + b1
    A = np.maximum(H, 0.0)
    Z = A * state.W_gamma
    return H, A, Z, Z @ W2 + b2


def accuracy(state: ModelState, X: np.ndarray, y: np.ndarray) -> float:
    _, _, _, logits = _forward(state, X)
    return float(np.mean(np.argmax(logits, axis=1) == y))


def extract_watermark(W_gamma: np.ndarray, E: np.ndarray) -> BitVec:
    """Signs of the scale projections as bits; an exact zero reads as 0."""
    if W_gamma.ndim != 1 or E.ndim != 2 or W_gamma.size != E.shape[0]:
        raise ValueError(f"shape mismatch: scale {W_gamma.shape} against embedding {E.shape}")
    return BitVec((W_gamma @ E > 0).astype(np.uint8))


def extract_from_state(state: ModelState, config: EmbeddingConfig) -> BitVec:
    return extract_watermark(state.W_gamma[config.P], config.E)


def hinge_loss_and_grad(W_gamma: np.ndarray, E: np.ndarray, h: BitVec, mu_hinge: float):
    """Sum-form hinge against +-1 targets and its gradient in W_gamma.

    W_gamma is one scale vector, or K of them stacked as the rows of a
    K x |P| array; a stacked call returns one loss per row and a K x |P|
    gradient from one product pair against E.  The gradient masks the
    targets rather than gathering the active columns of E, so each call
    streams E twice and copies none of it.
    """
    if W_gamma.ndim not in (1, 2) or W_gamma.shape[-1] != E.shape[0] or E.shape[1] != len(h):
        raise ValueError("hinge shapes do not conform")
    t = 2.0 * h.bits.astype(np.float64) - 1.0
    p = W_gamma @ E
    violation = mu_hinge - t * p
    active = violation > 0
    losses = [float(v[a].sum()) for v, a in zip(np.atleast_2d(violation), np.atleast_2d(active))]
    grad = -(E @ np.where(active, t, 0.0).T).T
    return (losses[0] if W_gamma.ndim == 1 else np.array(losses)), grad


def detection_rate(h_target: BitVec, h_extracted: BitVec) -> DetectionReport:
    err = hamming_distance(h_target, h_extracted)  # raises on length mismatch
    return DetectionReport(r=1.0 - err / len(h_target), err=err)


def local_updates(
    state: ModelState,
    shards,
    h: BitVec,
    config: EmbeddingConfig,
    epochs: int,
    lr: float = DEFAULT_LR,
    batch: int = DEFAULT_BATCH,
) -> list:
    """Mini-batch SGD on cross-entropy + lambda * (hinge / n) for K clients
    that all start from `state`; returns one new state per shard.

    The clients run in lock step, so the shards must be equal in length:
    step s takes the same batch slice from each.  Their scale vectors are
    the rows of one K x omega array, and each step makes one stacked
    hinge call for all of them.  The shards may be empty, in which case
    each epoch is a single pure regularizer step.  Batches run in fixed
    order, so the result is a deterministic function of the inputs.
    """
    sizes = {len(X) for X, _ in shards}
    if len(sizes) != 1:
        raise ValueError("need one or more client shards of equal length")
    n_samples = sizes.pop()
    K = len(shards)
    gammas = np.tile(state.W_gamma, (K, 1))
    outs = [ModelState(state.d_in, state.omega, state.classes, state.theta.copy(), gammas[k])
            for k in range(K)]
    layers = [_unpack(out) for out in outs]
    scale = config.lam / len(h)
    for _ in range(epochs):
        starts = range(0, n_samples, batch) if n_samples else (0,)
        for s in starts:
            main_loss = np.zeros(K)
            dgammas = np.zeros_like(gammas)
            if n_samples:
                # Inline, not a helper: each client's arrays stay bound
                # until the next client's step replaces them.  Freeing them
                # all at a helper's return lets glibc trim the heap and
                # fault the pages back in on every step, which made the
                # main task 1.6x slower at 96 classes.
                for k, (X, y) in enumerate(shards):
                    W1, b1, W2, b2 = layers[k]
                    gamma = gammas[k]
                    xb, yb = X[s:s + batch], y[s:s + batch]
                    nb = len(xb)
                    Hh = xb @ W1
                    Hh += b1
                    A = np.maximum(Hh, 0.0)
                    Z = A * gamma
                    logits = Z @ W2 + b2
                    logits -= logits.max(axis=1, keepdims=True)
                    expl = np.exp(logits)
                    probs = expl / expl.sum(axis=1, keepdims=True)
                    main_loss[k] = -np.mean(np.log(probs[np.arange(nb), yb] + 1e-300))
                    dO = probs
                    dO[np.arange(nb), yb] -= 1.0
                    dO /= nb
                    dW2 = Z.T @ dO
                    db2 = dO.sum(axis=0)
                    dZ = dO @ W2.T
                    dgammas[k] = (dZ * A).sum(axis=0)
                    dH = dZ
                    dH *= gamma
                    dH *= Hh > 0
                    dW1 = xb.T @ dH
                    db1 = dH.sum(axis=0)
                    W1 -= lr * dW1
                    b1 -= lr * db1
                    W2 -= lr * dW2
                    b2 -= lr * db2
            if config.lam > 0:
                h_loss, h_grad = hinge_loss_and_grad(gammas[:, config.P], config.E, h, config.mu_hinge)
                dgammas[:, config.P] += scale * h_grad
            else:
                h_loss = 0.0
            total = main_loss + scale * h_loss
            if not np.isfinite(total).all():
                raise RuntimeError(f"training diverged: client losses {total}")
            gammas -= lr * dgammas
    return outs


def local_update(
    state: ModelState,
    shard,
    h: BitVec,
    config: EmbeddingConfig,
    epochs: int,
    lr: float = DEFAULT_LR,
    batch: int = DEFAULT_BATCH,
) -> ModelState:
    """One client's local_updates: SGD on its shard; returns a new state."""
    return local_updates(state, [shard], h, config, epochs, lr=lr, batch=batch)[0]


def embed_watermark(
    state: ModelState,
    h: BitVec,
    config: EmbeddingConfig,
    max_steps: int = 400,
    lr: float = 0.05,
) -> ModelState:
    """Data-free embedding: hinge-only steps until every margin is met."""
    out = state.copy()
    gamma = out.W_gamma
    scale = config.lam / len(h)
    for _ in range(max_steps):
        loss, grad = hinge_loss_and_grad(gamma[config.P], config.E, h, config.mu_hinge)
        if loss == 0.0:
            break
        gamma[config.P] -= lr * scale * grad
    return out


def fedavg(states: list, lambdas=None) -> ModelState:
    """Weighted parameter average; client weights must sum to the client count."""
    if not states:
        raise ValueError("no client states")
    K = len(states)
    if lambdas is None:
        lambdas = [1.0] * K
    if len(lambdas) != K:
        raise ValueError("one weight per client required")
    if abs(float(np.sum(lambdas)) - K) > 1e-9:
        raise ValueError(f"client weights must sum to {K}")
    ref = states[0]
    for st in states[1:]:
        if (st.d_in, st.omega, st.classes) != (ref.d_in, ref.omega, ref.classes):
            raise ValueError("client states disagree on architecture")
    theta = np.zeros_like(ref.theta)
    gamma = np.zeros_like(ref.W_gamma)
    for lam_k, st in zip(lambdas, states):  # fixed client order for reproducibility
        theta += (lam_k / K) * st.theta
        gamma += (lam_k / K) * st.W_gamma
    return ModelState(ref.d_in, ref.omega, ref.classes, theta, gamma)


def make_federation_data(K: int, samples_per_client: int, test_samples: int,
                         rng: np.random.Generator, d_in: int = DEFAULT_INPUT_DIM,
                         classes: int = DEFAULT_CLASSES, center_scale: float = 3.0):
    """Client shards plus a test split drawn from the same class centers.

    One generator call produces everything, so a stored seed rebuilds the
    identical bundle later (attack tooling relies on that).
    """
    X, y = make_blobs(K * samples_per_client + test_samples, rng, d_in, classes, center_scale)
    X_test, y_test = X[:test_samples], y[:test_samples]
    shards = [
        (X[test_samples + k * samples_per_client: test_samples + (k + 1) * samples_per_client],
         y[test_samples + k * samples_per_client: test_samples + (k + 1) * samples_per_client])
        for k in range(K)
    ]
    return shards, (X_test, y_test)


def run_federation(
    h: BitVec,
    K: int,
    rounds: int,
    local_epochs: int,
    config: EmbeddingConfig,
    rng: np.random.Generator,
    omega: int = DEFAULT_WIDTH,
    samples_per_client: int = 200,
    test_samples: int = 500,
    lr: float = DEFAULT_LR,
    batch: int = DEFAULT_BATCH,
    d_in: int = DEFAULT_INPUT_DIM,
    classes: int = DEFAULT_CLASSES,
    gamma_scale: float = GAMMA_INIT_SCALE,
    center_scale: float = 3.0,
):
    """IID federated training with a shared watermark target.

    Returns the final global state, one RoundRecord per round, and the
    data as (shards, (X_test, y_test)); attacks evaluate against the
    test split, which shares its class centers with the shards.
    """
    if K < 1:
        raise ValueError("need at least one client")
    shards, (X_test, y_test) = make_federation_data(
        K, samples_per_client, test_samples, rng, d_in, classes, center_scale)
    state = init_model(omega, rng, d_in, classes, gamma_scale)
    history = []
    for rnd in range(1, rounds + 1):
        locals_ = local_updates(state, shards, h, config, local_epochs, lr=lr, batch=batch)
        state = fedavg(locals_)
        report = detection_rate(h, extract_from_state(state, config))
        history.append(RoundRecord(rnd, report, accuracy(state, X_test, y_test)))
    return state, history, (shards, (X_test, y_test))
