"""Adversary toolbox: removal attacks on the watermarked model and the
six-phase security game against the credential scheme.

Removal attacks take a trained state and return the attacked state along
with an AttackReport pairing the post-attack detection rate with the
post-attack accuracy, both measured on the same state.  The watermark
target and the aggregated inputs are never touched; only model
parameters change.

The security game pits an adversary without credentials against q
challenge instances: it may burn k hash queries hunting for a near
collision (challenge 1) and then plays prover on each public input
(challenge 2) using the guess-one-challenge cheating strategy, the
strongest concrete strategy available against the three-way challenge.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .commitments import DEFAULT_COMMIT_BITS
from .gf2 import BitVec, hamming_distance
from .lpn import XlpnParams, gen_instance
from .model import (DEFAULT_BATCH, DEFAULT_LR, DetectionReport, EmbeddingConfig,
                    ModelState, accuracy, detection_rate, extract_from_state,
                    local_update)
from .sigma import (cheat_commit, prover_commit, prover_respond,
                    verifier_challenge, verifier_check_round)
from .watermark import AggregatedInput, aggregate, hash_watermark


@dataclass(frozen=True)
class AttackEvalContext:
    """Everything needed to score an attacked state: the watermark target,
    where it was embedded, and held-out data sharing the training centers."""

    h: BitVec
    config: EmbeddingConfig
    eval_data: tuple


@dataclass(frozen=True)
class AttackReport:
    """Post-attack measurements, always taken from the same attacked state."""

    kind: str
    parameter: float
    report: DetectionReport
    accuracy: float


@dataclass(frozen=True)
class GameParams:
    """Sizes for one security game: credential shape, digest width, threshold."""

    xlpn: XlpnParams
    n_bits: int
    err_n: int
    K: int = 1
    l_com: int = DEFAULT_COMMIT_BITS


@dataclass(frozen=True)
class GameOutcome:
    won_challenge1: bool
    won_challenge2: bool
    queries_used: int
    instances: int
    log: tuple

    @property
    def won(self) -> bool:
        return self.won_challenge1 or self.won_challenge2


def _measure(kind: str, parameter: float, state: ModelState,
             ctx: AttackEvalContext) -> AttackReport:
    rep = detection_rate(ctx.h, extract_from_state(state, ctx.config))
    X_eval, y_eval = ctx.eval_data
    return AttackReport(kind, float(parameter), rep, accuracy(state, X_eval, y_eval))


def finetune_attack(
    state: ModelState,
    data,
    epochs: int,
    ctx: AttackEvalContext,
    lr: float = DEFAULT_LR,
    batch: int = DEFAULT_BATCH,
):
    """Continue training on the attacker's own data with the watermark term off."""
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if epochs == 0:
        attacked = state.copy()
    else:
        free_cfg = dataclasses.replace(ctx.config, lam=0.0)
        attacked = local_update(state, data, ctx.h, free_cfg, epochs, lr=lr, batch=batch)
    return attacked, _measure("finetune", epochs, attacked, ctx)


def prune_attack(state: ModelState, rate: float, ctx: AttackEvalContext):
    """Zero the globally smallest-magnitude fraction of theta and W_gamma."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"prune rate must lie in [0,1], got {rate}")
    attacked = state.copy()
    pool = np.concatenate([np.abs(attacked.theta), np.abs(attacked.W_gamma)])
    count = int(round(rate * pool.size))
    if count:
        order = np.argsort(pool, kind="stable")[:count]
        in_theta = order < attacked.theta.size
        attacked.theta[order[in_theta]] = 0.0
        attacked.W_gamma[order[~in_theta] - attacked.theta.size] = 0.0
    return attacked, _measure("prune", rate, attacked, ctx)


def targeted_destruction(state: ModelState, phi: float, ctx: AttackEvalContext,
                         rng: np.random.Generator):
    """Blur the scale vector with noise matched to its own moments.

    The noise is N(mean, phi * var) of the current W_gamma, mean included:
    a nonzero parameter mean turns the attack into a systematic shift on
    top of the blur, which is kept as-is rather than re-centered.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"noise fraction phi must lie in (0,1), got {phi}")
    if state.W_gamma.size == 0 or np.all(state.W_gamma == state.W_gamma.flat[0]):
        raise ValueError("scale vector is degenerate (zero variance)")
    mu = float(state.W_gamma.mean())
    var = float(state.W_gamma.var())
    attacked = state.copy()
    noise = rng.normal(mu, np.sqrt(phi * var), size=attacked.W_gamma.shape)
    attacked.W_gamma += noise.astype(attacked.W_gamma.dtype)
    return attacked, _measure("noise", phi, attacked, ctx)


def bruteforce_near_collision(
    targets: list,
    k: int,
    params: XlpnParams,
    rng: np.random.Generator,
    err_n: int,
    K: int = 1,
) -> Optional[AggregatedInput]:
    """Hunt for a fresh credential set whose digest nearly collides.

    Draws up to k aggregated instance sets and returns the first whose
    watermark lands within 2*err_n of any target digest, or None once
    the budget is exhausted.
    """
    if k < 0:
        raise ValueError("query budget must be nonnegative")
    if not targets:
        raise ValueError("need at least one target watermark")
    n_bits = targets[0].n
    if any(t.n != n_bits for t in targets):
        raise ValueError("all target watermarks must have one length")
    for _ in range(k):
        pubs = [gen_instance(params, rng)[0] for _ in range(K)]
        agg = aggregate(pubs)
        forged = hash_watermark(agg, n_bits)
        if any(hamming_distance(forged.h, t.h) <= 2 * err_n for t in targets):
            return agg
    return None


def _play(pub, cred, d: int, params: GameParams, rng: np.random.Generator,
          log: list, who: str) -> bool:
    """d rounds against the verifier's check of `pub`.

    A prover that holds `cred` commits honestly; without one (None) it
    sacrifices one challenge per round.  The first rejected round ends
    the session, as it ends a wire session.
    """
    for rnd in range(d):
        if cred is None:
            state, msg1 = cheat_commit(pub, pub.w, int(rng.integers(0, 3)), rng, params.l_com)
        else:
            state, msg1 = prover_commit(pub, cred, rng, params.l_com)
        ch = verifier_challenge(rng)
        ok = verifier_check_round(pub, msg1, ch, prover_respond(state, ch))
        log.append(f"{who} round {rnd}: challenged {ch.c} -> {ok}")
        if not ok:
            return False
    return True


def run_security_game(
    q: int,
    k: int,
    d: int,
    params: GameParams,
    rng: np.random.Generator,
    adversary_knows_witness: bool = False,
) -> GameOutcome:
    """One full game: setup, q challenge instances, observation phase,
    k-query near-collision hunt, then witness-free proving.

    Challenge 2 is only played when challenge 1 fails, matching the
    advantage decomposition Pr[E1] + Pr[E2 | not E1].  The control flag
    hands the adversary the real credentials, turning challenge 2 into
    a completeness check.
    """
    if q < 1 or d < 1:
        raise ValueError("need at least one instance and one round")
    if k < 0:
        raise ValueError("query budget must be nonnegative")
    log = [f"setup: m={params.xlpn.m} l={params.xlpn.l} n={params.n_bits} err_n={params.err_n}"]

    creds, watermarks = [], []
    for j in range(q):
        parts = [gen_instance(params.xlpn, rng) for _ in range(params.K)]
        agg = aggregate([pub for pub, _ in parts])
        watermarks.append(hash_watermark(agg, params.n_bits))
        creds.append(parts)
        log.append(f"instance {j}: digest {watermarks[-1].h.to_bytes().hex()}")

    # observation phase: honest transcripts leak nothing the cheat uses,
    # but the game runs them so the adversary's view matches the model
    for j, parts in enumerate(creds):
        pub, cred = parts[0]
        ok = _play(pub, cred, d, params, rng, log, f"observed session {j}")
        log.append(f"phase: observed honest session {j} -> {ok}")

    won1 = bruteforce_near_collision(watermarks, k, params.xlpn, rng,
                                     params.err_n, params.K) is not None
    log.append(f"challenge 1: {'hit' if won1 else 'miss'} after {k} queries")

    won2 = False
    if not won1:
        for j, parts in enumerate(creds):
            pub, cred = parts[0]
            ok = _play(pub, cred if adversary_knows_witness else None, d, params, rng,
                       log, f"challenge 2 session {j}")
            log.append(f"challenge 2 (session {j}): {ok}")
            if ok:
                won2 = True
                break
    return GameOutcome(won1, won2, k, q, tuple(log))
