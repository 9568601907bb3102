"""Acceptance suite: one test and one verdict line per shipping criterion.

Every test measures its own wall time against the stated budget and prints

    criterion NN PASS: <numbers>        (or FAIL)

so the verdict survives in captured output either way.  Seeds are fixed;
each criterion is a statistical claim checked at a tolerance the sample
size comfortably supports, not a tuned threshold.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from fedzkp.attacks import (AttackEvalContext, GameParams, finetune_attack,
                            prune_attack, run_security_game, targeted_destruction)
from fedzkp.bench import bench_generation, bench_verification
from fedzkp.bounds import (SecurityParams, advantage_bound, compute_err_n,
                           convergence_exponent, near_collision_prob)
from fedzkp.costs import cost_report
from fedzkp.gf2 import BitVec
from fedzkp.lpn import XlpnParams, gen_instance
from fedzkp.model import make_embedding, run_federation
from fedzkp.protocol import ProverSession, VerifierSession
from fedzkp.sigma import (Challenge, Transcript, cheat_commit, extract_witness,
                          prover_commit, prover_respond, simulate_round,
                          verifier_challenge, verifier_check_round)
from fedzkp.watermark import aggregate, hash_watermark

FULL = XlpnParams(800, 700, Fraction(1, 4))
SMALL = XlpnParams(48, 32, Fraction(1, 4))


def verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def loopback(prover: ProverSession, verifier: VerifierSession):
    """Pump a sans-io prover/verifier pair to completion."""
    pending = prover.start()
    while pending:
        replies = []
        for line in pending:
            replies.extend(verifier.feed(line))
        pending = []
        for line in replies:
            pending.extend(prover.feed(line))
    return verifier.summary()


def test_c01_completeness_1000_sessions():
    budget = 300.0
    start = time.perf_counter()
    rng = np.random.default_rng(201)
    sec = SecurityParams.derive(1024)
    accepted = total = 0
    for _ in range(100):  # fresh key material every 10 sessions
        parts = [gen_instance(FULL, rng) for _ in range(2)]
        agg = aggregate([pub for pub, _ in parts])
        wm = hash_watermark(agg, 1024)
        for i in range(10):
            client = i % 2
            prover = ProverSession(parts[client][1], agg, FULL, client, 30, rng, 800)
            verifier = VerifierSession(wm.h, sec.err_n, 30, rng, 800)
            summary = loopback(prover, verifier)
            total += 1
            accepted += bool(summary.accepted and not summary.aborted)
    elapsed = time.perf_counter() - start
    verdict(1, accepted == total == 1000 and elapsed < budget,
            f"{accepted}/{total} honest d=30 sessions accepted, {elapsed:.1f}s (budget {budget:.0f}s)")


def test_c02_single_round_knowledge_error():
    budget = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    pub, _ = gen_instance(SMALL, rng)
    rounds = 3000
    wins = 0
    for _ in range(rounds):
        state, msg1 = cheat_commit(pub, SMALL.w, int(rng.integers(0, 3)), rng, 64)
        ch = verifier_challenge(rng)
        wins += verifier_check_round(pub, msg1, ch, prover_respond(state, ch))
    rate = wins / rounds
    elapsed = time.perf_counter() - start
    verdict(2, abs(rate - 2 / 3) <= 0.03 and elapsed < budget,
            f"cheating prover accepted {rate:.4f} of {rounds} rounds "
            f"(target 2/3 +- 0.03), {elapsed:.1f}s (budget {budget:.0f}s)")


def test_c03_special_soundness_extraction():
    budget = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(203)
    hits = 0
    cases = 100
    for _ in range(cases):
        pub, cred = gen_instance(SMALL, rng)
        state, msg1 = prover_commit(pub, cred, rng, 64)
        transcripts = []
        for c in (0, 1, 2):
            resp = prover_respond(state, Challenge(c))
            ok = verifier_check_round(pub, msg1, Challenge(c), resp)
            transcripts.append(Transcript(msg1, Challenge(c), resp, ok))
        s, e = extract_witness(pub, *transcripts)
        hits += (s == cred.s and e == cred.e and e.weight() == SMALL.w)
    elapsed = time.perf_counter() - start
    verdict(3, hits == cases and elapsed < budget,
            f"extractor recovered the exact credential in {hits}/{cases} triples, "
            f"{elapsed:.1f}s (budget {budget:.0f}s)")


def test_c04_hvzk_simulation():
    budget = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(204)

    pub, _ = gen_instance(SMALL, rng)
    sims = 10_000
    sim_ok = 0
    for i in range(sims):
        tr = simulate_round(pub, Challenge(i % 3), rng, l_com=64)
        sim_ok += tr.accepted
    all_accept = sim_ok == sims

    # marginals of the opened vectors, real prover vs simulator
    tiny = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    pub_t, cred_t = gen_instance(tiny, rng)
    opened = {0: ("t0", "t1"), 1: ("t0", "t2"), 2: ("t1", "t2")}
    draws = 10_000
    worst_p = 1.0
    for c in (0, 1, 2):
        real = {slot: np.zeros(256, dtype=np.int64) for slot in opened[c]}
        sim = {slot: np.zeros(256, dtype=np.int64) for slot in opened[c]}
        for _ in range(draws):
            state, _ = prover_commit(pub_t, cred_t, rng, l_com=8)
            resp = prover_respond(state, Challenge(c))
            tr = simulate_round(pub_t, Challenge(c), rng, l_com=8)
            for slot in opened[c]:
                real[slot][resp_byte(resp, slot)] += 1
                sim[slot][resp_byte(tr.response, slot)] += 1
        for slot in opened[c]:
            _, p, _, _ = chi2_contingency(np.vstack([real[slot], sim[slot]]) + 1)
            worst_p = min(worst_p, p)
    elapsed = time.perf_counter() - start
    verdict(4, all_accept and worst_p > 0.01 and elapsed < budget,
            f"{sim_ok}/{sims} simulated transcripts accepted; worst marginal "
            f"chi-square p={worst_p:.4f} (floor 0.01), {elapsed:.1f}s (budget {budget:.0f}s)")


def resp_byte(resp, slot: str) -> int:
    return getattr(resp, slot).to_bytes()[0]


def test_c05_detection_rate_convergents():
    budget = 60.0
    start = time.perf_counter()
    lo = convergence_exponent(10_000, 0.025)
    hi = convergence_exponent(10_000, 0.075)
    elapsed = time.perf_counter() - start
    verdict(5, 0.708 <= lo <= 0.718 and 0.385 <= hi <= 0.395 and elapsed < budget,
            f"exponent(1e4, 0.025)={lo:.6f} in [0.708, 0.718]; "
            f"exponent(1e4, 0.075)={hi:.6f} in [0.385, 0.395]; "
            f"{elapsed:.1f}s (budget {budget:.0f}s)")


def test_c06_cost_report_reference_point():
    rep = cost_report(10, 800, 700, 300, 800)
    ok = (rep.memory_bits == 12_958_500 and rep.communication_bits == 6_753_400
          and f"{rep.memory_mb:.2f}" == "1.54" and f"{rep.communication_kb:.0f}" == "824")
    verdict(6, ok,
            f"memory {rep.memory_bits} bits ({rep.memory_mb:.2f} MB), "
            f"communication {rep.communication_bits} bits ({rep.communication_kb:.0f} KB), bit-exact")


def test_c07_near_collision_monte_carlo():
    budget = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(207)
    n, draws = 16, 1_000_000
    table = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    a = rng.integers(0, 1 << n, size=draws, dtype=np.uint32)
    b = rng.integers(0, 1 << n, size=draws, dtype=np.uint32)
    dist = table[a ^ b]
    results = []
    ok = True
    for t in (2, 4, 6):
        expected = float(near_collision_prob(n, t))
        observed = float(np.mean(dist <= t))
        se = (expected * (1 - expected) / draws) ** 0.5
        pull = abs(observed - expected) / se
        ok = ok and pull <= 3.0
        results.append(f"t={t}: obs {observed:.6f} vs exact {expected:.6f} ({pull:.2f} SE)")
    elapsed = time.perf_counter() - start
    verdict(7, ok and elapsed < budget,
            "; ".join(results) + f"; {elapsed:.1f}s (budget {budget:.0f}s)")


def test_c08_security_game_bound():
    budget = 300.0
    start = time.perf_counter()
    rng = np.random.default_rng(208)
    n, d, q, k, games = 12, 3, 2, 100, 500
    err_n = compute_err_n(n, Fraction(1, 2**12))
    params = GameParams(xlpn=XlpnParams(24, 12, Fraction(1, 4)), n_bits=n, err_n=err_n, K=1)
    wins = sum(run_security_game(q, k, d, params, rng).won for _ in range(games))
    rate = wins / games
    bound = float(advantage_bound(k, q, n, err_n, d))
    sigma = (bound * (1 - bound) / games) ** 0.5
    elapsed = time.perf_counter() - start
    verdict(8, rate <= bound + 3 * sigma and elapsed < budget,
            f"win rate {rate:.4f} over {games} games vs bound {bound:.4f} "
            f"+ 3 sigma = {bound + 3 * sigma:.4f}, {elapsed:.1f}s (budget {budget:.0f}s)")


def run_reference_federation(seed: int, K: int = 10):
    """Desk-scale training run used throughout criterion 9.

    Library defaults stay conservative; this config turns the watermark
    pressure up to where a 4096-wide scale vector pins 1024 bits hard,
    which is what the capacity claim needs at this problem size.
    """
    rng = np.random.default_rng(seed)
    h = BitVec.random(1024, rng)
    config = make_embedding(4096, 1024, rng, lam=50.0, mu_hinge=64.0)
    state, history, (shards, eval_data) = run_federation(
        h, K, 5, 6, config, rng, omega=4096,
        samples_per_client=200, test_samples=2000, lr=0.01, batch=32,
        d_in=16, classes=96, gamma_scale=1.0, center_scale=1.0,
    )
    return h, config, state, history, shards, eval_data


def test_c09_embedding_capacity_and_robustness():
    budget = 600.0
    start = time.perf_counter()
    r_n = float(SecurityParams.derive(1024).r_n)
    problems = []

    # capacity: full detection within 5 rounds on every seed
    kept = {}
    first_perfect = []
    for seed in range(10):
        h, config, state, history, shards, eval_data = run_reference_federation(seed)
        rounds_to_one = next((rec.round for rec in history if rec.report.r == 1.0), None)
        if rounds_to_one is None:
            problems.append(f"seed {seed} never reached r=1.0 (final {history[-1].report.r:.4f})")
        else:
            first_perfect.append(rounds_to_one)
        if seed < 3:
            kept[seed] = (h, config, state, history, shards, eval_data)

    # client-count sensitivity at seed 0
    finals = {}
    for K in (5, 10, 20):
        _, _, _, history, _, _ = run_reference_federation(0, K=K)
        finals[K] = history[-1].report.r
    spread_pts = (max(finals.values()) - min(finals.values())) * 100
    if spread_pts > 0.5:
        problems.append(f"K spread {spread_pts:.2f} points across {finals}")

    # robustness + targeted destruction on three trained states
    destruction_samples = 0
    for seed, (h, config, state, history, shards, eval_data) in kept.items():
        ctx = AttackEvalContext(h=h, config=config, eval_data=eval_data)
        base_acc = history[-1].accuracy

        _, ft = finetune_attack(state, shards[0], 50, ctx, lr=0.01, batch=32)
        if ft.report.r < r_n:
            problems.append(f"seed {seed}: finetune 50 epochs broke the mark (r={ft.report.r:.4f})")
        for rate in (0.1, 0.3, 0.5):
            _, pr = prune_attack(state, rate, ctx)
            if pr.report.r < r_n:
                problems.append(f"seed {seed}: prune {rate} broke the mark (r={pr.report.r:.4f})")

        noise_rng = np.random.default_rng(1000 + seed)
        for phi in (0.05, 0.2, 0.4, 0.6, 0.85, 0.99):
            for _ in range(4):
                _, td = targeted_destruction(state, phi, ctx, noise_rng)
                destruction_samples += 1
                if td.report.r < r_n:
                    drop_pts = (base_acc - td.accuracy) * 100
                    if drop_pts < 10.0:
                        problems.append(
                            f"seed {seed}: phi={phi} erased the mark (r={td.report.r:.4f}) "
                            f"while accuracy only dropped {drop_pts:.1f} points")

    elapsed = time.perf_counter() - start
    detail = (f"r=1.0 by round {min(first_perfect, default=0)}-{max(first_perfect, default=0)} "
              f"on {len(first_perfect)}/10 seeds; K spread {spread_pts:.2f} points; "
              f"finetune/prune kept r >= r_n={r_n:.4f} on 3 states; "
              f"{destruction_samples} destruction draws all coupled mark loss to >= 10 point "
              f"accuracy cost; {elapsed:.1f}s (budget {budget:.0f}s)")
    if problems:
        detail = "; ".join(problems) + f"; {elapsed:.1f}s"
    verdict(9, not problems and elapsed < budget, detail)


def test_c10_timing_growth_trends():
    budget = 300.0
    start = time.perf_counter()
    gen = bench_generation(reps=40, rng=np.random.default_rng(210))
    ver = bench_verification(reps=12, rng=np.random.default_rng(211))
    elapsed = time.perf_counter() - start
    gen_ok = 1.5 <= gen.slope <= 2.5
    ver_ok = 2.5 <= ver.slope <= 3.5
    verdict(10, gen_ok and ver_ok and elapsed < budget,
            f"generation slope {gen.slope:.3f} (window [1.5, 2.5]), "
            f"verification slope {ver.slope:.3f} (window [2.5, 3.5]), "
            f"{elapsed:.1f}s (budget {budget:.0f}s)")
