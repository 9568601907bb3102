"""Microbenchmarks for proof generation and verification growth rates.

Absolute wall-clock numbers depend on the host and are not meaningful
targets; what matters is how per-round cost scales with the instance
height m when the height-over-width gap stays fixed.  Generation is a
matrix-vector product plus hashing, so it should grow roughly
quadratically; verification re-derives the column space of a fresh
matrix, so roughly cubically.  Fits are least-squares in log-log space.

Each verification call gets a rebuilt public input on purpose: the
column basis is cached per matrix, and a verifier meeting an aggregate
for the first time pays for the echelon pass plus the back-substitution
that gives the parity checks; later rounds on that object pay only a
syndrome test.  The rebuilt input expands its matrix from the seed while
the rounds are prepared, so the timed call is the basis and the test.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import median

import numpy as np

from .commitments import DEFAULT_COMMIT_BITS
from .lpn import PublicInput, XlpnParams, gen_instance
from .sigma import Challenge, prover_commit, prover_respond, verifier_check_round

DEFAULT_GRID = (200, 300, 400, 500, 600, 700, 800)
DEFAULT_OFFSET = 100


@dataclass(frozen=True)
class TimingPoint:
    m: int
    l: int
    seconds: float


@dataclass(frozen=True)
class SlopeReport:
    points: tuple
    slope: float
    intercept: float


def _fit(points) -> SlopeReport:
    xs = np.log([p.m for p in points])
    ys = np.log([p.seconds for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    return SlopeReport(points=tuple(points), slope=float(slope), intercept=float(intercept))


def _fresh(pub: PublicInput) -> PublicInput:
    # same seed, new object: drops the cached matrix and its column basis
    fresh = replace(pub)
    fresh.A  # expanded here, outside the timed region
    return fresh


def bench_generation(m_values=DEFAULT_GRID, offset: int = DEFAULT_OFFSET,
                     reps: int = 20, rng=None,
                     l_com: int = DEFAULT_COMMIT_BITS) -> SlopeReport:
    """Median per-round prover cost (commit plus one opening) at each m."""
    if rng is None:
        rng = np.random.default_rng()
    if min(m_values) <= offset:
        raise ValueError("heights must exceed the width offset")
    if reps < 1:
        raise ValueError("need at least one repetition")
    points = []
    for m in m_values:
        params = XlpnParams(m=m, l=m - offset, tau=Fraction(1, 4))
        pub, cred = gen_instance(params, rng)
        times = []
        for i in range(reps):
            ch = Challenge(i % 3)
            t0 = time.perf_counter()
            state, _ = prover_commit(pub, cred, rng, l_com)
            prover_respond(state, ch)
            times.append(time.perf_counter() - t0)
        points.append(TimingPoint(m=m, l=params.l, seconds=median(times)))
    return _fit(points)


def bench_verification(m_values=DEFAULT_GRID, offset: int = DEFAULT_OFFSET,
                       reps: int = 9, rng=None,
                       l_com: int = DEFAULT_COMMIT_BITS) -> SlopeReport:
    """Median per-round verifier cost at each m, challenges cycling 0,1,2."""
    if rng is None:
        rng = np.random.default_rng()
    if min(m_values) <= offset:
        raise ValueError("heights must exceed the width offset")
    if reps < 1:
        raise ValueError("need at least one repetition")
    points = []
    for m in m_values:
        params = XlpnParams(m=m, l=m - offset, tau=Fraction(1, 4))
        pub, cred = gen_instance(params, rng)
        prepared = []
        for i in range(reps):
            ch = Challenge(i % 3)
            state, msg1 = prover_commit(pub, cred, rng, l_com)
            resp = prover_respond(state, ch)
            prepared.append((_fresh(pub), msg1, ch, resp))
        times = []
        for fresh_pub, msg1, ch, resp in prepared:
            t0 = time.perf_counter()
            ok = verifier_check_round(fresh_pub, msg1, ch, resp)
            times.append(time.perf_counter() - t0)
            if not ok:
                raise RuntimeError("honest round rejected during benchmarking")
        points.append(TimingPoint(m=m, l=params.l, seconds=median(times)))
    return _fit(points)
