"""Security arithmetic for the watermark and the proof.

Everything here reduces to partial binomial sums S(n, t) = sum_{i<=t}
C(n, i), evaluated with exact big integers; probabilities are returned as
Fractions so threshold comparisons never ride on float rounding.  Floats
appear only in the convergence exponent, which is a reported quantity,
not a decision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_REQUIRED_PROB = Fraction(1, 2**128)


def _ball(n: int, t: int) -> int:
    """Number of n-bit strings within Hamming distance t of a fixed string."""
    return sum(math.comb(n, i) for i in range(t + 1))


def near_collision_prob(n: int, n_prime: int) -> Fraction:
    """Probability that a uniform n-bit string lands within distance n' of a target."""
    if not 0 <= n_prime <= n:
        raise ValueError(f"need 0 <= n' <= n, got n'={n_prime}, n={n}")
    return Fraction(_ball(n, n_prime), 2**n)


def compute_err_n(n: int, p_r) -> int:
    """Largest tolerable bit-error budget for a required forgery probability.

    Returns the unique t with S(n, 2t-1) < p_r * 2^n <= S(n, 2t); the 2t
    radius accounts for errors splitting between the embedded and the
    extracted copy.  p_r below 2^-n admits no t and raises, as does a p_r
    that lands between the odd and even partial sums.
    """
    p_r = Fraction(p_r)
    if not 0 < p_r <= 1:
        raise ValueError("required probability must lie in (0, 1]")
    target = p_r * 2**n  # exact rational threshold on the plain binomial sum
    if target < 1:
        raise ValueError(f"p_r below 2^-{n}: no error budget satisfies the bracketing")
    running = 1  # S(n, 0)
    prev_even = running
    if target <= running:
        return 0
    t = 0
    while True:
        t += 1
        odd = prev_even + math.comb(n, 2 * t - 1)
        even = odd + math.comb(n, 2 * t) if 2 * t <= n else odd
        if odd < target <= even:
            return t
        if target <= odd:
            raise ValueError("no satisfying integer: p_r falls outside every bracketing window")
        prev_even = even
        if 2 * t >= n:
            raise ValueError("no satisfying integer: p_r exceeds the full ball")


def detection_rate_floor(n: int, err_n: int) -> Fraction:
    """r_n = 1 - err_n/n, the detection rate at which validity starts to fail.

    The verifier accepts fewer than err_n wrong bits, so a mark must keep
    more than r_n of its bits; one at exactly r_n is rejected.
    """
    if not 0 <= err_n <= n:
        raise ValueError(f"err_n {err_n} out of range for n={n}")
    return 1 - Fraction(err_n, n)


def advantage_bound(k: int, q: int, n: int, err_n: int, d: int) -> Fraction:
    """Upper bound on an adversary's win probability in the ownership game.

    k near-collision targets, q oracle/proof queries, d proof rounds.
    """
    if min(k, q, n, err_n, d) < 0:
        raise ValueError("all counts must be nonnegative")
    collision_term = k * q * Fraction(_ball(n, min(2 * err_n, n)), 2**n)
    soundness_term = q * Fraction(2, 3) ** d
    return collision_term + soundness_term


def convergence_exponent(n: int, frac) -> float:
    """1 - log2(S(n, 2*floor(frac*n)))/n, the per-bit forgery hardness exponent."""
    frac = Fraction(str(frac)) if isinstance(frac, float) else Fraction(frac)
    if not 0 < frac < Fraction(1, 2):
        raise ValueError("frac must lie in (0, 1/2)")
    t = int(frac * n)  # floor, exact
    ball = _ball(n, min(2 * t, n))
    # log2 via int.bit_length refinement would be overkill: the ball fits
    # well inside float range only for small n, so go through lgamma-free
    # exact bit math: log2(ball) = bit_length - 1 + log2(mantissa)
    bits = ball.bit_length()
    mantissa = ball / 2 ** (bits - 53) if bits > 53 else ball
    log2_ball = (bits - 53 if bits > 53 else 0) + math.log2(mantissa)
    return 1 - log2_ball / n


@dataclass(frozen=True)
class SecurityParams:
    """Watermark security settings, all derived from (n, p_r)."""

    n: int
    p_r: Fraction
    err_n: int
    r_n: Fraction

    @classmethod
    def derive(cls, n: int, p_r=DEFAULT_REQUIRED_PROB) -> "SecurityParams":
        p_r = Fraction(p_r)
        err_n = compute_err_n(n, p_r)
        return cls(n=n, p_r=p_r, err_n=err_n, r_n=detection_rate_floor(n, err_n))
