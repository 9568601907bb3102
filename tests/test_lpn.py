import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fedzkp.gf2 import mat_vec_mul
from fedzkp.lpn import XlpnParams, exact_weight, gen_instance


def test_weight_rounds_half_up():
    assert exact_weight(8, Fraction(1, 4)) == 2
    assert exact_weight(10, Fraction(1, 4)) == 3  # 2.5 rounds up
    assert exact_weight(800, Fraction(1, 4)) == 200
    assert exact_weight(7, Fraction(1, 2)) == 4  # 3.5 rounds up
    assert exact_weight(600, Fraction(1, 4)) == 150


def test_params_validation_and_float_tau():
    p = XlpnParams(m=8, l=4, tau=0.25)
    assert p.tau == Fraction(1, 4) and p.w == 2
    assert XlpnParams(m=800, l=700, tau=Fraction(1, 4)).w == 200
    # recommended secret length from the write-up's parameter discussion
    assert XlpnParams(m=600, l=512, tau=Fraction(1, 4)).w == 150
    with pytest.raises(ValueError):
        XlpnParams(m=4, l=8, tau=0.25)
    with pytest.raises(ValueError):
        XlpnParams(m=8, l=4, tau=0.5)
    with pytest.raises(ValueError):
        XlpnParams(m=8, l=4, tau=-0.1)


def test_gen_instance_small():
    rng = np.random.default_rng(0)
    params = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    pub, cred = gen_instance(params, rng)
    assert cred.e.weight() == 2
    assert pub.A.rank() == 4
    # oracle recomputation of y
    assert pub.y == mat_vec_mul(pub.A, cred.s) ^ cred.e


def test_tau_zero_is_noiseless():
    rng = np.random.default_rng(1)
    params = XlpnParams(m=8, l=4, tau=0)
    pub, cred = gen_instance(params, rng)
    assert cred.e.weight() == 0
    assert pub.y == mat_vec_mul(pub.A, cred.s)


def test_repeated_draws_weight_and_rank():
    rng = np.random.default_rng(4)
    params = XlpnParams(m=12, l=8, tau=Fraction(1, 4))
    for _ in range(1000):
        pub, cred = gen_instance(params, rng)
        assert cred.e.weight() == params.w
        assert pub.A.rank() == params.l


def test_defaults_round_trip_validate():
    rng = np.random.default_rng(5)
    params = XlpnParams(m=800, l=700, tau=Fraction(1, 4))
    pub, cred = gen_instance(params, rng)
    assert (pub.A.rows, pub.A.cols, len(cred.s)) == (800, 700, 700)
    assert cred.e.weight() == params.w == 200
    assert pub.y == mat_vec_mul(pub.A, cred.s) ^ cred.e


def test_rank_resample_limit_errors():
    class ZeroRng:
        # quacks just enough like a Generator to drive sampling
        def integers(self, low, high=None, size=None, dtype=np.int64):
            return np.zeros(size, dtype=dtype)

    params = XlpnParams(m=8, l=4, tau=Fraction(1, 4))
    with pytest.raises(RuntimeError):
        gen_instance(params, ZeroRng())


# SHAKE-256 over A, y, s and e of `count` seeded keys, then 16 more bytes of
# the generator, frozen from an earlier release of keygen.  A change means
# the keys, or how many draws rank rejection took, moved.  At 33x32 a random
# A is often rank deficient: the 8 keys there take 15 draws of A.
KEYGEN_PINS = [
    ((48, 32, 1), "0865e592aac55151473c89cf635899e8"),
    ((800, 700, 1), "19c478b036c3c82e1f053a790a509482"),
    ((33, 32, 8), "f0b42ee04789c010432f3dc2143f0e6e"),
]


@pytest.mark.parametrize("size, pin", KEYGEN_PINS)
def test_seeded_keygen_output_is_pinned(size, pin):
    m, l, count = size
    rng = np.random.default_rng(0)
    h = hashlib.shake_256()
    for _ in range(count):
        pub, cred = gen_instance(XlpnParams(m, l, Fraction(1, 4)), rng)
        h.update(pub.A.to_bytes() + pub.y.to_bytes() + cred.s.to_bytes() + cred.e.to_bytes())
    h.update(rng.bytes(16))
    assert h.hexdigest(16) == pin
