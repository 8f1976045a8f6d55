import math

import mpmath
import numpy as np
import pytest

from hetcache import QuadratureError, integrate_interval
from hetcache.rates import _CASE3_W, _CASE3_X, _distance_integral


def test_finite_interval_polynomial():
    val, err = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-12)
    assert err >= 0.0


def test_semi_infinite_exponential():
    val, _ = integrate_interval(lambda x: math.exp(-x), 0.0, math.inf)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_semi_infinite_gaussian():
    val, _ = integrate_interval(lambda x: math.exp(-x * x), 0.0, math.inf)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_failure_carries_partial_estimate():
    # too nasty an oscillation for the 200-subdivision budget
    with pytest.raises(QuadratureError) as exc:
        integrate_interval(lambda x: math.sin(1.0 / (x + 1e-8)), 0.0, 1.0)
    assert isinstance(exc.value.partial, float)


def test_non_finite_result_rejected():
    with pytest.raises(QuadratureError):
        integrate_interval(lambda x: 1.0 / x, 0.0, 1.0)


def test_gauss_legendre_rule_exact_to_degree_2n_minus_1():
    # case 3's 96-node rule on (0, 1)
    x, w = _CASE3_X, _CASE3_W
    assert len(x) == len(w) == 96
    assert ((x > 0.0) & (x < 1.0)).all()
    assert (w > 0.0).all()
    for k in (0, 1, 7, 64, 191):
        assert math.fsum(w * x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_noisy_distance_rule_against_mpmath(beta):
    # int_0^inf exp(-s - c s^(beta/2)) ds on the step-1/16 rule, over 60
    # decades of c; mpmath splits the range at the knee s ~ 1/(1 + c^(2/beta))
    # and needs 40 digits to resolve knees near 1e-25
    cs = np.logspace(-30.0, 30.0, 20)
    got = _distance_integral(cs ** (2.0 / beta), beta)
    with mpmath.workdps(40):
        half = mpmath.mpf(beta) / 2
        for c, value in zip(cs, got):
            cm = mpmath.mpf(c)
            knee = 1 / (1 + cm ** (1 / half))
            expect = mpmath.quad(lambda s: mpmath.exp(-s - cm * s ** half),
                                 [0] + [knee * 4**j for j in range(4)] + [mpmath.inf])
            assert value == pytest.approx(float(expect), rel=1e-13)
