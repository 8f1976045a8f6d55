import math

import pytest

from hetcache import QuadratureError, QuadratureSpec, integrate_interval, integrate_semi_infinite
from hetcache.quadrature import gauss_legendre


def test_finite_interval_polynomial():
    val, err = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-12)
    assert err >= 0.0


def test_semi_infinite_exponential():
    val, _ = integrate_semi_infinite(lambda x: math.exp(-x))
    assert val == pytest.approx(1.0, rel=1e-10)


def test_semi_infinite_gaussian():
    val, _ = integrate_semi_infinite(lambda x: math.exp(-x * x))
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    tight = QuadratureSpec().tightened()
    assert tight.rel_tol == pytest.approx(QuadratureSpec().rel_tol * 0.1)


def test_failure_carries_partial_estimate():
    # too few subdivisions for a nasty oscillatory integrand
    spec = QuadratureSpec(max_subdivisions=1)
    with pytest.raises(QuadratureError) as exc:
        integrate_interval(lambda x: math.sin(1.0 / (x + 1e-8)), 0.0, 1.0, spec)
    assert isinstance(exc.value.partial, float)


def test_non_finite_result_rejected():
    with pytest.raises(QuadratureError):
        integrate_interval(lambda x: 1.0 / x, 0.0, 1.0)


def test_gauss_legendre_rule_exact_to_degree_2n_minus_1():
    x, w = gauss_legendre(96)
    assert ((x > 0.0) & (x < 1.0)).all()
    assert (w > 0.0).all()
    for k in (0, 1, 7, 64, 191):
        assert math.fsum(w * x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
    x3, w3 = gauss_legendre(3)
    assert sorted(x3) == pytest.approx([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)], abs=1e-15)
    assert sorted(w3) == pytest.approx([5 / 18, 5 / 18, 8 / 18], abs=1e-15)
