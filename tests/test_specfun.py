import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetcache import NetworkConfig, QuadratureError, gauss_2f1, kernel_z1, kernel_z2
from hetcache.rates import _CASE3_X, _coverage, _Kernels, _rate_rule, _threshold_kernels
from hetcache.specfun import _family_2f1, kernel_x2z3, kernel_z2_scale


def mp_2f1(a, b, c, z):
    return float(mpmath.hyp2f1(a, b, c, z))


@pytest.mark.parametrize("z", [-1e6, -1e4, -50.0, -2.5, -1.9, -1.0, -0.4, 0.0, 0.3, 0.49])
@pytest.mark.parametrize("a,b,c", [
    (1.0, 0.5, 1.5),        # the kernel parameter family at beta = 4
    (1.0, 1.0 - 2.0 / 3.5, 2.0 - 2.0 / 3.5),
    (1.0, 1.0 - 2.0 / 6.0, 2.0 - 2.0 / 6.0),
    (0.3, 0.7, 1.9),
])
def test_2f1_against_mpmath(a, b, c, z):
    assert gauss_2f1(a, b, c, z) == pytest.approx(mp_2f1(a, b, c, z), rel=1e-11)


def test_2f1_arctan_identity():
    # 2F1(1, 1/2; 3/2; -x^2) = arctan(x)/x
    for x in (0.1, 0.7, 3.0, 40.0):
        assert gauss_2f1(1.0, 0.5, 1.5, -x * x) == pytest.approx(math.atan(x) / x, rel=1e-12)


def test_2f1_domain_errors():
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 0.5, 0.0, 0.3)       # pole in c
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 0.5, 1.5, 1.0)       # branch point
    assert gauss_2f1(1.0, 0.5, 1.5, 0.0) == 1.0


# z in {0} U 10^[-300, 300] U [0.5, 3], and the Pfaff / z -> 1/z switch at z = 1
_FAMILY_Z = np.concatenate(([0.0], np.logspace(-300, 300, 601), np.linspace(0.5, 3.0, 101),
                            [1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-51]))


@pytest.mark.parametrize("beta", [2.1, 2.5, 3.0, 3.5, 4.0, 5.5, 8.0])
@pytest.mark.parametrize("family", ["z1", "x2z3"])
def test_family_2f1_against_mpmath(beta, family):
    # F_b(z) = 2F1(1, b; 1+b; -z) at Z1's b = 1 - 2/beta and x^2 Z3's b = 2/beta
    b = 1.0 - 2.0 / beta if family == "z1" else 2.0 / beta
    with mpmath.workdps(40):
        mb = mpmath.mpf(b)
        expected = [float(mpmath.hyp2f1(1, mb, 1 + mb, -mpmath.mpf(z))) for z in _FAMILY_Z]
    np.testing.assert_allclose(_family_2f1(_FAMILY_Z, b), expected, rtol=5e-14, atol=0.0)


def test_family_2f1_keeps_the_argument_shape():
    empty = _family_2f1(np.array([]), 0.5)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    for z in (0.3, 7.0):
        value = _family_2f1(z, 0.5)
        assert isinstance(value, np.ndarray) and value.shape == ()
        # 2F1(1, 1/2; 3/2; -z) = arctan(sqrt z) / sqrt z
        assert float(value) == pytest.approx(math.atan(math.sqrt(z)) / math.sqrt(z), rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_arguments(bad):
    for kernel in (kernel_z1, kernel_z2, functools.partial(kernel_x2z3, x=_CASE3_X)):
        for v in (bad, np.array([1.0, bad])):
            with pytest.raises(ValueError, match="kernel argument must be non-negative and finite"):
                kernel(v=v, beta=4.0)


def test_kernel_z1_beta4_closed_form():
    for v in np.logspace(-6, 4, 41):
        assert kernel_z1(v, 4.0) == pytest.approx(
            math.sqrt(v) * math.atan(math.sqrt(v)), rel=1e-10)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
@pytest.mark.parametrize("v", [0.01, 0.5, 3.0, 200.0])
def test_kernel_z1_matches_integral_representation(beta, v):
    # Z1(v) = v^(2/beta) * int_{v^(-2/beta)}^inf du / (1 + u^(beta/2))
    lower = v ** (-2.0 / beta)
    val, _ = integrate.quad(lambda u: 1.0 / (1.0 + u ** (beta / 2.0)), lower, np.inf)
    assert kernel_z1(v, beta) == pytest.approx(v ** (2.0 / beta) * val, rel=1e-8)


def test_kernel_z2_analytic_limit():
    assert kernel_z2(1.0, 4.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
    for beta in (3.0, 4.0, 5.0):
        v = 2.7
        val, _ = integrate.quad(lambda u: 1.0 / (1.0 + u ** (beta / 2.0)), 0.0, np.inf)
        assert kernel_z2(v, beta) == pytest.approx(v ** (2.0 / beta) * val, rel=1e-8)


def test_kernels_monotone_and_zero_at_origin():
    grid = np.logspace(-3, 3, 25)
    vals = [kernel_z1(v, 3.7) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert kernel_z1(0.0, 3.7) == 0.0
    assert kernel_z2(0.0, 3.7) == 0.0


def test_kernel_large_v_slope():
    # Z1(v) -> k2 * v^(2/beta) as v -> inf, k2 the unrestricted prefactor
    beta = 3.3
    v = 1e12
    assert kernel_z1(v, beta) / v ** (2.0 / beta) == pytest.approx(
        kernel_z2_scale(beta), rel=1e-6)


def test_beta_domain_errors():
    # one beta rule and one argument check for every kernel and the config
    for kernel in (kernel_z1, kernel_z2, functools.partial(kernel_x2z3, x=_CASE3_X)):
        with pytest.raises(ValueError, match=r"beta = 2\.0: interference diverges unless beta > 2"):
            kernel(v=1.0, beta=2.0)
        with pytest.raises(ValueError, match="kernel argument must be non-negative"):
            kernel(v=-1.0, beta=4.0)
    with pytest.raises(ValueError, match=r"beta = 2\.0: interference diverges unless beta > 2"):
        NetworkConfig(beta=2.0)


def test_quadrature_error_is_runtime_error():
    assert issubclass(QuadratureError, RuntimeError)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
@pytest.mark.parametrize("v", [1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12])
def test_x2z3_array_kernel_matches_scalar_form(beta, v):
    x = np.logspace(-8, 0, 33)
    scalar = [xi * xi * kernel_z1(v * xi ** -beta, beta) for xi in x]
    # the array form subtracts from v^(2/beta) K, so its error scales with that
    np.testing.assert_allclose(kernel_x2z3(v, x, beta), scalar, rtol=1e-12,
                               atol=1e-15 * v ** (2.0 / beta) * kernel_z2_scale(beta))


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_x2z3_array_kernel_limit_at_zero(beta):
    for v in (1e-6, 1.0, 1e6):
        limit = v ** (2.0 / beta) * kernel_z2_scale(beta)
        near = kernel_x2z3(v, np.array([0.0, 1e-300, 1e-12]), beta)
        np.testing.assert_allclose(near, limit, rtol=1e-12)
    assert (kernel_x2z3(0.0, np.array([0.0, 0.5, 1.0]), beta) == 0.0).all()


@pytest.mark.parametrize("beta", [2.5, 5.5])
def test_x2z3_array_kernel_finite_over_outer_rule_range(beta):
    # the rate integrates the coverage at tau = e^t - 1 for t up to 403;
    # the grid here runs on to t = 700
    x = np.concatenate(([0.0], _CASE3_X, [1.0]))
    cfg = NetworkConfig(beta=beta, alpha=0.3)
    tau = np.expm1(np.concatenate((np.logspace(-12, 0, 13), np.linspace(1.0, 700.0, 71))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in tau:
            vals = kernel_x2z3(v, x, beta)
            assert np.isfinite(vals).all() and (vals >= 0.0).all()
        coverage = _coverage(cfg, 3, 3, _Kernels(tau, beta))
        assert ((coverage >= 0.0) & (coverage <= 1.0)).all()
        # below tau ~ 1e-16 the 96-node rule integrates the limit 1 to within 3e-15
        coverage = _coverage(cfg, 3, 3, _threshold_kernels(beta, _rate_rule(0)[2]))
        assert ((coverage >= 0.0) & (coverage <= 1.0 + 1e-14)).all()


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_array_kernels_equal_scalar_kernels(beta):
    tau = np.concatenate(([0.0], np.logspace(-12, 12, 97)))
    for kernel in (kernel_z1, kernel_z2):
        array = kernel(tau, beta)
        assert isinstance(array, np.ndarray) and array.shape == tau.shape
        scalar = [kernel(float(v), beta) for v in tau]
        assert all(isinstance(z, float) for z in scalar)
        assert array.tolist() == scalar
        with pytest.raises(ValueError):
            kernel(np.array([1.0, -1e-3]), beta)
