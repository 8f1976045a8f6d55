import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetcache import (
    NetworkConfig,
    active_d2d_density,
    kernel_z1,
    kernel_z2,
    sinr_cdf,
)
from hetcache import rates
from hetcache.config import db_to_linear
from hetcache.rates import interference_coefficients


def test_case1_closed_form(cfg):
    co = interference_coefficients(cfg)
    tau = 0.1
    expect = 1.0 - 1.0 / (1.0 + co.c1 * kernel_z1(tau, cfg.beta))
    assert sinr_cdf(cfg, 1, 3, tau) == pytest.approx(expect, rel=1e-14)


def test_case2_closed_form(cfg):
    co = interference_coefficients(cfg)
    tau = 0.5
    expect = 1.0 - 1.0 / (1.0 + kernel_z1(tau, cfg.beta) + co.c2 * kernel_z2(tau, cfg.beta))
    assert sinr_cdf(cfg, 2, 2, tau) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_outage_is_valid_cdf(cfg, case_id):
    taus = np.logspace(-4, 4, 30)
    vals = [sinr_cdf(cfg, case_id, 3, float(t)) for t in taus]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # case 2 decays only like sqrt(tau) near zero (close active D2D interferers)
    assert vals[0] < 0.05 and vals[-1] > 0.97
    assert sinr_cdf(cfg, case_id, 3, 0.0) == pytest.approx(0.0, abs=1e-12)


# (beta, noise [W], case): case 3 is defined without noise only
_ARRAY_CASES = [
    (beta, noise, case_id)
    for beta in (3.0, 4.0)
    for noise in (0.0, 1e-12, 1.0)
    for case_id in (1, 2, 3, 4)
    if case_id != 3 or noise == 0.0
]


@pytest.mark.parametrize("beta, noise, case_id", _ARRAY_CASES)
def test_threshold_array_matches_float_calls(beta, noise, case_id):
    # one coverage pass over the array gives the float path's bits at each threshold
    cfg = NetworkConfig(beta=beta, noise=noise)
    taus = [0.0] + [db_to_linear(float(t)) for t in range(-20, 21, 2)] + [1e4]
    values = sinr_cdf(cfg, case_id, 3, taus)
    assert isinstance(values, np.ndarray) and values.shape == (len(taus),)
    expect = np.array([sinr_cdf(cfg, case_id, 3, t) for t in taus])
    assert np.max(np.abs(values - expect)) == 0.0


def test_threshold_array_domain(cfg):
    with pytest.raises(ValueError, match="non-negative"):
        sinr_cdf(cfg, 1, 3, [0.1, 1.0, -1e-3, 10.0])
    with pytest.raises(ValueError, match="non-negative"):
        sinr_cdf(cfg, 4, 0, np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 1, 3, np.ones((2, 2)))
    zeros = sinr_cdf(cfg, 4, 0, np.array([0.1, 1.0, 10.0]))
    assert isinstance(zeros, np.ndarray) and zeros.tolist() == [0.0, 0.0, 0.0]
    assert sinr_cdf(cfg, 1, 3, []).shape == (0,)


@pytest.mark.parametrize("tau", [-0.5, math.nan, math.inf])
def test_threshold_below_zero_or_nan_is_named(cfg, tau):
    # NaN and infinity used to reach the [0, 1] check as "outage probability nan"
    for thresholds in (tau, [0.1, tau]):
        with pytest.raises(ValueError, match=f"SINR threshold {tau} must be non-negative"):
            sinr_cdf(cfg, 1, 3, thresholds)


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_case3_outage_near_zero_threshold_stays_in_unit_interval(beta):
    # the fixed rule integrates the coverage at tau = 0 to 1 + O(1e-15), which
    # read as an outage of down to -3.3e-15
    for alpha in (0.02, 0.05, 0.1, 0.25, 0.5, 0.99):
        cfg = NetworkConfig(alpha=alpha, beta=beta)
        values = sinr_cdf(cfg, 3, 3, [0.0, 1e-30, 1e-20])
        assert values[0] == sinr_cdf(cfg, 3, 3, 0.0) == 0.0
        assert all(0.0 <= v <= 1.0 for v in values)


def test_float_threshold_gives_python_float(cfg):
    for tau in (0.1, np.float64(0.1), 1, np.array(0.1)):
        for case_id in (1, 2, 3, 4):
            assert type(sinr_cdf(cfg, case_id, 3, tau)) is float
    assert sinr_cdf(cfg, 2, 3, np.array(0.1)) == sinr_cdf(cfg, 2, 3, 0.1)


def test_case4_outage_exactly_zero(cfg):
    assert sinr_cdf(cfg, 4, 0, 0.1) == 0.0
    assert sinr_cdf(cfg, 4, 0, 100.0) == 0.0


def test_tier_independence(cfg):
    tau = 0.2
    assert sinr_cdf(cfg, 2, 2, tau) == sinr_cdf(cfg, 2, 3, tau)
    assert sinr_cdf(cfg, 3, 2, tau) == pytest.approx(
        sinr_cdf(cfg, 3, 3, tau), rel=1e-12)


def test_case1_power_scaling_and_alpha_invariance(cfg):
    tau = 0.1
    base = sinr_cdf(cfg, 1, 3, tau)
    scaled = cfg.with_updates(p1=cfg.p1 * 3.0, p2=cfg.p2 * 3.0, p3=cfg.p3 * 3.0)
    assert sinr_cdf(scaled, 1, 3, tau) == pytest.approx(base, rel=1e-12)
    lo = sinr_cdf(cfg.with_updates(alpha=0.03), 1, 3, tau)
    hi = sinr_cdf(cfg.with_updates(alpha=0.10), 1, 3, tau)
    assert lo == pytest.approx(hi, rel=1e-10)  # flat below the activity threshold


def test_case2_exceeds_case1(cfg):
    for tau in (0.05, 0.1, 1.0):
        assert sinr_cdf(cfg, 2, 3, tau) > sinr_cdf(cfg, 1, 3, tau)


def test_low_alpha_ordering_case2_vs_case3(cfg):
    # sparse caching: the case-2 CDF sits below the case-3 CDF at -10 dB
    c = cfg.with_updates(alpha=0.05)
    tau = 0.1
    o2 = sinr_cdf(c, 2, 3, tau)
    o3 = sinr_cdf(c, 3, 3, tau)
    assert o2 == pytest.approx(0.2783, abs=2e-3)
    assert o3 == pytest.approx(0.2991, abs=2e-3)
    assert o2 < o3


def test_noise_paths_approach_closed_forms(cfg):
    tau = 0.1
    il1 = sinr_cdf(cfg, 1, 3, tau)
    il2 = sinr_cdf(cfg, 2, 3, tau)
    c = cfg.with_updates(noise=1e-12)
    assert sinr_cdf(c, 1, 3, tau) == pytest.approx(il1, rel=1e-3)
    assert sinr_cdf(c, 2, 3, tau) == pytest.approx(il2, rel=1e-3)
    tiny = cfg.with_updates(noise=1e-15)
    assert sinr_cdf(tiny, 1, 3, tau) == pytest.approx(il1, rel=1e-6)
    noisy = cfg.with_updates(noise=1e-6)
    assert sinr_cdf(noisy, 1, 3, tau) > il1
    # the serving power cancels against the association distance scaling, so
    # the noisy case-1 outage is tier-independent too
    assert sinr_cdf(noisy, 1, 1, tau) == sinr_cdf(noisy, 1, 3, tau)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_noisy_outage_at_one_watt_against_mpmath(cfg, tau):
    # the case-1 coverage as a distance integral in its original variables,
    # int_0^inf 2 pi q r exp(-pi q r^2 b - r^beta tau sigma^2 / P_3) dr with
    # b = 1 + c1 Z1(tau), split around the narrow spike at r0 (the smaller of
    # the interference and the noise distance scales)
    c = cfg.with_updates(noise=1.0)
    co = interference_coefficients(c)
    with mpmath.workdps(30):
        beta, p3, v = mpmath.mpf(c.beta), mpmath.mpf(c.p3), mpmath.mpf(tau)
        q = co.s_total / p3 ** (2 / beta)
        z1 = 2 * v / (beta - 2) * mpmath.hyp2f1(1, 1 - 2 / beta, 2 - 2 / beta, -v)
        b = 1 + co.c1 * z1
        r0 = min(1 / mpmath.sqrt(mpmath.pi * q * b), (p3 / (v * c.noise)) ** (1 / beta))
        coverage = float(mpmath.quad(
            lambda r: 2 * mpmath.pi * q * r * mpmath.exp(
                -mpmath.pi * q * r * r * b - r**beta * v * c.noise / p3),
            [0, r0 / 3, r0, 3 * r0, mpmath.inf]))
    outage = sinr_cdf(c, 1, 3, tau)
    assert outage < 1.0
    assert 1.0 - outage == pytest.approx(coverage, rel=1e-9)


def test_domain_errors(cfg):
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 1, 0, 0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 1, 3, -0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg.with_updates(noise=1e-9), 3, 3, 0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg.with_updates(alpha=0.0), 3, 3, 0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 5, 3, 0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 4, 0, -0.1)


def _case3_outage_oracle(cfg, tau):
    """Adaptive QUADPACK over x with the blocked kernel from mpmath, written as
    int 2x(1+g) [1/a^2 - 1/d^2] dx so that no 1 - coverage cancels."""
    co = interference_coefficients(cfg)
    g = co.g31 / (1.0 - co.g31)
    beta = mpmath.mpf(cfg.beta)

    def z1(v):
        return 2 * v / (beta - 2) * mpmath.hyp2f1(1, 1 - 2 / beta, 2 - 2 / beta, -v)

    z1_tau = float(z1(mpmath.mpf(tau)))

    def integrand(x):
        xm = mpmath.mpf(x)
        excess = z1_tau + co.c2 * float(xm * xm * z1(tau * xm ** -beta))
        a = 1.0 + g * x * x
        d = a + excess
        return 2.0 * x * (1.0 + g) * excess * (d + a) / (a * a * d * d)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@pytest.mark.parametrize("tau", [1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12])
@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_case3_outage_against_adaptive_oracle(beta, alpha, tau):
    cfg = NetworkConfig(beta=beta, alpha=alpha)
    assert sinr_cdf(cfg, 3, 3, tau) == pytest.approx(
        _case3_outage_oracle(cfg, tau), rel=1e-10)


def test_interference_coefficients_built_once_per_config(cfg, monkeypatch):
    interference_coefficients.cache_clear()
    built = []

    def counting(c):
        built.append(c)
        return active_d2d_density(c)

    monkeypatch.setattr(rates, "active_d2d_density", counting)
    for tau in (0.1, 1.0, 10.0):
        for case_id in (1, 2, 3):
            sinr_cdf(cfg, case_id, 3, tau)
    sinr_cdf(NetworkConfig(), 1, 3, 0.1)  # an equal config is the same key
    assert built == [cfg]


def test_threshold_kernels_built_once_per_beta_and_thresholds(monkeypatch):
    rates._threshold_kernels.cache_clear()
    built = []

    def counting(tau, beta):
        built.append(beta)
        return kernel_z1(tau, beta)

    monkeypatch.setattr(rates, "kernel_z1", counting)
    taus = [db_to_linear(-10.0), db_to_linear(-5.0)]
    for alpha in (0.05, 0.1, 0.25):  # a sweep over alpha, as fig4's
        for case_id in (1, 2, 3):
            sinr_cdf(NetworkConfig(alpha=alpha), case_id, 3, taus)
    assert built == [4.0]
    sinr_cdf(NetworkConfig(beta=3.0), 1, 3, taus)
    sinr_cdf(NetworkConfig(), 1, 3, taus[:1])
    assert built == [4.0, 3.0, 4.0]
    kernels = rates._threshold_kernels(4.0, np.array(taus).tobytes())
    for shared in (kernels.tau, kernels.z1, kernels.z2, kernels.x2z3):
        assert not shared.flags.writeable
    # a float is a one-element array: repeated calls, and the other cases at
    # its (beta, tau), read the Z1 that the first call built
    built.clear()
    for case_id in (1, 1, 2):
        sinr_cdf(NetworkConfig(), case_id, 3, db_to_linear(-7.0))
    assert built == [4.0]
