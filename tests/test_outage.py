import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetcache import (
    NetworkConfig,
    active_d2d_density,
    kernel_z1,
    kernel_z2,
    outage_case1,
    outage_case2,
    outage_case3,
    outage_case4,
    sinr_cdf,
)
from hetcache import rates
from hetcache.rates import interference_coefficients


def test_case1_closed_form(cfg):
    co = interference_coefficients(cfg)
    tau = 0.1
    expect = 1.0 - 1.0 / (1.0 + co.c1 * kernel_z1(tau, cfg.beta))
    assert outage_case1(cfg, 3, tau).value == pytest.approx(expect, rel=1e-14)


def test_case2_closed_form(cfg):
    co = interference_coefficients(cfg)
    tau = 0.5
    expect = 1.0 - 1.0 / (1.0 + kernel_z1(tau, cfg.beta) + co.c2 * kernel_z2(tau, cfg.beta))
    assert outage_case2(cfg, 2, tau).value == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_outage_is_valid_cdf(cfg, case_id):
    taus = np.logspace(-4, 4, 30)
    vals = [sinr_cdf(cfg, case_id, 3, float(t)) for t in taus]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # case 2 decays only like sqrt(tau) near zero (close active D2D interferers)
    assert vals[0] < 0.05 and vals[-1] > 0.97
    assert sinr_cdf(cfg, case_id, 3, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_case4_outage_exactly_zero(cfg):
    assert outage_case4(cfg, 0.1).value == 0.0
    assert sinr_cdf(cfg, 4, 0, 100.0) == 0.0


def test_tier_independence(cfg):
    tau = 0.2
    assert outage_case2(cfg, 2, tau).value == outage_case2(cfg, 3, tau).value
    assert outage_case3(cfg, 2, tau).value == pytest.approx(
        outage_case3(cfg, 3, tau).value, rel=1e-12)


def test_case1_power_scaling_and_alpha_invariance(cfg):
    tau = 0.1
    base = outage_case1(cfg, 3, tau).value
    scaled = cfg.with_updates(p1=cfg.p1 * 3.0, p2=cfg.p2 * 3.0, p3=cfg.p3 * 3.0)
    assert outage_case1(scaled, 3, tau).value == pytest.approx(base, rel=1e-12)
    lo = outage_case1(cfg.with_updates(alpha=0.03), 3, tau).value
    hi = outage_case1(cfg.with_updates(alpha=0.10), 3, tau).value
    assert lo == pytest.approx(hi, rel=1e-10)  # flat below the activity threshold


def test_case2_exceeds_case1(cfg):
    for tau in (0.05, 0.1, 1.0):
        assert outage_case2(cfg, 3, tau).value > outage_case1(cfg, 3, tau).value


def test_low_alpha_ordering_case2_vs_case3(cfg):
    # sparse caching: the case-2 CDF sits below the case-3 CDF at -10 dB
    c = cfg.with_updates(alpha=0.05)
    tau = 0.1
    o2 = outage_case2(c, 3, tau).value
    o3 = outage_case3(c, 3, tau).value
    assert o2 == pytest.approx(0.2783, abs=2e-3)
    assert o3 == pytest.approx(0.2991, abs=2e-3)
    assert o2 < o3


def test_noise_paths_approach_closed_forms(cfg):
    tau = 0.1
    il1 = outage_case1(cfg, 3, tau).value
    il2 = outage_case2(cfg, 3, tau).value
    c = cfg.with_updates(noise=1e-12)
    assert outage_case1(c, 3, tau).value == pytest.approx(il1, rel=1e-3)
    assert outage_case2(c, 3, tau).value == pytest.approx(il2, rel=1e-3)
    tiny = cfg.with_updates(noise=1e-15)
    assert outage_case1(tiny, 3, tau).value == pytest.approx(il1, rel=1e-6)
    noisy = cfg.with_updates(noise=1e-6)
    assert outage_case1(noisy, 3, tau).value > il1
    # the serving power cancels against the association distance scaling, so
    # the noisy case-1 outage is tier-independent too
    assert outage_case1(noisy, 1, tau).value == pytest.approx(
        outage_case1(noisy, 3, tau).value, rel=1e-9)


def test_domain_errors(cfg):
    with pytest.raises(ValueError):
        outage_case1(cfg, 0, 0.1)
    with pytest.raises(ValueError):
        outage_case1(cfg, 3, -0.1)
    with pytest.raises(ValueError):
        outage_case3(cfg.with_updates(noise=1e-9), 3, 0.1)
    with pytest.raises(ValueError):
        outage_case3(cfg.with_updates(alpha=0.0), 3, 0.1)
    with pytest.raises(ValueError):
        sinr_cdf(cfg, 5, 3, 0.1)


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
    assert outage_case3(cfg, 3, tau).value == pytest.approx(
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
