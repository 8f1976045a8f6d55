import math

import numpy as np
import pytest
from scipy import integrate

from hetcache import (
    NetworkConfig,
    active_d2d_density,
    case_rate_table,
    kernel_z1,
    rate_case1,
    rate_case2,
    rate_case3,
    rate_local,
)
from hetcache.rates import interference_coefficients


def test_case1_tier_independent_interference_limited(cfg):
    vals = [rate_case1(cfg, i).value for i in (1, 2, 3)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)


def test_case1_flat_below_alpha_star(cfg):
    a_star = active_d2d_density(cfg).alpha_star
    grid = np.linspace(0.01, a_star * 0.95, 5)
    vals = [rate_case1(cfg.with_updates(alpha=float(a)), 3).value for a in grid]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-6)


def test_case1_scale_invariance(cfg):
    # joint power scaling leaves the interference-limited rate unchanged
    base = rate_case1(cfg, 3).value
    scaled = cfg.with_updates(p1=cfg.p1 * 7.0, p2=cfg.p2 * 7.0, p3=cfg.p3 * 7.0)
    assert rate_case1(scaled, 3).value == pytest.approx(base, rel=1e-10)


def test_case1_alpha_zero_quadrature_oracle(cfg):
    # no D2D: U = int dt / (1 + Z1(e^t - 1)), evaluated independently
    c = cfg.with_updates(alpha=0.0)
    expect, _ = integrate.quad(
        lambda t: 1.0 / (1.0 + kernel_z1(math.expm1(t), cfg.beta)), 0.0, 200.0)
    assert rate_case1(c, 3).value == pytest.approx(expect, rel=1e-7)


def test_case2_below_case1_for_positive_alpha(cfg):
    for alpha in (0.05, 0.1, 0.3, 0.6):
        c = cfg.with_updates(alpha=alpha)
        assert rate_case2(c, 3).value < rate_case1(c, 3).value


def test_case2_minimum_near_alpha_hat(cfg):
    # the case-2 rate dips where the active-D2D density peaks
    a_hat = active_d2d_density(cfg).alpha_hat
    grid = np.linspace(0.05, 0.6, 23)
    vals = [rate_case2(cfg.with_updates(alpha=float(a)), 3).value for a in grid]
    argmin = grid[int(np.argmin(vals))]
    step = grid[1] - grid[0]
    assert abs(argmin - a_hat) <= step + 1e-12


def test_case2_alpha_zero_limit(cfg):
    # no active D2D: the case-2 integrand loses its Z2 term
    c = cfg.with_updates(alpha=0.0)
    assert rate_case2(c, 3).value == pytest.approx(rate_case1(c, 3).value, rel=1e-9)


def test_case3_bounds_and_limit(cfg):
    c = cfg.with_updates(alpha=0.2)
    u1 = rate_case1(c, 3).value
    u3 = rate_case3(c, 3).value
    assert 0.0 < u3 < u1
    # degenerate-D2D limit: integrand denominator squared, no D2D terms
    tiny = cfg.with_updates(alpha=1e-9)
    expect, _ = integrate.quad(
        lambda t: 1.0 / (1.0 + kernel_z1(math.expm1(t), cfg.beta)) ** 2, 0.0, 200.0)
    assert rate_case3(tiny, 3).value == pytest.approx(expect, rel=1e-4)


# case-3 rates from the nested adaptive quadrature (QUADPACK over x inside
# QUADPACK over t, 2F1 by its own series) that the fixed inner rule replaced
@pytest.mark.parametrize("beta,alpha,expect", [
    (2.5, 0.05, 0.17642535493930744),
    (2.5, 0.3, 0.18567944685263807),
    (3.0, 0.05, 0.29599910717493993),
    (5.5, 0.3, 0.42280782821323404),
])
def test_case3_rate_against_nested_adaptive_values(beta, alpha, expect):
    value = rate_case3(NetworkConfig(beta=beta, alpha=alpha), 3).value
    assert value == pytest.approx(expect, rel=1e-9)


def test_case3_tier_independent(cfg):
    assert rate_case3(cfg, 2).value == pytest.approx(rate_case3(cfg, 3).value, rel=1e-9)


def test_noise_paths_approach_interference_limited(cfg):
    il1 = rate_case1(cfg, 3).value
    il2 = rate_case2(cfg, 3).value
    for sigma2, rel in ((1e-12, 1e-3), (1e-15, 1e-6)):
        c = cfg.with_updates(noise=sigma2)
        assert rate_case1(c, 3).value == pytest.approx(il1, rel=rel)
        assert rate_case2(c, 3).value == pytest.approx(il2, rel=rel)
    # stronger noise strictly lowers the rate
    noisy = cfg.with_updates(noise=1e-6)
    assert rate_case1(noisy, 3).value < il1


def test_density_scaling_approaches_interference_limited(cfg):
    # denser networks drown fixed noise in interference
    il = rate_case1(cfg, 3).value
    gaps = []
    for k in (1.0, 10.0, 100.0):
        c = cfg.with_updates(noise=1e-9, lambda0=cfg.lambda0 * k,
                             lambda2=cfg.lambda2 * k, lambda3=cfg.lambda3 * k)
        gaps.append(abs(rate_case1(c, 3).value / il - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] < 1e-2 and gaps[2] < 1e-4


def test_noise_case1_tier_independent(cfg):
    # the serving power cancels against the association distance scaling,
    # so even the noisy case-1 rate is tier-independent
    c = cfg.with_updates(noise=1e-7)
    vals = [rate_case1(c, i).value for i in (1, 2, 3)]
    assert vals[0] == pytest.approx(vals[2], rel=1e-9)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)
    # and strictly monotone in the noise level
    weaker = rate_case1(cfg.with_updates(noise=1e-6), 3).value
    assert weaker < vals[2]


# mpmath (20 digits) tanh-sinh nested quadrature of the rate in its original
# variables, int_0^120 dt int_0^inf 2 pi q r exp(-pi q r^2 (1 + bracket(v))
# - r^beta v sigma^2 / P_3) dr with v = e^t - 1, Z1 from mpmath.hyp2f1 and the
# coefficients from interference_coefficients; each value takes ~35 s to
# compute, so they are hard-coded.  The coverage at t = 120 is below 1e-27.
@pytest.mark.parametrize("rate_fn,alpha,noise,oracle", [
    (rate_case1, 0.05, 1e-6, 0.17903732944068007),
    (rate_case2, 0.25, 1e-9, 0.59922760973740384),
    (rate_case2, 0.05, 1e-6, 0.11516351759525764),
])
def test_noisy_rate_against_mpmath_oracle(rate_fn, alpha, noise, oracle):
    value = rate_fn(NetworkConfig(alpha=alpha, noise=noise), 3).value
    assert value == pytest.approx(oracle, rel=1e-9)


def test_case3_rejects_noise_and_zero_alpha(cfg):
    with pytest.raises(ValueError):
        rate_case3(cfg.with_updates(noise=1e-9), 3)
    with pytest.raises(ValueError):
        rate_case3(cfg.with_updates(alpha=0.0), 3)
    with pytest.raises(ValueError):
        rate_case3(cfg, 1)


def test_tier_domain_errors(cfg):
    with pytest.raises(ValueError):
        rate_case1(cfg, 4)
    with pytest.raises(ValueError):
        rate_case2(cfg, 1)


def test_rate_local_passthrough(cfg):
    res = rate_local(cfg)
    assert res.value == cfg.local_rate_ul
    assert res.case_id == 4 and res.error == 0.0


def test_case_rate_table_structure(cfg):
    table = case_rate_table(cfg)
    assert table.shape == (4, 4)
    assert (table >= 0.0).all()
    assert table[0, 0] == pytest.approx(rate_case1(cfg, 1).value, rel=1e-12)
    assert table[3, 3] == cfg.local_rate_ul
    assert table[1, 0] == 0.0 and table[2, 0] == 0.0 and table[2, 3] == 0.0
    # alpha = 0 drops cases 2 and 3
    t0 = case_rate_table(cfg.with_updates(alpha=0.0))
    assert (t0[1:3] == 0.0).all()


def test_interference_coefficients_consistency(cfg):
    co = interference_coefficients(cfg)
    assert 0.0 < co.c1 <= 1.0 + 1e-12
    assert co.c2 >= 0.0
    assert co.s_active_total <= co.s_total + 1e-18
    below = interference_coefficients(cfg.with_updates(alpha=0.05))
    assert below.c1 == pytest.approx(1.0, abs=1e-12)  # fully active regime
    zero = interference_coefficients(cfg.with_updates(alpha=0.0))
    assert zero.c1 == pytest.approx(1.0, abs=1e-12)
    assert zero.c2 == 0.0
