import math

import numpy as np
import pytest
from scipy import integrate

from hetcache import (
    NetworkConfig,
    QuadratureError,
    active_d2d_density,
    case_rate_table,
    kernel_z1,
    kernel_z2,
    rate_case1,
    rate_case2,
    rate_case3,
    rates,
    sinr_cdf,
)
from hetcache.presets import run_preset
from hetcache.rates import _coverage, _Kernels, interference_coefficients
from hetcache.specfun import kernel_x2z3


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
    assert vals[0] == vals[1] == vals[2]
    # and strictly monotone in the noise level
    weaker = rate_case1(cfg.with_updates(noise=1e-6), 3).value
    assert weaker < vals[2]


# mpmath (20 digits) tanh-sinh nested quadrature of the rate in its original
# variables, int_0^120 dt int_0^inf 2 pi q r exp(-pi q r^2 (1 + bracket(v))
# - r^beta v sigma^2 / P_3) dr with v = e^t - 1, Z1 from mpmath.hyp2f1 and the
# coefficients from interference_coefficients; each value takes ~35 s to
# compute, so they are hard-coded.  The coverage at t = 120 is below 1e-27.
# At sigma^2 = 1 W the coverage is a narrow spike in r: the r range is split
# at r0/3, r0 and 3 r0, r0 = min((pi q (1 + bracket))^(-1/2),
# (P_3 / (v sigma^2))^(1/beta)), and the t range at 0.05, 0.2, 1, 3, 10, 30.
@pytest.mark.parametrize("rate_fn,alpha,noise,oracle", [
    (rate_case1, 0.05, 1e-6, 0.17903732944068007),
    (rate_case2, 0.25, 1e-9, 0.59922760973740384),
    (rate_case2, 0.05, 1e-6, 0.11516351759525764),
    (rate_case1, 0.1, 1.0, 0.00027752622589812256446),
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
    # noise drops case 3 only; case 2 keeps its relay and BS columns
    noisy = case_rate_table(cfg.with_updates(noise=1e-12))
    assert (noisy[2] == 0.0).all()
    assert (noisy[1, 1:3] > 0.0).all() and noisy[1, 0] == noisy[1, 3] == 0.0


def test_interference_coefficients_consistency(cfg):
    co = interference_coefficients(cfg)
    assert 0.0 < co.c1 <= 1.0 + 1e-12
    assert co.c2 >= 0.0
    below = interference_coefficients(cfg.with_updates(alpha=0.05))
    assert below.c1 == pytest.approx(1.0, abs=1e-12)  # fully active regime
    zero = interference_coefficients(cfg.with_updates(alpha=0.0))
    assert zero.c1 == pytest.approx(1.0, abs=1e-12)
    assert zero.c2 == 0.0


def _independent_rate(cfg, case_id):
    # the rate's outer integral by adaptive QUADPACK, on coverages written out here
    co = interference_coefficients(cfg)
    if case_id == 1:
        def coverage(tau):
            return 1.0 / (1.0 + co.c1 * kernel_z1(tau, cfg.beta))
    elif case_id == 2:
        def coverage(tau):
            return 1.0 / (1.0 + kernel_z1(tau, cfg.beta) + co.c2 * kernel_z2(tau, cfg.beta))
    else:
        def coverage(tau):
            return float(_coverage(cfg, 3, 3, _Kernels(np.array([tau]), cfg.beta))[0])
    # the coverage is below 1e-100 past t = 700
    value, _ = integrate.quad(lambda t: coverage(math.expm1(t)) if t < 700.0 else 0.0,
                              0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    return value


@pytest.mark.parametrize("case_id", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.3, 0.6])
@pytest.mark.parametrize("beta", [2.5, 3.0, 4.0, 5.5])
def test_rate_rule_against_adaptive_quadrature(beta, alpha, case_id):
    cfg = NetworkConfig(beta=beta, alpha=alpha)
    result = (rate_case1, rate_case2, rate_case3)[case_id - 1](cfg, 3)
    assert result.value == pytest.approx(_independent_rate(cfg, case_id), rel=1e-9)
    assert 0.0 <= result.error <= 1e-8 * result.value


def test_rate_rule_refines_its_step_until_the_rules_agree(cfg, monkeypatch):
    # a bump of width 0.3 in t needs the step 1/64 (three halvings)
    levels = []
    rule = rates._rate_rule

    def counting(level):
        levels.append(level)
        return rule(level)

    monkeypatch.setattr(rates, "_rate_rule", counting)
    monkeypatch.setattr(rates, "_coverage", lambda c, case_id, tier, k:
                        np.exp(-((np.log1p(k.tau) - 3.0) / 0.3) ** 2))
    exact = 0.3 * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(10.0))
    result = rate_case1(cfg, 3)
    assert levels == [0, 1, 2, 3]
    assert result.value == pytest.approx(exact, rel=1e-12)
    assert result.error <= 1e-8 * result.value


def test_rate_rule_raises_when_no_step_resolves_the_coverage(cfg, monkeypatch):
    # a spike of half-width 1e-3 in t: the rules keep disagreeing
    monkeypatch.setattr(rates, "_coverage", lambda c, case_id, tier, k:
                        1.0 / (1.0 + ((np.log1p(k.tau) - 3.0) / 1e-3) ** 2))
    with pytest.raises(QuadratureError) as exc:
        rate_case1(cfg, 3)
    assert 0.0 < exc.value.partial < 1.0


def test_shared_rule_arrays_are_read_only():
    # the cached rule and its thresholds feed every later rate and noisy
    # coverage, so no caller may write into them
    nodes, weights, taus = rates._rate_rule(1)
    for shared in (nodes, weights, rates._threshold_kernels(4.0, taus).tau):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_rate_kernel_table_built_once_per_beta(monkeypatch):
    rates._threshold_kernels.cache_clear()
    grids = []

    def counting(v, x, beta):
        grids.append(beta)
        return kernel_x2z3(v, x, beta)

    monkeypatch.setattr(rates, "kernel_x2z3", counting)
    run_preset("fig3a")  # 30 alphas at beta = 4, each with a case-3 rate
    assert rates._threshold_kernels.cache_info().misses == 1
    assert grids == [4.0]
    cfg = NetworkConfig(beta=3.0)
    run_preset("fig3a", cfg)
    assert rates._threshold_kernels.cache_info().misses == 2
    assert grids == [4.0, 3.0]
    # an outage at the rule's thresholds reads the table that the rates built
    rate_case1(cfg, 3)
    sinr_cdf(cfg, 1, 3, np.expm1(rates._rate_rule(0)[0]))
    assert rates._threshold_kernels.cache_info().misses == 2
