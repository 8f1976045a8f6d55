import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcache import (
    NetworkConfig,
    active_d2d_density,
    first_association_probability,
    ordering_probability,
    state_matrix,
)
from hetcache.association import (
    _zipf_prefix,
    pairwise_association_probability,
)


def test_zipf_uniform_when_gamma_zero():
    assert np.diff(_zipf_prefix(0.0, 10)) == pytest.approx(np.full(10, 0.1))


def test_zipf_masses_decreasing():
    masses = np.diff(_zipf_prefix(0.8, 200))
    assert (np.diff(masses) <= 0.0).all()
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


@given(gamma=st.floats(0.0, 3.0), n=st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_zipf_total_mass_is_one(gamma, n):
    prefix = _zipf_prefix(gamma, n)
    assert prefix[0] == 0.0 and prefix[n] == pytest.approx(1.0, abs=1e-9)
    assert (np.diff(prefix) >= 0.0).all()


@given(gamma=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_zipf_higher_gamma_concentrates_head(gamma):
    assert _zipf_prefix(gamma + 0.5, 100)[10] >= _zipf_prefix(gamma, 100)[10]


def test_zipf_cache_hit_mass_default_set():
    # direct-summation oracle: sum_{i<=5} i^-0.8 / sum_{i<=200} i^-0.8
    w = np.arange(1, 201, dtype=float) ** -0.8
    expect = w[:5].sum() / w.sum()
    assert _zipf_prefix(0.8, 200)[5] == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(0.2596280468, abs=5e-10)


def test_zipf_prefix_is_cached_read_only(cfg):
    # one shared array per (gamma, n_contents): read-only, equal to a fresh build
    prefix = _zipf_prefix(cfg.gamma, cfg.n_contents)
    state_matrix(cfg)
    active_d2d_density(cfg)
    assert _zipf_prefix(cfg.gamma, cfg.n_contents) is prefix
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[1] = 0.0
    np.testing.assert_array_equal(prefix, _zipf_prefix.__wrapped__(cfg.gamma, cfg.n_contents))


def test_ordering_probabilities_sum_to_one(cfg):
    total = sum(ordering_probability(cfg, p) for p in itertools.permutations((1, 2, 3)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_first_association_sums_to_one(cfg):
    gs = [first_association_probability(cfg, i) for i in (1, 2, 3)]
    assert sum(gs) == pytest.approx(1.0, abs=1e-14)
    assert ordering_probability(cfg, (1, 2, 3)) + ordering_probability(cfg, (1, 3, 2)) \
        == pytest.approx(gs[0], abs=1e-14)


def test_symmetric_tiers_equal_shares():
    # densities 4:2:1 and powers 1:4:16 at beta = 4 give equal weights lambda_i sqrt(P_i)
    cfg = NetworkConfig(lambda0=8e-5, alpha=0.5, lambda2=2e-5, lambda3=1e-5,
                        p1=0.0625, p2=0.25, p3=1.0, beta=4.0)
    for i in (1, 2, 3):
        assert first_association_probability(cfg, i) == pytest.approx(1.0 / 3.0)
    assert ordering_probability(cfg, (2, 3, 1)) == pytest.approx(1.0 / 6.0)


def test_ordering_against_sampling_oracle(cfg):
    # nearest distances R_i = sqrt(Exp(1)/(pi*lambda_i)); rank P_i R_i^(-beta)
    rng = np.random.default_rng(12345)
    n = 200_000
    lam = np.asarray(cfg.densities)
    pw = np.asarray(cfg.powers)
    r = np.sqrt(rng.exponential(size=(n, 3)) / (math.pi * lam))
    received = pw * r ** (-cfg.beta)
    order = np.argsort(-received, axis=1) + 1
    for perm in itertools.permutations((1, 2, 3)):
        emp = (order == perm).all(axis=1).mean()
        ana = ordering_probability(cfg, perm)
        se = math.sqrt(ana * (1.0 - ana) / n)
        assert abs(emp - ana) < 4.0 * se + 1e-9


def test_pairwise_association(cfg):
    p2 = pairwise_association_probability(cfg, 2)
    p3 = pairwise_association_probability(cfg, 3)
    assert p2 + p3 == pytest.approx(1.0, abs=1e-14)
    # the relay/BS pair as a network of its own: the network without D2D tier
    assert p2 == pytest.approx(
        first_association_probability(cfg.with_updates(alpha=0.0), 2), abs=1e-14)


def test_state_matrix_structure(cfg):
    states = state_matrix(cfg)
    d = states.d
    assert d.shape == (8, 4)
    assert d.sum() == pytest.approx(1.0, abs=1e-12)
    # structural zeros: local column only in the case-4 backhaul-free row,
    # D2D column only in the first case-1 row, nothing in the last row
    assert (d[:6, 3] == 0.0).all() and d[7].sum() == 0.0
    assert (d[1:, 0] == 0.0).all()
    # BS-served case 1 never needs the backhaul
    assert d[1, 2] == 0.0
    assert sum(states.case_probability(c) for c in (1, 2, 3, 4)) == pytest.approx(1.0, abs=1e-12)


def test_state_matrix_hand_entries(cfg):
    hit = _zipf_prefix(cfg.gamma, cfg.n_contents)[cfg.m1]
    states = state_matrix(cfg)
    g1 = first_association_probability(cfg, 1)
    assert states.d[0, 0] == pytest.approx(g1 * (1.0 - cfg.alpha) * hit, rel=1e-12)
    assert states.d[6, 3] == pytest.approx(cfg.alpha * hit, rel=1e-12)


def test_cases_1_and_4_increase_with_gamma(cfg):
    probs = []
    for gamma in (0.4, 0.8, 1.2, 1.6, 2.0):
        s = state_matrix(cfg.with_updates(gamma=gamma))
        probs.append(s.case_probability(1) + s.case_probability(4))
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_alpha_zero_degenerates(cfg):
    states = state_matrix(cfg.with_updates(alpha=0.0))
    assert (states.d[:, 0] == 0.0).all()
    assert (states.d[:, 3] == 0.0).all()
    assert states.case_probability(2) == 0.0
    assert states.case_probability(3) == 0.0
    # a zero-density D2D tier never offers the strongest power
    assert first_association_probability(cfg.with_updates(alpha=0.0), 1) == 0.0


def test_activity_critical_points(cfg, cfg_lowpower):
    act = active_d2d_density(cfg)
    assert act.alpha_star == pytest.approx(0.1378, abs=5e-4)
    assert act.alpha_hat == pytest.approx(0.2196, abs=5e-4)
    act13 = active_d2d_density(cfg_lowpower)
    assert act13.alpha_star == 0.0
    assert act13.alpha_hat == pytest.approx(0.3162, abs=5e-4)


def test_active_density_continuous_at_alpha_star(cfg):
    a_star = active_d2d_density(cfg).alpha_star
    eps = 1e-9
    lo = active_d2d_density(cfg.with_updates(alpha=a_star - eps)).lambda1_active
    hi = active_d2d_density(cfg.with_updates(alpha=a_star + eps)).lambda1_active
    assert lo == pytest.approx(hi, rel=1e-6)


def test_alpha_hat_maximizes_density(cfg):
    a_hat = active_d2d_density(cfg).alpha_hat
    peak = active_d2d_density(cfg.with_updates(alpha=a_hat)).lambda1_active
    for alpha in np.linspace(0.01, 0.99, 50):
        assert active_d2d_density(cfg.with_updates(alpha=float(alpha))).lambda1_active \
            <= peak + 1e-18


def test_active_fraction(cfg):
    # every cache-enabled user transmits below alpha_star, some of them above it
    def fraction(alpha):
        c = cfg.with_updates(alpha=alpha)
        return active_d2d_density(c).lambda1_active / c.lambda1

    assert fraction(0.05) == pytest.approx(1.0)
    assert active_d2d_density(cfg.with_updates(alpha=0.0)).lambda1_active == 0.0
    assert 0.0 < fraction(0.5) < 1.0


def test_association_rejects_bad_tiers(cfg):
    with pytest.raises(ValueError):
        first_association_probability(cfg, 4)
    with pytest.raises(ValueError):
        ordering_probability(cfg, (1, 2, 2))
    with pytest.raises(ValueError):
        pairwise_association_probability(cfg, 1)


def test_state_matrix_accepts_edge_alphas():
    for alpha in (0.0, 1.0):
        states = state_matrix(NetworkConfig().with_updates(alpha=alpha))
        assert states.d.sum() == pytest.approx(1.0, abs=1e-12)
