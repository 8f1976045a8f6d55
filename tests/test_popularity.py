import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcache import PopularityModel


def test_uniform_when_gamma_zero():
    pop = PopularityModel(0.0, 10)
    assert pop.prefix_sum(1, 1) == pytest.approx(0.1)
    assert pop.prefix_sum(10, 10) == pytest.approx(0.1)


def test_masses_decreasing():
    pop = PopularityModel(0.8, 200)
    masses = np.array([pop.prefix_sum(i, i) for i in range(1, 201)])
    assert (np.diff(masses) <= 0.0).all()
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_prefix_sum_conventions():
    pop = PopularityModel(0.8, 200)
    assert pop.prefix_sum(6, 5) == 0.0          # empty range
    assert pop.prefix_sum(1, 200) == pytest.approx(1.0, abs=1e-12)
    assert pop.prefix_sum(1, 5) + pop.prefix_sum(6, 200) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        pop.prefix_sum(0, 5)
    with pytest.raises(ValueError):
        pop.prefix_sum(1, 201)


def test_cache_hit_mass_default_set():
    # direct-summation oracle: sum_{i<=5} i^-0.8 / sum_{i<=200} i^-0.8
    ranks = np.arange(1, 201, dtype=float)
    w = ranks**-0.8
    expect = w[:5].sum() / w.sum()
    pop = PopularityModel(0.8, 200)
    assert pop.prefix_sum(1, 5) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(0.2596280468, abs=5e-10)


@given(gamma=st.floats(0.0, 3.0), n=st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_total_mass_is_one(gamma, n):
    pop = PopularityModel(gamma, n)
    assert pop.prefix_sum(1, n) == pytest.approx(1.0, abs=1e-9)
    assert all(pop.prefix_sum(i, i) >= 0.0 for i in range(1, n + 1))


@given(gamma=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_higher_gamma_concentrates_head(gamma):
    lo = PopularityModel(gamma, 100).prefix_sum(1, 10)
    hi = PopularityModel(gamma + 0.5, 100).prefix_sum(1, 10)
    assert hi >= lo


def test_invalid_parameters():
    with pytest.raises(ValueError):
        PopularityModel(-0.1, 10)
    with pytest.raises(ValueError):
        PopularityModel(0.8, 0)
