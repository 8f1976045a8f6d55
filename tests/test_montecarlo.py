import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import integrate, special, stats

from hetcache import (
    EmpiricalEstimate,
    first_association_probability,
    run_monte_carlo,
    sample_topology,
)
from hetcache import montecarlo
from hetcache.association import SERVING_TIERS, active_d2d_density
from hetcache.montecarlo import (
    SpatialRealization,
    _association_counts,
    _case_members,
    _fading_average,
    _geometry,
    _nearest_cache_user,
    _weight_blocks,
)


def test_poisson_counts_match_intensities(cfg):
    window = 2000.0
    n_reps = 200
    counts = np.array([
        [len(r.users), len(r.relays), len(r.bs)]
        for r in (sample_topology(cfg, window, s) for s in range(n_reps))
    ])
    area = window * window
    for col, lam in enumerate((cfg.lambda0, cfg.lambda2, cfg.lambda3)):
        mean = lam * area
        se = math.sqrt(mean / n_reps)
        assert abs(counts[:, col].mean() - mean) < 3.5 * se
    # default densities: about 1527.9 users expected in this window
    assert counts[:, 0].mean() == pytest.approx(1527.9, rel=0.02)


def test_cache_and_activity_flags(cfg):
    real = sample_topology(cfg.with_updates(alpha=0.25), 3000.0, 7)
    assert not (real.active_flags & ~real.cache_flags).any()
    # above the full-activity threshold the thinning keeps the analyzed density
    act = active_d2d_density(cfg.with_updates(alpha=0.25))
    expect = act.lambda1_active * 3000.0 ** 2
    got = real.active_flags.sum()
    assert abs(got - expect) < 4.0 * math.sqrt(expect)
    # below it, every cache-enabled user transmits
    low = sample_topology(cfg.with_updates(alpha=0.05), 3000.0, 7)
    assert (low.active_flags == low.cache_flags).all()


def test_zero_density_tier_is_empty(cfg):
    sparse = cfg.with_updates(alpha=0.0, lambda2=1e-14, lambda3=1e-15)
    real = sample_topology(sparse, 1000.0, 0)
    assert len(real.relays) == 0 and len(real.bs) == 0
    assert not real.cache_flags.any()


def test_realization_validation(cfg):
    with pytest.raises(ValueError):
        sample_topology(cfg, 0.0, 0)
    # a finite area of 1e308 m^2 holds 1e309 users at 10 per m^2
    dense = cfg.with_updates(lambda0=10.0, lambda2=5.0, lambda3=1.0)
    with pytest.raises(ValueError, match=re.escape("node count; got 1e+154")):
        sample_topology(dense, 1e154, 0)
    pts = np.zeros((1, 2))
    with pytest.raises(ValueError):
        SpatialRealization(100.0, pts, pts, pts,
                           np.array([False]), np.array([True]))


@pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan, 1e308, 1e154, 3e9, 12000.0])
def test_window_rule_is_one_check(cfg, window, monkeypatch):
    # the realization checks a window's side and area, and its sampler also
    # the mean node count at cfg's densities, with one message and before any
    # draw: a 1e308 window's area overflows, a 1e154 window's finite area holds
    # more users than numpy's Poisson draw takes (it raised "lam value too
    # large"), and a 3e9 window's ~3.5e15 mean nodes would take petabytes of
    # positions; a 12000 m window's ~56k nodes fit, though not at one per m^2
    pts, flags = np.zeros((1, 2)), np.array([False])
    message = re.escape(f"with a finite area and node count; got {window}")
    if window in (1e154, 3e9, 12000.0):
        SpatialRealization(window, pts, pts, pts, flags, flags)
    else:
        with pytest.raises(ValueError, match=message):
            SpatialRealization(window, pts, pts, pts, flags, flags)
    if window == 12000.0:
        assert sample_topology(cfg, window, 0).window == window
        cfg = cfg.with_updates(lambda0=1.0)

    def no_draw(seed):
        raise AssertionError("sample_topology drew before checking its window")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=message):
        sample_topology(cfg, window, 0)


def test_nearest_cache_user_distance_ks(cfg):
    # tier-1 targets are the other cache-enabled users, density alpha*lambda0
    samples = []
    for seed in range(300):
        real = sample_topology(cfg, 2000.0, seed)
        if len(real.users) == 0:
            continue
        samples.append(_nearest_cache_user(real, np.arange(1))[0][0])
    samples = np.array(samples)
    lam = cfg.alpha * cfg.lambda0
    cdf = lambda r: 1.0 - np.exp(-math.pi * lam * r ** 2)
    assert stats.kstest(samples, cdf).pvalue > 0.01


def test_association_fractions_match_analysis(cfg):
    # the relay/BS fields are shared within a realization, so the standard
    # error must be taken across topologies, not across users
    per_rep = {f"g{i}": [] for i in (1, 2, 3)}
    for seed in range(40):
        real = sample_topology(cfg, 3000.0, seed)
        geo = _geometry(real, cfg, np.arange(len(real.users)))
        counts = _association_counts(geo.winner, geo.relay_over_bs)
        for key in per_rep:
            per_rep[key].append(counts[key] / len(real.users))
    for i in (1, 2, 3):
        ana = first_association_probability(cfg, i)
        vals = per_rep[f"g{i}"]
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals)) - ana) < 4.0 * se + 1e-3
    real = sample_topology(cfg, 3000.0, 11)
    geo = _geometry(real, cfg, np.arange(len(real.users)))
    counts = _association_counts(geo.winner, geo.relay_over_bs)
    assert sum(counts[f"g{i}"] for i in (1, 2, 3)) == len(real.users)
    assert counts["p123"] + counts["p132"] == counts["g1"]


def _measure_sinr(real, cfg, case_id, tier, n_fading, seed):
    """Sampled SINR, shape (users, n_fading), for the users in one
    (case, serving tier): every (user, node, draw) fades independently."""
    rng = np.random.default_rng(seed)
    geo = _geometry(real, cfg, np.arange(len(real.users)))
    rows = _case_members(geo, real, case_id, tier)
    out = rng.standard_exponential((len(rows), n_fading))
    for block, w, signal, n in _weight_blocks(real, cfg, geo, rows, case_id, tier):
        a = w / signal[:, None]
        fading = np.empty((a.shape[1], n_fading))
        for r in range(len(a)):
            rng.standard_exponential(out=fading)
            out[block.start + r] /= a[r] @ fading + n[r]
    return out


def test_single_interferer_sinr_distribution(cfg):
    # one non-caching user, its serving BS, and a single far relay interferer:
    # the SIR is a ratio of independent exponentials with CDF x / (x + 1)
    c = cfg.with_updates(alpha=0.0)
    users = np.array([[500.0, 500.0]])
    bs = np.array([[500.0, 400.0]])
    relays = np.array([[500.0, 900.0]])
    flags = np.array([False])
    real = SpatialRealization(1000.0, users, relays, bs, flags, flags)
    sinr = _measure_sinr(real, c, 1, 3, n_fading=4000, seed=5).ravel()
    scale = (c.p3 * 100.0 ** -c.beta) / (c.p2 * 400.0 ** -c.beta)
    cdf = lambda x: x / (x + 1.0)
    assert stats.kstest(sinr / scale, cdf).pvalue > 0.01


def _relative_weights(real, cfg, geo, rows, case_id, tier):
    """All of ``rows``' relative weights (rows, nodes) and noise (rows,),
    stacked from the producer's blocks: each block's weights divided by its
    signal powers."""
    blocks = [(w / signal[:, None], n)
              for _, w, signal, n in _weight_blocks(real, cfg, geo, rows, case_id, tier)]
    return np.vstack([a for a, _ in blocks]), np.concatenate([n for _, n in blocks])


def _quad_fading_average(a, n, taus):
    """One row's rate and outage from adaptive QUADPACK over u = ln(theta),
    split at 0, the knee and -ln(max a), with the exact log1p sum."""
    def log_p(theta):
        return -theta * n - np.log1p(theta * a).sum()

    def f(u):  # beyond u = 700 the coverage is below e^-u / max(a)
        return 0.0 if u > 700.0 else math.exp(log_p(math.exp(u))) * special.expit(u)

    edges = [-math.inf, *sorted({0.0, -math.log(a.sum() + n), -math.log(a.max())}), math.inf]
    rate = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=500)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))
    return rate, np.array([-math.expm1(log_p(t)) for t in taus])


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25])
def test_fading_average_matches_adaptive_quadrature(cfg, alpha):
    # criterion 3's geometry; in every (case, tier), the rows with the
    # smallest and largest total interference (knee far right and far left)
    # and a spread of others
    c = cfg.with_updates(alpha=alpha)
    real = sample_topology(c, 6000.0, 11)
    ref = np.sort(np.random.default_rng(0).choice(len(real.users), 500, replace=False))
    geo = _geometry(real, c, ref)
    taus = (0.1, 10.0 ** -0.5)
    for case_id, tiers in SERVING_TIERS.items():
        for tier in tiers:
            rows = _case_members(geo, real, case_id, tier)
            assert len(rows) > 0
            a, n = _relative_weights(real, c, geo, rows, case_id, tier)
            rate, outage = _fading_average(a, np.ones(len(a)), n, taus)
            total = a.sum(axis=1)
            picks = {int(np.argmin(total)), int(np.argmax(total)),
                     *range(0, len(rows), max(1, len(rows) // 5))}
            for i in picks:
                ref_rate, ref_outage = _quad_fading_average(a[i], n[i], taus)
                assert rate[i] == pytest.approx(ref_rate, rel=1e-5), (case_id, tier, i)
                np.testing.assert_allclose(outage[i], ref_outage, rtol=1e-6, atol=0.0)


def _full_tails():
    """The rate nodes and weights with both 32-node Gauss-Laguerre tails
    whole: the reference for the truncated tails."""
    x, w = np.polynomial.laguerre.laggauss(32)
    knee = montecarlo._KNEE_X
    rate_u = np.stack([np.concatenate(parts) for parts in (
        (1.0 - knee, np.zeros_like(x), np.ones_like(x)),
        (knee, np.ones_like(x), np.zeros_like(x)),
        (np.zeros_like(knee), x, -x))])
    return rate_u, np.tile(w * np.exp(x), 2)


def _assert_truncated_tails_negligible(monkeypatch, a, n, taus):
    """The truncated tails against the whole ones: each rate within the
    dropped weight's bound of 4.3e-19 plus 4 ulp, each outage equal."""
    ones = np.ones(len(a))
    rate, outage = _fading_average(a.copy(), ones, n, taus)
    rate_u, tail_w = _full_tails()
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_RATE_U", rate_u)
        m.setattr(montecarlo, "_TAIL_W", tail_w)
        full_rate, full_outage = _fading_average(a.copy(), ones, n, taus)
    assert (np.abs(rate - full_rate) <= 4.3e-19 + 4.0 * np.spacing(full_rate)).all()
    assert np.array_equal(outage, full_outage)


def _criterion3_blocks(cfg):
    """Every block of criterion 3's geometry (seed 11), at each of its
    alphas and in every (case, tier), as ``_weight_blocks`` yields it."""
    for alpha in (0.05, 0.1, 0.25):
        c = cfg.with_updates(alpha=alpha)
        real = sample_topology(c, 6000.0, 11)
        ref = np.sort(np.random.default_rng(0).choice(len(real.users), 500, replace=False))
        geo = _geometry(real, c, ref)
        for case_id, tiers in SERVING_TIERS.items():
            for tier in tiers:
                rows = _case_members(geo, real, case_id, tier)
                yield from _weight_blocks(real, c, geo, rows, case_id, tier)


def test_truncated_tails_drop_negligible_weight(cfg, monkeypatch):
    weights = np.polynomial.laguerre.laggauss(32)[1]
    assert weights[montecarlo._TAIL_NODES:].sum() < 2.2e-19
    taus = (0.1, 10.0 ** -0.5)
    for _, w, signal, n in _criterion3_blocks(cfg):
        _assert_truncated_tails_negligible(monkeypatch, w / signal[:, None], n, taus)


@pytest.mark.parametrize("a", [1e-5, 1.0, 1e4])
def test_fading_average_single_interferer(a, monkeypatch):
    # P(SINR > theta) = 1 / (1 + a theta): rate ln(a) / (a - 1), outage
    # tau a / (1 + tau a); the knee sits far right, at 0 and far left
    taus = (0.1, 1.0, 10.0)
    rate, outage = _fading_average(np.array([[a]]), np.ones(1), np.zeros(1), taus)
    assert rate[0] == pytest.approx(math.log(a) / (a - 1.0) if a != 1.0 else 1.0, rel=1e-10)
    np.testing.assert_allclose(outage[0], [t * a / (1.0 + t * a) for t in taus], rtol=1e-12)
    _assert_truncated_tails_negligible(monkeypatch, np.array([[a]]), np.zeros(1), taus)


@pytest.mark.parametrize("count, a, taus", [
    # 200 weights just above theta a = 1/2 at tau = 0.1, where the series
    # switches off
    (200, 5.1, (0.1, 10.0 ** -0.5)),
    # 33, so that one weight falls past the exact terms; theta a runs from
    # 5e-3 to 5, through both sides of the series switch
    (33, 5.1, tuple(np.geomspace(1e-3, 1.0, 31))),
    # 40 through theta a = 1/7, the worst equal weights for the series bound
    (40, 1.0, tuple(np.geomspace(0.05, 0.5, 31))),
])
def test_fading_average_series_bound(count, a, taus, monkeypatch):
    # adversarial rows of equal weights against the closed form
    # prod_j 1 / (1 + theta a_j)
    row = np.full((1, count), a)
    rate, outage = _fading_average(row, np.ones(1), np.zeros(1), taus)
    expect = [-math.expm1(-count * math.log1p(t * a)) for t in taus]
    np.testing.assert_allclose(outage[0], expect, rtol=1e-6, atol=0.0)
    assert rate[0] == pytest.approx(_quad_fading_average(row[0], 0.0, ())[0], rel=1e-5)
    _assert_truncated_tails_negligible(monkeypatch, row, np.zeros(1), taus)


def test_fading_average_matches_sampled_sinr(cfg):
    # per row, the closed form against the mean of 4000 sampled-fading SINRs
    c = cfg.with_updates(alpha=0.25)
    real = sample_topology(c, 1200.0, 4)
    geo = _geometry(real, c, np.arange(len(real.users)))
    taus, n_fading = (0.1, 1.0), 4000
    for case_id, tiers in SERVING_TIERS.items():
        for tier in tiers:
            rows = _case_members(geo, real, case_id, tier)
            assert len(rows) > 0
            a, n = _relative_weights(real, c, geo, rows, case_id, tier)
            rate, outage = _fading_average(a, np.ones(len(a)), n, taus)
            sinr = _measure_sinr(real, c, case_id, tier, n_fading=n_fading, seed=5)
            log_rate = np.log1p(sinr)
            se = log_rate.std(axis=1, ddof=1) / math.sqrt(n_fading)
            assert (abs(log_rate.mean(axis=1) - rate) <= 4.0 * se).all(), (case_id, tier)
            for j, tau in enumerate(taus):
                # one count is 1/n_fading, so p is clipped to that resolution
                p = np.clip(outage[:, j], 1.0 / n_fading, 1.0 - 1.0 / n_fading)
                se = np.sqrt(p * (1.0 - p) / n_fading)
                hits = (sinr <= tau).mean(axis=1)
                assert (abs(hits - outage[:, j]) <= 4.0 * se).all(), (case_id, tier, tau)


def _loop_distance(a, b, window):
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return math.hypot(min(dx, window - dx), min(dy, window - dy))


@pytest.fixture
def small_topology(cfg):
    c = cfg.with_updates(alpha=0.25)
    real = sample_topology(c, 1200.0, 4)
    assert len(real.users) > 20 and real.active_flags.sum() > 5
    return c, real, _geometry(real, c, np.arange(len(real.users)))


def test_nearest_other_cache_user_matches_loop(small_topology):
    # each tier's row of the received-power table: the nearest other
    # cache-enabled user, relay and BS, and P_i d^-beta from each
    c, real, geo = small_topology
    cache_users = np.flatnonzero(real.cache_flags)
    assert real.cache_flags[geo.ref].any()  # some reference users must skip themselves
    for row, u in enumerate(geo.ref):
        pos = real.users[u]
        candidates = (
            {v: real.users[v] for v in cache_users if v != u},
            dict(enumerate(real.relays)),
            dict(enumerate(real.bs)),
        )
        for tier, nodes in enumerate(candidates, start=1):
            d = {v: _loop_distance(pos, node, real.window) for v, node in nodes.items()}
            best = min(d, key=d.get)
            assert geo.nearest[tier - 1, row] == best
            assert geo.received[tier - 1, row] == pytest.approx(
                c.powers[tier - 1] * d[best] ** -c.beta, rel=1e-12)


@pytest.mark.parametrize("n_cache", [0, 1])
def test_no_other_cache_user_is_infinitely_far(cfg, n_cache):
    # with zero cache-enabled users, or one (which must not find itself),
    # there is no nearest other cache-enabled user: index -1, received power 0
    real = sample_topology(cfg, 1200.0, 4)
    ref = np.arange(len(real.users))
    flags = np.zeros(len(real.users), dtype=bool)
    flags[ref[:n_cache]] = True
    real = dataclasses.replace(real, cache_flags=flags, active_flags=flags)
    geo = _geometry(real, cfg, ref)
    alone = np.ones(len(ref), dtype=bool) if n_cache == 0 else np.arange(len(ref)) == 0
    assert (geo.received[0, alone] == 0.0).all() and (geo.nearest[0, alone] == -1).all()
    assert (geo.received[0, ~alone] > 0.0).all() and (geo.nearest[0, ~alone] == ref[0]).all()
    assert (geo.winner[alone] != 1).all()


@pytest.mark.parametrize("beta", [4.0, 3.5])
def test_interference_weights_match_per_user_loop(small_topology, monkeypatch, beta):
    # the producer's blocks against the per-user construction: active D2D
    # transmitters, relays, BSs; excluded nodes weigh 0; weights and noise
    # are divided by the serving signal power.  The block size does not
    # divide the row count, so the last block is a partial one.  beta = 4
    # takes the weights as a square, any other beta through a power.
    c, real, geo = small_topology
    c = c.with_updates(noise=1e-12, beta=beta)
    geo = _geometry(real, c, geo.ref)
    rows = np.arange(len(geo.ref))
    block_rows = 7
    assert len(rows) % block_rows != 0
    monkeypatch.setattr(montecarlo, "_ROW_BLOCK", block_rows)
    active = np.flatnonzero(real.active_flags)
    for case_id, tiers in SERVING_TIERS.items():
        for tier in tiers:
            d2d_served = case_id == 1 and tier == 1
            blocks = [(block, w / signal[:, None], n) for block, w, signal, n
                      in _weight_blocks(real, c, geo, rows, case_id, tier)]
            assert [(b.start, b.stop) for b, _, _ in blocks] == [
                (r, min(r + block_rows, len(rows))) for r in range(0, len(rows), block_rows)]
            got = np.vstack([a for _, a, _ in blocks])
            expect = np.zeros_like(got)
            signal = np.empty(len(rows))
            for row in rows:
                u, pos = geo.ref[row], real.users[geo.ref[row]]
                cache_idx, relay_idx, bs_idx = geo.nearest[:, row]
                serving_xy, p_serv = ((real.users[cache_idx], c.p1) if d2d_served else
                                      (real.relays[relay_idx], c.p2) if tier == 2 else
                                      (real.bs[bs_idx], c.p3))
                signal[row] = p_serv * _loop_distance(pos, serving_xy, real.window) ** -c.beta
                skip_cache = cache_idx if (d2d_served or case_id == 3) else -1
                col = 0
                for v in active:
                    if v not in (u, skip_cache):
                        d = _loop_distance(pos, real.users[v], real.window)
                        expect[row, col] = c.p1 * d ** -c.beta
                    col += 1
                for tier_nodes, p, serving, served_here in (
                        (real.relays, c.p2, relay_idx, tier == 2),
                        (real.bs, c.p3, bs_idx, tier == 3)):
                    for n, node in enumerate(tier_nodes):
                        if d2d_served or not (served_here and n == serving):
                            d = _loop_distance(pos, node, real.window)
                            expect[row, col] = p * d ** -c.beta
                        col += 1
            expect /= signal[:, None]
            assert np.array_equal(got == 0.0, expect == 0.0), (case_id, tier)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
            # the same arithmetic broadcast over all rows at once gives the
            # same bits: the offsets u - v, the torus fold, dx^2 + dy^2
            nodes = np.concatenate((real.users[active], real.relays, real.bs))
            offset = np.abs(real.users[geo.ref[rows]][:, None, :] - nodes)
            offset = np.minimum(offset, real.window - offset)
            sq = offset[..., 0] * offset[..., 0] + offset[..., 1] * offset[..., 1]
            sq[expect == 0.0] = math.inf
            power = np.repeat((c.p1, c.p2, c.p3),
                              (len(active), len(real.relays), len(real.bs)))
            broadcast = ((np.sqrt(power) / sq) ** 2 if beta == 4.0
                         else sq ** (-beta / 2.0) * power) / geo.received[tier - 1, rows, None]
            assert np.array_equal(got, broadcast), (case_id, tier)
            np.testing.assert_allclose(np.concatenate([n for *_, n in blocks]),
                                       c.noise / signal, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shuffle", [False, True])
def test_one_pass_over_all_row_sets_matches_per_set_passes(small_topology, monkeypatch,
                                                            shuffle):
    # all seven (case, tier) row sets through one pass, case-major as
    # run_monte_carlo orders them or shuffled so that the case ids and tiers
    # mix within blocks, in blocks that split the sets mid-set: each row's
    # rate and outage as from a pass over its own (case, tier) alone
    c, real, geo = small_topology
    c = c.with_updates(noise=1e-12)
    taus = (0.1, 1.0)
    monkeypatch.setattr(montecarlo, "_ROW_BLOCK", 7)
    sets = [(case_id, tier, _case_members(geo, real, case_id, tier))
            for case_id, tiers in SERVING_TIERS.items() for tier in tiers]
    sizes = [len(rows) for *_, rows in sets]
    assert min(sizes) > 0 and any(size % 7 for size in sizes)
    rows = np.concatenate([rows for *_, rows in sets])
    case_ids = np.repeat([case_id for case_id, *_ in sets], sizes)
    tiers = np.repeat([tier for _, tier, _ in sets], sizes)
    order = (np.random.default_rng(1).permutation(len(rows)) if shuffle
             else np.arange(len(rows)))
    if shuffle:
        assert len(np.unique(case_ids[order][:7])) > 1
    rate, outage = np.empty(len(rows)), np.empty((len(rows), len(taus)))
    for block, w, signal, n in _weight_blocks(real, c, geo, rows[order], case_ids[order],
                                              tiers[order]):
        rate[order[block]], outage[order[block]] = _fading_average(w, signal, n, taus)
    start = 0
    for case_id, tier, set_rows in sets:
        alone = slice(start, start + len(set_rows))
        start = alone.stop
        for block, w, signal, n in _weight_blocks(real, c, geo, set_rows, case_id, tier):
            own_rate, own_outage = _fading_average(w, signal, n, taus)
            rows_here = np.arange(alone.start, alone.stop)[block]
            np.testing.assert_allclose(rate[rows_here], own_rate, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(outage[rows_here], own_outage, rtol=1e-14, atol=0.0)


def test_signal_fold_matches_relative_weights(cfg):
    # on every block of criterion 3's geometry, 1 / S applied to the
    # reductions gives what the relative weights w / S give
    taus = (0.1, 10.0 ** -0.5)
    for _, w, signal, n in _criterion3_blocks(cfg):
        relative = w / signal[:, None]
        rate, outage = _fading_average(w, signal, n, taus)
        expect_rate, expect_outage = _fading_average(relative, np.ones(len(signal)), n, taus)
        np.testing.assert_allclose(rate, expect_rate, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(outage, expect_outage, rtol=1e-14, atol=0.0)


def test_empirical_estimate_validation(cfg):
    with pytest.raises(ValueError):
        EmpiricalEstimate(1.0, -0.1, 50)


def test_run_monte_carlo_deterministic(cfg):
    kw = dict(n_topologies=4, seed=42, window=1500.0, max_users=30,
              max_reference_users=60, tau_grid=(0.1,))
    a = run_monte_carlo(cfg, **kw)
    b = run_monte_carlo(cfg, **kw)
    assert a.rates.keys() == b.rates.keys()
    for k in a.rates:
        assert a.rates[k].value == b.rates[k].value
        assert a.rates[k].std_error == b.rates[k].std_error
    for k in a.outage:
        assert a.outage[k].value == b.outage[k].value
    for k in a.association:
        assert a.association[k].value == b.association[k].value


def test_run_monte_carlo_is_block_invariant(cfg, monkeypatch):
    # the summary does not depend on how the rows are blocked; in the small
    # window some (case, tier) has no member and some has a single one
    sizes = []
    members = montecarlo._case_members

    def counted(geo, real, case_id, tier):
        rows = members(geo, real, case_id, tier)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(montecarlo, "_case_members", counted)
    kw = dict(n_topologies=6, seed=3, window=1000.0, max_users=40,
              max_reference_users=20, tau_grid=(0.1, 1.0))
    runs = []
    for block_rows in (1, 7, montecarlo._ROW_BLOCK):
        monkeypatch.setattr(montecarlo, "_ROW_BLOCK", block_rows)
        runs.append(run_monte_carlo(cfg.with_updates(alpha=0.05), **kw))
    assert 0 in sizes and 1 in sizes
    default = runs[-1]
    for run in runs[:-1]:
        for group in ("rates", "outage", "association"):
            got, expect = getattr(run, group), getattr(default, group)
            assert got.keys() == expect.keys()
            for key in expect:
                np.testing.assert_allclose(
                    [got[key].value, got[key].std_error],
                    [expect[key].value, expect[key].std_error], rtol=1e-14, atol=0.0)
                assert got[key].n_samples == expect[key].n_samples
        assert run.reference_rows == default.reference_rows


def test_run_monte_carlo_counts_rows_per_case_and_tier(cfg, monkeypatch):
    # one interference pass per topology; the rows per (case, serving tier)
    # are the capped _case_members sizes, and per case they add up to the
    # rows of that case in the pass
    kw = dict(n_topologies=3, seed=5, window=1500.0, max_users=30,
              max_reference_users=60, tau_grid=(0.1,))
    members, producer = montecarlo._case_members, montecarlo._weight_blocks
    drawn = {}
    passed = []

    def counted_members(geo, real, case_id, tier):
        rows = members(geo, real, case_id, tier)
        drawn[(case_id, tier)] = drawn.get((case_id, tier), 0) + min(len(rows), kw["max_users"])
        return rows

    def counted_blocks(real, c, geo, rows, case_ids, tiers):
        passed.append(np.array(case_ids, copy=True))
        return producer(real, c, geo, rows, case_ids, tiers)

    monkeypatch.setattr(montecarlo, "_case_members", counted_members)
    monkeypatch.setattr(montecarlo, "_weight_blocks", counted_blocks)
    s = run_monte_carlo(cfg.with_updates(alpha=0.25), **kw)
    assert len(passed) == kw["n_topologies"]
    assert s.reference_rows == drawn
    assert list(s.reference_rows) == [(c, t) for c, tiers in SERVING_TIERS.items() for t in tiers]
    assert all(count > 0 for count in s.reference_rows.values())
    case_ids = np.concatenate(passed)
    for case_id, tiers in SERVING_TIERS.items():
        total = sum(s.reference_rows[(case_id, t)] for t in tiers)
        assert total == (case_ids == case_id).sum()


def test_run_monte_carlo_counts_topologies_that_measure_each_case(cfg, monkeypatch):
    # at alpha = 0.02 in a small window some case is measured in only some
    # topologies: its estimates average over those topologies alone
    producer = montecarlo._weight_blocks
    passed = []

    def counted_blocks(real, c, geo, rows, case_ids, tiers):
        passed.append(np.array(case_ids, copy=True))
        return producer(real, c, geo, rows, case_ids, tiers)

    monkeypatch.setattr(montecarlo, "_weight_blocks", counted_blocks)
    n_topologies = 6
    s = run_monte_carlo(cfg.with_updates(alpha=0.02), n_topologies=n_topologies, seed=3,
                        window=800.0, max_users=40, max_reference_users=20, tau_grid=(0.1,))
    assert len(passed) == n_topologies
    measured = {c: sum(bool((ids == c).any()) for ids in passed) for c in SERVING_TIERS}
    for case_id, n in measured.items():
        assert s.rates[case_id].n_samples == n, case_id
        assert s.outage[(case_id, 0.1)].n_samples == n, case_id
    assert any(0 < n < n_topologies for n in measured.values()), measured


def test_run_monte_carlo_validation_and_retries(cfg):
    with pytest.raises(ValueError):
        run_monte_carlo(cfg, n_topologies=0)
    # a repeat would feed its outage twice into one (case, threshold) estimate
    with pytest.raises(ValueError, match="distinct"):
        run_monte_carlo(cfg, n_topologies=1, window=1500.0, tau_grid=(0.1, 1.0, 0.1))
    starved = cfg.with_updates(lambda2=1e-14, lambda3=1e-15)
    with pytest.raises(ValueError):
        run_monte_carlo(starved, n_topologies=1, window=1000.0)


@pytest.mark.parametrize("tau", [-0.5, math.nan])
def test_run_monte_carlo_rejects_a_threshold_below_zero_or_nan(cfg, tau):
    # an outage threshold below 0 gave a negative "probability", and NaN an
    # empty estimate in every case
    with pytest.raises(ValueError, match="must be non-negative"):
        run_monte_carlo(cfg, n_topologies=2, window=1500.0, tau_grid=(0.1, tau))


def test_run_monte_carlo_rejects_other_boundaries(cfg):
    # the window is always a torus; no other edge treatment is estimated
    with pytest.raises(ValueError, match="torus"):
        run_monte_carlo(cfg, n_topologies=1, boundary="margin")


def test_run_monte_carlo_alpha_zero_drops_d2d_cases(cfg):
    # at alpha = 0 the case-2 and case-3 conditionings are empty in every
    # topology, so their cells hold NaN from 0 samples
    taus = (0.1, 1.0)
    s = run_monte_carlo(cfg.with_updates(alpha=0.0), n_topologies=3, seed=1, window=1500.0,
                        max_users=20, max_reference_users=40, tau_grid=taus)
    assert s.rates[1].n_samples == 3
    assert all(s.outage[(1, t)].n_samples == 3 for t in taus)
    for case_id in (2, 3):
        for est in (s.rates[case_id], *(s.outage[(case_id, t)] for t in taus)):
            assert est.n_samples == 0 and math.isnan(est.value), case_id


def _tree_nearest(points, targets, window, k):
    from scipy.spatial import cKDTree

    return cKDTree(targets, boxsize=window).query(points, k=k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("window", [300.0, 1000.0, 6000.0])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.25, 1.0])
def test_nearest_matches_a_periodic_kd_tree(cfg, alpha, window, k):
    # every tier _geometry queries, from every user; the same indices as
    # scipy's periodic k-d tree and distances within 1 ulp
    real = sample_topology(cfg.with_updates(alpha=alpha), window, 11)
    points = np.vstack((real.users, [[0.0, 0.0], [0.0, window / 2.0]]))
    for targets in (real.users[real.cache_flags], real.relays, real.bs):
        d, j = montecarlo._nearest(points, targets, window, k)
        ref_d, ref_j = _tree_nearest(points, targets, window, k)
        assert d.shape == ref_d.shape and j.shape == ref_j.shape
        np.testing.assert_array_equal(j, ref_j)
        np.testing.assert_array_max_ulp(d, ref_d, maxulp=1)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n_targets", [0, 1, 3, 500])
def test_nearest_of_few_and_clustered_targets(n_targets, k):
    # no target, one target (no second at k = 2), and a cluster in one
    # corner, which leaves most points without k targets within a cell side:
    # they fall back to comparing every target
    window = 1000.0
    rng = np.random.default_rng(5)
    targets = rng.uniform(0.0, 40.0, size=(n_targets, 2))
    targets[:1] = 0.0
    points = np.vstack((rng.uniform(0.0, window, size=(300, 2)), [[0.0, 0.0], [0.0, 999.0]]))
    d, j = montecarlo._nearest(points, targets, window, k)
    if n_targets == 0:
        assert (d == np.inf).all() and (j == 0).all()
        return
    ref_d, ref_j = _tree_nearest(points, targets, window, k)
    np.testing.assert_array_equal(j, ref_j)
    np.testing.assert_array_max_ulp(d, ref_d, maxulp=1)


def test_fading_average_reuses_its_block_buffers():
    # a warm call allocates less than one block: the squares of the rest and
    # the top weights times the theta grid go into the kept buffers
    import tracemalloc

    rng = np.random.default_rng(2)
    w = rng.random((32, 2000))
    signal, n, taus = rng.random(32) + 0.5, np.zeros(32), (0.1, 0.3)
    work = {}
    expect = _fading_average(w.copy(), signal, n, taus, work)
    block = w.copy()
    tracemalloc.start()
    try:
        got = _fading_average(block, signal, n, taus, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes, peak
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)
    # and the buffers change no result
    for a, b in zip(_fading_average(w.copy(), signal, n, taus), expect):
        np.testing.assert_array_equal(a, b)
