import math

import numpy as np
import pytest
from scipy import optimize

from hetcache import (
    baseline_model,
    class_loads,
    ctmc_simulate,
    network_model,
    queue_metrics,
    rate_matrix,
    state_matrix,
    throughput_gain,
)
from hetcache import queueing
from hetcache.config import NetworkConfig, fig6_config
from hetcache.queueing import (
    _DRAW_BLOCK,
    QueueClassLoad,
    RateMatrix,
    _pick,
    _slot_average,
    _time_average,
    baseline_state_matrix,
)
from hetcache.rates import case_rate_table


@pytest.fixture(scope="module")
def queue_model(request):
    cfg = fig6_config()
    return cfg, network_model(cfg)


def _single_class_model(cfg, zeta, mu, node=3):
    """One class at one node type; mu = service rate in requests/s."""
    z = np.zeros((8, 4))
    a = np.zeros((8, 4))
    z[0, node - 1] = zeta
    a[0, node - 1] = mu * cfg.content_size_s * cfg.varrho_inv
    n = np.zeros((8, 4))
    sigma = z * cfg.content_size_s * cfg.varrho_inv
    loads = QueueClassLoad(n, z, sigma, (0.0, 1.0, 1.0, 0.0))
    return loads, RateMatrix(a)


def test_rate_matrix_structure(queue_model):
    cfg, (states, loads, rates) = queue_model
    a = rates.a
    assert (a[states.d == 0.0] == 0.0).all()
    assert (a[states.d > 0.0] > 0.0).all()
    # backhaul rows carry the penalty factor exactly
    table = case_rate_table(cfg)
    scale = cfg.eta * cfg.bandwidth_w
    assert a[0, 1] == pytest.approx(scale * table[0, 1], rel=1e-12)
    assert a[1, 1] == pytest.approx(scale * cfg.backhaul_kappa * table[0, 1], rel=1e-12)
    assert a[6, 3] == pytest.approx(scale * cfg.local_rate_ul, rel=1e-12)


def test_class_loads_user_conservation(queue_model):
    cfg, (states, loads, rates) = queue_model
    total = sum(
        loads.n[:, j].sum() * loads.node_densities[j] for j in range(4))
    assert total == pytest.approx(cfg.lambda0, rel=1e-12)
    assert (loads.sigma == loads.zeta * cfg.content_size_s * cfg.varrho_inv).all()


def test_class_loads_alpha_zero(cfg):
    c = cfg.with_updates(alpha=0.0)
    states = state_matrix(c)
    loads = class_loads(c, states)
    assert (loads.zeta[:, 0] == 0.0).all()
    assert (loads.zeta[:, 3] == 0.0).all()


def test_littles_law_per_class_and_node(queue_model):
    cfg, (states, loads, rates) = queue_model
    m = queue_metrics(cfg, loads, rates)
    mask = loads.sigma > 0.0
    assert np.allclose(m.n_class[mask], loads.zeta[mask] * m.d_class[mask],
                       rtol=1e-10, atol=0.0)
    for j in range(4):
        if loads.sigma[:, j].any() and m.stable[j]:
            assert m.n_node[j] == pytest.approx(
                loads.zeta[:, j].sum() * m.d_node[j], rel=1e-10)


def test_single_class_reduces_to_mm1_ps(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.6, mu=1.0)
    m = queue_metrics(cfg, loads, rates)
    rho = 0.6
    assert m.rulers[2] == pytest.approx(rho, rel=1e-12)
    assert m.n_class[0, 2] == pytest.approx(rho / (1.0 - rho), rel=1e-12)
    assert m.n_node[2] == pytest.approx(rho / (1.0 - rho), rel=1e-12)


def test_unstable_marked_not_nan(cfg):
    loads, rates = _single_class_model(cfg, zeta=1.5, mu=1.0)
    m = queue_metrics(cfg, loads, rates)
    assert not m.stable[2]
    assert math.isinf(m.n_class[0, 2])
    assert m.t_node[2] == 0.0


def _queue_metrics_loop(cfg, loads, rates):
    """Per-column walk over the node types: the reference for queue_metrics."""
    a, sigma, zeta = rates.a, loads.sigma, loads.zeta
    ruler = np.where(sigma > 0.0, sigma / np.where(a > 0.0, a, 1.0), 0.0).sum(axis=0)
    sigma_node = sigma.sum(axis=0)
    zeta_node = zeta.sum(axis=0)
    sigma_crit = np.where(ruler > 0.0, sigma_node / np.where(ruler > 0.0, ruler, 1.0), math.nan)
    n_class = np.zeros_like(sigma)
    t_class = np.zeros_like(sigma)
    d_class = np.full_like(sigma, math.nan)
    n_node = np.zeros(4)
    t_node = np.full(4, math.nan)
    d_node = np.full(4, math.nan)
    delay_scale = cfg.content_size_s * cfg.varrho_inv
    for j in range(4):
        if not sigma_node[j] > 0.0:
            continue
        if not ruler[j] < 1.0:
            mask = sigma[:, j] > 0.0
            n_class[mask, j] = math.inf
            d_class[mask, j] = math.inf
            n_node[j] = math.inf
            t_node[j] = 0.0
            d_node[j] = math.inf
            continue
        slack = 1.0 - ruler[j]
        active = a[:, j] > 0.0
        n_class[active, j] = sigma[active, j] / (slack * a[active, j])
        t_class[active, j] = slack * a[active, j]
        d_class[active, j] = delay_scale / (slack * a[active, j])
        n_node[j] = sigma_node[j] / (sigma_crit[j] - sigma_node[j])
        t_node[j] = sigma_crit[j] - sigma_node[j]
        d_node[j] = n_node[j] / zeta_node[j]
    return ruler, (n_class, t_class, d_class), (n_node, t_node, d_node)


def _reference_models():
    base = NetworkConfig()
    return {
        "fig6": (fig6_config(), network_model(fig6_config())[1:]),
        "baseline": (fig6_config(), baseline_model(fig6_config())[1:]),
        "unstable": (NetworkConfig(varsigma=5.0), network_model(NetworkConfig(varsigma=5.0))[1:]),
        "mm1": (base, _single_class_model(base, zeta=0.6, mu=1.0)),
    }


@pytest.mark.parametrize("name", ["fig6", "baseline", "unstable", "mm1"])
def test_queue_metrics_matches_per_column_loop(name):
    cfg, (loads, rates) = _reference_models()[name]
    m = queue_metrics(cfg, loads, rates)
    ruler, classes, nodes = _queue_metrics_loop(cfg, loads, rates)
    assert np.array_equal(m.rulers, ruler)
    assert np.array_equal(m.stable, ruler < 1.0)
    for got, want in zip((m.n_class, m.t_class, m.d_class), classes):
        assert np.array_equal(got, want, equal_nan=True)
    for got, want in zip((m.n_node, m.t_node, m.d_node), nodes):
        # NaN and inf must sit where the loop puts them
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    if name == "unstable":
        assert not m.stable.all() and m.stable.any()
    if name == "baseline":
        assert np.isnan(m.t_node[[0, 3]]).all()
    assert m.varsigma_star == cfg.varsigma / ruler.max()
    assert m.binding_node == ("d2d", "relay", "bs", "local")[int(ruler.argmax())]


def test_no_traffic_has_no_binding_node_or_critical_rate(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.0, mu=1.0)
    m = queue_metrics(cfg, loads, rates)
    assert (m.rulers == 0.0).all() and (m.n_node == 0.0).all()
    with pytest.raises(ValueError, match="no traffic anywhere"):
        m.varsigma_star
    with pytest.raises(ValueError, match="no traffic anywhere"):
        m.binding_node


def test_throughput_gain_matches_queue_metrics(cfg_queue):
    gain = throughput_gain(cfg_queue)
    cached = queue_metrics(cfg_queue, *network_model(cfg_queue)[1:]).varsigma_star
    base = queue_metrics(cfg_queue, *baseline_model(cfg_queue)[1:]).varsigma_star
    assert gain == {"varsigma_star_cached": cached, "varsigma_star_baseline": base,
                    "gain": cached / base - 1.0}


def test_metrics_reject_traffic_without_service(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.5, mu=1.0)
    bad = RateMatrix(np.zeros((8, 4)))
    with pytest.raises(ValueError):
        queue_metrics(cfg, loads, bad)


def test_varsigma_star_closed_form_matches_bisection(queue_model):
    cfg, (states, loads, rates) = queue_model
    m = queue_metrics(cfg, loads, rates)

    def worst_ruler(varsigma):
        c = cfg.with_updates(varsigma=float(varsigma))
        l2 = class_loads(c, states)
        return float(queue_metrics(c, l2, rates).rulers.max()) - 1.0

    root = optimize.brentq(worst_ruler, 1e-6, 1e4, xtol=1e-12, rtol=1e-12)
    assert m.varsigma_star == pytest.approx(root, rel=1e-9)


def test_varsigma_star_exact_scalings(queue_model):
    cfg, (states, loads, rates) = queue_model
    base = queue_metrics(cfg, loads, rates).varsigma_star

    c2 = cfg.with_updates(content_size_s=2.0 * cfg.content_size_s)
    l2 = class_loads(c2, states)
    r2 = rate_matrix(c2, case_rate_table(c2), states)
    assert queue_metrics(c2, l2, r2).varsigma_star == pytest.approx(base / 2.0, rel=1e-12)

    c3 = cfg.with_updates(varrho_inv=cfg.varrho_inv / 2.0)  # doubled mean service share
    l3 = class_loads(c3, states)
    r3 = rate_matrix(c3, case_rate_table(c3), states)
    assert queue_metrics(c3, l3, r3).varsigma_star == pytest.approx(base * 2.0, rel=1e-12)


def test_bs_queue_binds(queue_model):
    cfg, (states, loads, rates) = queue_model
    m = queue_metrics(cfg, loads, rates)
    assert m.binding_node == "bs"
    rulers = dict(zip(("d2d", "relay", "bs", "local"), m.rulers))
    assert rulers["bs"] > rulers["relay"] > rulers["d2d"]


def test_baseline_structure(cfg):
    states = baseline_state_matrix(cfg)
    assert states.d.sum() == pytest.approx(1.0, abs=1e-14)
    assert (states.d[:, 0] == 0.0).all() and (states.d[:, 3] == 0.0).all()
    assert states.d[1, 1] > 0.0 and states.d[0, 2] > 0.0  # relay always backhauled
    m = queue_metrics(cfg, *baseline_model(cfg)[1:])
    assert m.rulers[0] == 0.0 and m.rulers[3] == 0.0
    assert m.n_node[0] == 0.0 and m.n_node[3] == 0.0


def test_caching_gain_positive_and_monotone(cfg_queue):
    g_low = throughput_gain(cfg_queue.with_updates(gamma=0.8))
    g_high = throughput_gain(cfg_queue.with_updates(gamma=1.8))
    assert g_low["gain"] > 0.0
    assert g_high["gain"] > g_low["gain"]


def test_gain_monotone_in_gamma_with_sign_change(cfg_queue):
    # uniform popularity makes the small caches useless, so caching can lose;
    # skew flips the sign and keeps improving
    gains = [throughput_gain(cfg_queue.with_updates(gamma=g))["gain"]
             for g in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)]
    assert gains[0] < 0.0
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert gains[2] > 0.0


def test_ctmc_zero_arrivals_stays_at_origin(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.0, mu=1.0)
    trace = ctmc_simulate(cfg, loads, rates, 3, horizon=10.0, seed=0)
    assert (trace.states == 0).all()
    assert trace.time_average.sum() == 0.0


def test_ctmc_jumps_are_unit_single_class(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.6, mu=1.0)
    trace = ctmc_simulate(cfg, loads, rates, 3, horizon=200.0, seed=3)
    diffs = np.diff(trace.states, axis=0)
    assert (np.abs(diffs).sum(axis=1) == 1).all()
    assert (trace.states >= 0).all()


def test_ctmc_matches_mm1_ps_mean(cfg):
    # stationary mean rho/(1-rho) = 1.5 at rho = 0.6
    loads, rates = _single_class_model(cfg, zeta=0.6, mu=1.0)
    vals = []
    for seed in range(20):
        trace = ctmc_simulate(cfg, loads, rates, 3, horizon=3000.0, seed=seed,
                              warmup=300.0)
        vals.append(trace.time_average.sum())
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - 1.5) < 1.96 * se + 1e-9


def test_ctmc_stability_dichotomy(cfg):
    stable_loads, rates = _single_class_model(cfg, zeta=0.8, mu=1.0)
    tr = ctmc_simulate(cfg, stable_loads, rates, 3, horizon=2000.0, seed=5)
    assert tr.time_average.sum() < 20.0
    unstable_loads, rates = _single_class_model(cfg, zeta=1.2, mu=1.0)
    tr = ctmc_simulate(cfg, unstable_loads, rates, 3, horizon=2000.0, seed=5)
    assert tr.slot_average(0.2)[1][-1] > 100.0  # linear growth at 20% overload


def test_ctmc_origin_start_sits_below_analytic(queue_model):
    cfg, (states, loads, rates) = queue_model
    m = queue_metrics(cfg, loads, rates)
    analytic = m.n_class[:, 0].sum()
    est = np.mean([ctmc_simulate(cfg, loads, rates, 1, horizon=50.0, seed=s).time_average.sum()
                   for s in range(100)])
    assert est <= analytic  # warmup-free finite horizon biases downward


def test_ctmc_domain_errors(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.5, mu=1.0)
    with pytest.raises(ValueError):
        ctmc_simulate(cfg, loads, rates, 3, horizon=0.0, seed=0)
    with pytest.raises(ValueError):
        ctmc_simulate(cfg, loads, rates, 5, horizon=1.0, seed=0)
    with pytest.raises(ValueError):
        ctmc_simulate(cfg, loads, rates, 3, horizon=1.0, seed=0, warmup=2.0)


@pytest.mark.parametrize("build,field", [
    (lambda a: RateMatrix(a), "RateMatrix.a"),
    (lambda a: QueueClassLoad(np.zeros((8, 4)), np.zeros((8, 4)), a, (1.0,) * 4), "QueueClassLoad.sigma"),
], ids=["RateMatrix", "QueueClassLoad"])
def test_model_arrays_reject_wrong_shape_or_negative_entry(build, field):
    # one 8x4 check for every class-by-node array; the message names the field
    with pytest.raises(ValueError, match=rf"{field} must be 8x4, got shape \(4, 8\)"):
        build(np.zeros((4, 8)))
    negative = np.zeros((8, 4))
    negative[2, 1] = -1.0
    with pytest.raises(ValueError, match=rf"{field} entries must be non-negative"):
        build(negative)


@pytest.mark.parametrize("slot", [0.0, -0.2, math.nan])
def test_slot_average_rejects_bad_slot(cfg, slot):
    loads, rates = _single_class_model(cfg, zeta=0.5, mu=1.0)
    trace = ctmc_simulate(cfg, loads, rates, 3, horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="slot"):
        trace.slot_average(slot)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
def test_ctmc_rejects_bad_horizon_before_simulating(cfg, monkeypatch, horizon):
    # an infinite horizon would never end the loop
    loads, rates = _single_class_model(cfg, zeta=0.5, mu=1.0)

    def no_draws(seed):
        raise AssertionError("the simulation started")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="simulation horizon"):
        ctmc_simulate(cfg, loads, rates, 3, horizon=horizon, seed=0)


def _ctmc_loop(cfg, loads, rates, node_type, horizon, seed, slot=0.2, warmup=0.0):
    """Per-event walk that re-sums the resident count and rebuilds the
    departure weights on every event: the reference for ctmc_simulate.
    Returns times, states, time_average, slot_times and slot_occupancy."""
    j = node_type - 1
    zeta = loads.zeta[:, j]
    mu = rates.a[:, j] / (cfg.content_size_s * cfg.varrho_inv)
    classes = [int(i) for i in np.flatnonzero(zeta > 0.0)]
    lam = [float(zeta[i]) for i in classes]
    rate = [float(mu[i]) for i in classes]
    x = [0] * len(classes)
    arrival_total = sum(lam)
    rng = np.random.default_rng(seed)
    t = 0.0
    times = [0.0]
    jumps = []
    k = _DRAW_BLOCK
    while arrival_total > 0.0:
        if k == _DRAW_BLOCK:
            holds = rng.standard_exponential(_DRAW_BLOCK).tolist()
            picks = rng.random(_DRAW_BLOCK).tolist()
            k = 0
        total = sum(x)
        dep = [m * n for m, n in zip(rate, x)]
        out_rate = arrival_total + (sum(dep) / total if total else 0.0)
        t += holds[k] / out_rate
        if t >= horizon:
            break
        target = picks[k] * out_rate
        k += 1
        if target < arrival_total:
            c = _pick(lam, target)
            x[c] += 1
            jumps.append(classes[c])
        else:
            c = _pick(dep, (target - arrival_total) * total)
            x[c] -= 1
            jumps.append(8 + classes[c])
        times.append(t)
    times = np.asarray(times)
    states = np.zeros((len(times), 8), dtype=np.int64)
    for r, code in enumerate(jumps, start=1):
        states[r] = states[r - 1]
        states[r, code % 8] += 1 if code < 8 else -1
    return (times, states, _time_average(times, states, horizon, warmup),
            *_slot_average(times, states.sum(axis=1), horizon, slot))


def _ctmc_reference_queues():
    fig6 = fig6_config()
    _, loads, rates = network_model(fig6)
    base = NetworkConfig()
    return {
        "bs": (fig6, loads, rates, dict(node_type=3, horizon=20000.0, warmup=1000.0)),
        "d2d": (fig6, loads, rates, dict(node_type=1, horizon=1000.0)),
        "mm1": (base, *_single_class_model(base, zeta=0.6, mu=1.0),
                dict(node_type=3, horizon=3000.0, warmup=300.0)),
        "overloaded": (base, *_single_class_model(base, zeta=1.2, mu=1.0),
                       dict(node_type=3, horizon=2000.0)),
    }


@pytest.mark.parametrize("name", ["bs", "d2d", "mm1", "overloaded"])
def test_ctmc_matches_per_event_loop(name):
    cfg, loads, rates, args = _ctmc_reference_queues()[name]
    if name == "bs":
        assert (loads.zeta[:, 2] > 0.0).sum() == 3
    for seed in (0, 1, 2):
        trace = ctmc_simulate(cfg, loads, rates, seed=seed, **args)
        want = _ctmc_loop(cfg, loads, rates, seed=seed, **args)
        got = (trace.times, trace.states, trace.time_average, *trace.slot_average(0.2))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_ctmc_builds_slot_averages_once_and_only_when_read(cfg, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _slot_average(*args)

    monkeypatch.setattr(queueing, "_slot_average", counted)
    loads, rates = _single_class_model(cfg, zeta=0.6, mu=1.0)
    trace = ctmc_simulate(cfg, loads, rates, 3, horizon=200.0, seed=3)
    assert trace.time_average.sum() > 0.0
    assert calls == []
    first = trace.slot_average(0.2)
    assert len(calls) == 1
    second = trace.slot_average(0.2)
    assert len(calls) == 2
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_ctmc_deterministic(cfg):
    loads, rates = _single_class_model(cfg, zeta=0.6, mu=1.0)
    a = ctmc_simulate(cfg, loads, rates, 3, horizon=2000.0, seed=9)
    b = ctmc_simulate(cfg, loads, rates, 3, horizon=2000.0, seed=9)
    assert len(a.times) > 2 * _DRAW_BLOCK  # the random draws were refilled
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.slot_average(0.2)[1], b.slot_average(0.2)[1])


def _slot_average_loop(times, totals, horizon, slot):
    """Per-slot walk over the path's segments: the reference for _slot_average."""
    edges = np.arange(0.0, horizon + slot, slot)
    edges[-1] = min(edges[-1], horizon)
    if edges[-1] <= edges[-2]:
        edges = edges[:-1]
    averages = np.empty(len(edges) - 1)
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        idx = np.searchsorted(times, lo, side="right") - 1
        acc = 0.0
        t = lo
        while idx < len(times) and t < hi:
            t_next = times[idx + 1] if idx + 1 < len(times) else hi
            seg_end = min(t_next, hi)
            acc += totals[idx] * (seg_end - t)
            t = seg_end
            idx += 1
        averages[k] = acc / (hi - lo)
    return edges[:-1], averages


def _random_path(rng, n_events, horizon):
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, horizon, n_events))))
    states = np.zeros((n_events + 1, 8), dtype=np.int64)
    for r in range(1, n_events + 1):
        states[r] = states[r - 1]
        cls = rng.integers(8)
        states[r, cls] += 1 if states[r, cls] == 0 or rng.random() < 0.55 else -1
    return times, states


@pytest.mark.parametrize("n_events,horizon,slot", [
    (300, 50.0, 0.2),    # a multiple of the slot
    (300, 50.07, 0.2),   # a short last slot
    (5, 0.13, 0.2),      # shorter than one slot
    (0, 7.3, 0.5),       # no events
    (2000, 40.0, 1.0),   # several events per slot
])
def test_slot_average_matches_per_slot_loop(n_events, horizon, slot):
    times, states = _random_path(np.random.default_rng(n_events), n_events, horizon)
    totals = states.sum(axis=1)
    got_t, got = _slot_average(times, totals, horizon, slot)
    ref_t, ref = _slot_average_loop(times, totals, horizon, slot)
    assert np.array_equal(got_t, ref_t)
    np.testing.assert_allclose(got, ref, rtol=1e-9)
    assert (got >= 0.0).all()


def _time_average_loop(times, states, horizon, warmup):
    """Per-event accumulation of x * overlap with [warmup, horizon]."""
    acc = np.zeros(states.shape[1])
    for r in range(len(times)):
        t_next = times[r + 1] if r + 1 < len(times) else horizon
        acc += states[r] * max(0.0, t_next - max(times[r], warmup))
    return acc / (horizon - warmup)


def test_time_average_matches_per_event_accumulation(queue_model):
    qcfg, (_, loads, rates) = queue_model
    trace = ctmc_simulate(qcfg, loads, rates, 3, horizon=300.0, seed=4, warmup=40.0)
    assert (trace.states.sum(axis=0) > 0).sum() > 1  # several classes move
    np.testing.assert_allclose(trace.time_average,
                               _time_average_loop(trace.times, trace.states, 300.0, 40.0),
                               rtol=1e-12, atol=1e-15)
    times, states = _random_path(np.random.default_rng(1), 500, 60.0)
    np.testing.assert_allclose(_time_average(times, states, 60.0, 9.0),
                               _time_average_loop(times, states, 60.0, 9.0),
                               rtol=1e-12, atol=1e-15)


def test_pick_follows_cumulative_weights():
    assert _pick([0.5, 0.0, 1.0], 0.0) == 0
    assert _pick([0.5, 0.0, 1.0], 0.5) == 2
    assert _pick([0.5, 0.0, 1.0], 1.4999) == 2
    # rounding past the total falls back to the last positive weight
    assert _pick([0.5, 1.0, 0.0], 1.5) == 1


def test_baseline_model_rates_all_backhauled(cfg):
    states, loads, rates = baseline_model(cfg)
    assert rates.a[1, 1] > 0.0
    assert rates.a[0, 1] == 0.0  # relay column only in the backhaul row
    assert rates.a[0, 2] > 0.0
    # relay service carries the backhaul penalty relative to the BS rate shape
    assert rates.a[1, 1] < rates.a[0, 2]


@pytest.mark.parametrize("kappa", [0.5, 0.8, 0.95])
def test_baseline_model_is_gamma_independent(kappa):
    # without cache-enabled users there is no D2D tier and no user cache, so
    # the popularity skew reaches nothing of the baseline
    cfg = fig6_config().with_updates(backhaul_kappa=kappa)
    ref_states, ref_loads, ref_rates = baseline_model(cfg.with_updates(gamma=0.0))
    for gamma in (0.8, 1.8):
        states, loads, rates = baseline_model(cfg.with_updates(gamma=gamma))
        assert np.array_equal(states.d, ref_states.d)
        for name in ("n", "zeta", "sigma"):
            assert np.array_equal(getattr(loads, name), getattr(ref_loads, name)), name
        assert loads.node_densities == ref_loads.node_densities
        assert np.array_equal(rates.a, ref_rates.a)
