"""The experiment registry: one record per subcommand and per figure preset.

An ``Experiment`` holds the function that computes an experiment's columns,
rows and metadata from a config and its flags' values, its help text, its
default config, its own command-line flags and, for a subcommand, the
presets it accepts.  ``cli`` generates its parser from ``COMMANDS``, and
``run_preset`` runs a record of ``PRESETS``; ``steady`` names one of each,
with different outputs, hence two tables (``steady`` and ``steady-steady``
on the command line).  ``fig3b`` defaults to the low-power D2D set
(P1 = 13 dBm) and the queueing presets to ``fig6_config()``.

Each numeric flag's domain is its argparse ``type``, made by ``flag_type``,
which calls the library's own check where there is one; argparse then names
the flag of a bad value.  An experiment checks only what ties two of its
flags together: ``sinr-cdf``'s ``--tau-min`` above ``--tau-max`` or a grid
of more than ``_MAX_GRID_POINTS`` thresholds, a ``sweep`` grid that is not
strictly increasing or a bound that the swept field rejects, a repeated
``--tau-db`` of ``outage`` or ``simulate``.  ``sweep --var`` takes every
float field of ``NetworkConfig`` but ``nu`` and ``bias``, which are fixed.
Only the two simulators draw random numbers, so ``--seed`` is a flag of
``simulate`` (the Monte Carlo oracle) and of its ``fig7`` preset (the CTMC
trace) alone; every other experiment takes no seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .association import (
    STATE_COLUMNS,
    STATE_ROWS,
    active_d2d_density,
    first_association_probability,
    state_matrix,
)
from .config import NetworkConfig, db_to_linear, dbm_to_watts, fig6_config
from .montecarlo import check_window, run_monte_carlo
from .queueing import baseline_model, ctmc_simulate, network_model, queue_metrics
from .rates import case_rate_table, radio_cases, rate_case1, rate_case2, rate_case3, sinr_cdf

Table = tuple[list[str], list[dict], dict]


@dataclass(frozen=True)
class Experiment:
    """``run(cfg, **params) -> (columns, rows, meta)``; ``flags`` are argparse
    ``(flag, kwargs)`` pairs whose destinations are exactly the ``params``.
    A preset's flags are the flags of its subcommand that it reads."""

    run: Callable[..., Table]
    help: str
    config: Callable[[], NetworkConfig] = NetworkConfig
    flags: tuple[tuple[str, dict], ...] = ()
    presets: tuple[str, ...] = ()


@dataclass(frozen=True)
class PresetResult:
    name: str
    columns: list[str]
    rows: list[dict]
    meta: dict


def _rulers(values) -> dict[str, float]:
    return {n: float(r) for n, r in zip(STATE_COLUMNS, values)}


def _steady_state(cfg: NetworkConfig, model=network_model):
    """Class loads, service rates and steady-state metrics of a queueing
    model (``network_model`` or ``baseline_model``) under ``cfg``."""
    _, loads, rates = model(cfg)
    return loads, rates, queue_metrics(cfg, loads, rates)


def _metrics(cfg: NetworkConfig, model=network_model):
    return _steady_state(cfg, model)[2]


def _critical_rate(metrics) -> dict:
    """The maximum arrival rate and the node type whose queue caps it."""
    return {"varsigma_star": metrics.varsigma_star, "binding_node": metrics.binding_node}


def _queue_rows(cfg: NetworkConfig, model) -> tuple[list[dict], np.ndarray]:
    """One row per loaded (class, node) of a queueing model, plus its rulers."""
    loads, rates, metrics = _steady_state(cfg, model)
    rows = [
        {
            "class_row": i + 1, "node": node,
            "arrival_rate": float(loads.zeta[i, j]),
            "service_rate": float(rates.a[i, j]),
            "mean_requests": float(metrics.n_class[i, j]),
            "throughput_per_request": float(metrics.t_class[i, j]),
            "delay": float(metrics.d_class[i, j]),
        }
        for i in range(len(STATE_ROWS))
        for j, node in enumerate(STATE_COLUMNS)
        if loads.sigma[i, j] != 0.0
    ]
    return rows, metrics.rulers


def _cdf_rows(cfg: NetworkConfig, taus_db, column: str) -> list[dict]:
    """SINR CDF at BS serving of each case in ``radio_cases``, one row per
    (tau, case)."""
    cdf = _cdf_columns(cfg, radio_cases(cfg), taus_db)
    return [
        {"tau_db": tau_db, "case": case_id, column: values[i]}
        for i, tau_db in enumerate(taus_db)
        for case_id, values in cdf.items()
    ]


def _cdf_columns(cfg: NetworkConfig, cases, taus_db) -> dict[int, list[float]]:
    """SINR CDF at BS serving of each case over a dB grid, one coverage pass
    per case; each threshold is ``db_to_linear`` of a float, as in a
    one-threshold call, so the values are the same bits."""
    taus = [db_to_linear(t) for t in taus_db]
    return {case_id: sinr_cdf(cfg, case_id, 3, taus).tolist() for case_id in cases}


def association(cfg: NetworkConfig) -> Table:
    states = state_matrix(cfg)
    columns = ["case", "backhaul", "node", "probability"]
    rows = [
        {"case": case, "backhaul": bh, "node": node,
         "probability": float(states.d[i, j])}
        for i, (case, bh) in enumerate(STATE_ROWS)
        for j, node in enumerate(STATE_COLUMNS)
    ]
    return columns, rows, {}


def d2d_density(cfg: NetworkConfig, points: int) -> Table:
    act0 = active_d2d_density(cfg)
    columns = ["alpha", "lambda1_active"]
    rows = []
    for alpha in np.linspace(0.0, 0.99, points):
        act = active_d2d_density(cfg.with_updates(alpha=float(alpha)))
        rows.append({"alpha": float(alpha), "lambda1_active": act.lambda1_active})
    meta = {"alpha_star": act0.alpha_star, "alpha_hat": act0.alpha_hat}
    return columns, rows, meta


def rate(cfg: NetworkConfig) -> Table:
    table = case_rate_table(cfg)
    columns = ["case", "node", "rate_nats"]
    rows = [
        {"case": m + 1, "node": node, "rate_nats": float(row[j])}
        for m, row in enumerate(table) for j, node in enumerate(STATE_COLUMNS) if row[j] > 0.0
    ]
    return columns, rows, {"local_rate": cfg.local_rate_ul}


def outage(cfg: NetworkConfig, tau_db: list[float]) -> Table:
    if len(set(tau_db)) != len(tau_db):  # one row per (threshold, case)
        raise ValueError("outage thresholds must be distinct")
    return ["tau_db", "case", "outage"], _cdf_rows(cfg, tau_db, "outage"), {}


# each threshold adds ~3.2 KB to a run's peak (41 peak at 56 MiB, 20001 at 119 MiB),
# so this many take ~0.3 GB; a --tau-step of 1e-9 asked numpy for 298 GiB
_MAX_GRID_POINTS = 100_000


def sinr_cdf_curves(cfg: NetworkConfig, tau_min: float, tau_max: float, tau_step: float) -> Table:
    try:  # numpy refuses a zero or infinite step; a grid too large is never built
        fits = tau_min <= tau_max and (tau_max - tau_min) / tau_step + 0.5 <= _MAX_GRID_POINTS
        grid = np.arange(tau_min, tau_max + 0.5 * tau_step, tau_step) if fits else ()
    except (ValueError, ZeroDivisionError):
        grid = ()
    if len(grid) == 0:
        raise ValueError("SINR CDF grid needs --tau-min <= --tau-max and at most "
                         f"{_MAX_GRID_POINTS} points; got --tau-min {tau_min}, "
                         f"--tau-max {tau_max}, --tau-step {tau_step}")
    taus_db = [float(t) for t in grid]
    return ["tau_db", "case", "cdf"], _cdf_rows(cfg, taus_db, "cdf"), {}


def queue(cfg: NetworkConfig) -> Table:
    rows, rulers = _queue_rows(cfg, network_model)
    columns = ["class_row", "node", "arrival_rate", "service_rate",
               "mean_requests", "throughput_per_request", "delay"]
    return columns, rows, {"rulers": _rulers(rulers)}


def steady(cfg: NetworkConfig) -> Table:
    metrics = _metrics(cfg)
    rows = [{"node": n, "ruler": r} for n, r in _rulers(metrics.rulers).items()]
    return ["node", "ruler"], rows, _critical_rate(metrics)


def baseline_compare(cfg: NetworkConfig) -> Table:
    columns = ["model", "node", "ruler", "varsigma_star"]
    cached, base = _metrics(cfg), _metrics(cfg, baseline_model)
    rows = [{"model": model_name, "node": n, "ruler": r, "varsigma_star": metrics.varsigma_star}
            for model_name, metrics in (("cached", cached), ("baseline", base))
            for n, r in _rulers(metrics.rulers).items()]
    return columns, rows, cached.gain_over(base)


def simulate(cfg: NetworkConfig, seed: int, topologies: int, window: float,
             tau_db: list[float]) -> Table:
    """The oracle's rate and outage estimates per case, ``tau_db`` as given.
    ``meta`` holds the association fractions and, under ``reference_rows``,
    the reference users measured per (case, serving tier), summed over the
    topologies (keys ``case1_tier1`` ... ``case3_tier3``)."""
    taus = tuple(db_to_linear(t) for t in tau_db)
    summary = run_monte_carlo(cfg, n_topologies=topologies, seed=seed, window=window,
                              tau_grid=taus)
    db_of = dict(zip(taus, tau_db))  # each threshold's dB value as given
    columns = ["quantity", "case", "tau_db", "value", "std_error", "n_samples"]

    def row(quantity, case_id, db, est):
        return {"quantity": quantity, "case": case_id, "tau_db": db,
                "value": est.value, "std_error": est.std_error, "n_samples": est.n_samples}

    rows = [row("rate_nats", c, math.nan, e) for c, e in sorted(summary.rates.items())]
    rows += [row("outage", c, db_of[t], e) for (c, t), e in sorted(summary.outage.items())]
    meta = {k: {"value": e.value, "std_error": e.std_error}
            for k, e in summary.association.items()}
    meta["reference_rows"] = {f"case{c}_tier{t}": n for (c, t), n in summary.reference_rows.items()}
    return columns, rows, meta


_SWEEP_QUANTITIES = {
    "varsigma_star": lambda c, tau_db: _metrics(c).varsigma_star,
    "rate_case1": lambda c, tau_db: rate_case1(c, 3).value,
    "outage_case1": lambda c, tau_db: sinr_cdf(c, 1, 3, db_to_linear(tau_db)),
}


def sweep(cfg: NetworkConfig, var: str, start: float, stop: float, num: int,
          quantity: str, tau_db: float) -> Table:
    grid = np.linspace(start, stop, num)
    if len(grid) > 1 and grid[1] <= grid[0]:
        raise ValueError("sweep grid must be strictly increasing; got "
                         f"--start {start}, --stop {stop}, --num {num}")
    measure = _SWEEP_QUANTITIES[quantity]
    rows = [{var: float(v), quantity: float(measure(cfg.with_updates(**{var: float(v)}), tau_db))}
            for v in grid]
    return [var, quantity], rows, {"variable": var, "quantity": quantity}


def fig2(cfg: NetworkConfig) -> Table:
    columns = ["gamma", "case1", "case2", "case3", "case4", "g1", "g2", "g3"]
    rows = []
    g = {f"g{i}": first_association_probability(cfg, i) for i in (1, 2, 3)}
    for gamma in np.arange(0.2, 2.01, 0.1):
        gamma = round(float(gamma), 10)
        states = state_matrix(cfg.with_updates(gamma=gamma))
        rows.append({
            "gamma": gamma,
            **{f"case{c}": states.case_probability(c) for c in (1, 2, 3, 4)},
            **g,
        })
    return columns, rows, {}


def rate_sweep(cfg: NetworkConfig) -> Table:
    act0 = active_d2d_density(cfg)
    columns = ["alpha", "rate_case1", "rate_case2", "rate_case3", "lambda1_active"]
    rows = []
    for alpha in _FIG_ALPHAS:
        c = cfg.with_updates(alpha=alpha)
        rows.append({
            "alpha": alpha,
            **{f"rate_case{k}": f(c, 3).value
               for k, f in enumerate((rate_case1, rate_case2, rate_case3), 1)},
            "lambda1_active": active_d2d_density(c).lambda1_active,
        })
    meta = {"alpha_star": act0.alpha_star, "alpha_hat": act0.alpha_hat}
    return columns, rows, meta


def fig4(cfg: NetworkConfig) -> Table:
    columns = ["alpha", "tau_db", "outage_case1", "outage_case2", "outage_case3"]
    cdf = [_cdf_columns(cfg.with_updates(alpha=alpha), (1, 2, 3), _PAPER_TAUS_DB)
           for alpha in _FIG_ALPHAS]
    rows = [
        {"alpha": alpha, "tau_db": tau_db,
         **{f"outage_case{k}": values[i] for k, values in by_case.items()}}
        for i, tau_db in enumerate(_PAPER_TAUS_DB)
        for alpha, by_case in zip(_FIG_ALPHAS, cdf)
    ]
    return columns, rows, {}


def fig5(cfg: NetworkConfig) -> Table:
    columns = ["tau_db", "alpha", "cdf_case1", "cdf_case2", "cdf_case3"]
    taus_db = [float(t) for t in np.arange(-20.0, 20.5, 1.0)]
    rows = []
    for alpha in (0.05, 0.10):
        cdf = _cdf_columns(cfg.with_updates(alpha=alpha), (1, 2, 3), taus_db)
        rows += [
            {"tau_db": tau_db, "alpha": alpha,
             **{f"cdf_case{k}": values[i] for k, values in cdf.items()}}
            for i, tau_db in enumerate(taus_db)
        ]
    return columns, rows, {}


def fig6(cfg: NetworkConfig) -> Table:
    columns = ["model", "class_row", "node", "throughput_per_request", "mean_requests", "delay"]
    rows = [
        {"model": model_name, **{c: row[c] for c in columns[1:]}}
        for model_name, model in (("cached", network_model), ("baseline", baseline_model))
        for row in _queue_rows(cfg, model)[0]
    ]
    return columns, rows, {"config": cfg.to_flat_dict()}


def fig7(cfg: NetworkConfig, seed: int) -> Table:
    horizon = 1000.0
    loads, rates, metrics = _steady_state(cfg)
    analytic = float(metrics.n_class[:, 0].sum())
    trace = ctmc_simulate(cfg, loads, rates, node_type=1, horizon=horizon, seed=seed)
    columns = ["slot_time", "occupancy", "analytic_mean"]
    slot_times, occupancy = trace.slot_average(0.2)
    rows = [{"slot_time": t, "occupancy": o, "analytic_mean": analytic}
            for t, o in zip(slot_times.tolist(), occupancy.tolist())]
    meta = {
        "simulated_mean": float(trace.time_average.sum()),
        "analytic_mean": analytic,
        "seed": seed,
        "horizon": horizon,
    }
    return columns, rows, meta


def steady_gains(cfg: NetworkConfig) -> Table:
    columns = ["gamma", "kappa", "varsigma_star_cached", "varsigma_star_baseline",
               "gain", "target_gain"]
    targets = {0.8: 0.133, 1.8: 0.573}
    # the baseline has no cache-enabled users, so gamma does not reach it
    base = {kappa: _metrics(cfg.with_updates(backhaul_kappa=kappa), baseline_model)
            for kappa in (0.5, 0.8, 0.95)}
    cached = {(gamma, kappa): _metrics(cfg.with_updates(gamma=gamma, backhaul_kappa=kappa))
              for gamma in (0.8, 1.8) for kappa in base}
    rows = [
        {"gamma": gamma, "kappa": kappa, **metrics.gain_over(base[kappa]),
         "target_gain": targets[gamma] if kappa == 0.8 else math.nan}
        for (gamma, kappa), metrics in cached.items()
    ]
    # where cfg's own (gamma, kappa) is a row, the meta reads that row's model
    own = (cfg.gamma, cfg.backhaul_kappa)
    metrics = cached[own] if own in cached else _metrics(cfg)
    return columns, rows, {"rulers": _rulers(metrics.rulers), **_critical_rate(metrics)}


def flag_type(parse: Callable[[str], object], rule: Callable[[object], bool], domain: str):
    """An argparse ``type``: parse the flag's text and keep a value where ``rule`` holds, else
    fail with "must be <domain>, got <text>", also for a text that ``parse`` rejects, or with
    the ``ValueError`` of a library check that ``rule`` calls."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:  # a text that does not parse lies outside the domain too
            value = None
        try:
            if value is not None and rule(value):
                return value
        except ValueError as exc:
            message = str(exc)
        else:
            message = f"must be {domain}, got {text}"
        import argparse  # only a bad value needs it; cli imports it for the parser
        raise argparse.ArgumentTypeError(message) from None
    return convert


_COUNT = flag_type(int, lambda n: n >= 1, "an integer >= 1")
_FINITE = flag_type(float, math.isfinite, "a finite number")
# a threshold in dB: sinr_cdf takes a finite ratio only, the Monte Carlo oracle also inf
_FINITE_DB = flag_type(float, lambda x: db_to_linear(x) < math.inf, "a dB value of finite ratio")
# the caching fractions of the Fig. 3 and Fig. 4 axis, and the paper's two SINR thresholds
_FIG_ALPHAS = tuple(float(a) for a in np.linspace(0.02, 0.6, 30))
_PAPER_TAUS_DB = (-10.0, -5.0)
_TAU_DB = dict(nargs="+", default=list(_PAPER_TAUS_DB))
_SEED = ("--seed", dict(type=flag_type(int, lambda n: n >= 0, "a non-negative integer"), default=0))
_SWEEP_VARS = tuple(f.name for f in fields(NetworkConfig)
                    if isinstance(f.default, float) and f.name not in ("nu", "bias"))

COMMANDS: dict[str, Experiment] = {
    "association": Experiment(association, "user-state probabilities", presets=("fig2",)),
    "d2d-density": Experiment(d2d_density, "active D2D density versus alpha",
                              flags=(("--points", dict(type=_COUNT, default=50)),)),
    "rate": Experiment(rate, "analytic case rates", presets=("fig3a", "fig3b")),
    "outage": Experiment(outage, "analytic outage probabilities", presets=("fig4",),
                         flags=(("--tau-db", dict(_TAU_DB, type=_FINITE_DB)),)),
    "sinr-cdf": Experiment(sinr_cdf_curves, "SINR CDF curves", presets=("fig5",), flags=(
        ("--tau-min", dict(type=_FINITE, default=-20.0)),
        ("--tau-max", dict(type=_FINITE, default=20.0)),
        ("--tau-step", dict(default=1.0, type=flag_type(
            float, lambda x: 0.0 < x < math.inf, "a positive, finite number"))),
    )),
    "queue": Experiment(queue, "queueing metrics per class and node", presets=("fig6",)),
    "steady": Experiment(steady, "steady rulers and critical arrival rate", presets=("steady",)),
    "baseline-compare": Experiment(baseline_compare, "cached network versus no-caching baseline"),
    "simulate": Experiment(simulate, "Monte Carlo spatial simulation / CTMC trace",
                           presets=("fig7",), flags=(
        _SEED,
        ("--topologies", dict(type=_COUNT, default=200)),
        ("--window", dict(default=2000.0, type=flag_type(
            float, lambda w: check_window(w) is None, "a window side"))),
        ("--tau-db", dict(_TAU_DB, type=flag_type(
            float, lambda x: db_to_linear(x) >= 0.0, "a dB value"))),
    )),
    "sweep": Experiment(sweep, "sweep one config variable", flags=(
        ("--var", dict(required=True, choices=_SWEEP_VARS)),
        ("--start", dict(type=_FINITE, required=True)),
        ("--stop", dict(type=_FINITE, required=True)),
        ("--num", dict(type=_COUNT, default=20)),
        ("--quantity", dict(choices=tuple(_SWEEP_QUANTITIES), default="rate_case1")),
        ("--tau-db", dict(type=_FINITE_DB, default=-10.0)),
    )),
}

PRESETS: dict[str, Experiment] = {
    "fig2": Experiment(fig2, "association/state probabilities versus the popularity skew"),
    "fig3a": Experiment(rate_sweep, "case rates and active-D2D density versus alpha"),
    "fig3b": Experiment(rate_sweep, "the fig3a sweep on the low-power D2D set (P1 = 13 dBm)",
                        lambda: NetworkConfig(p1=dbm_to_watts(13.0))),
    "fig4": Experiment(fig4, "outage versus alpha at tau in {-10, -5} dB for cases 1..3"),
    "fig5": Experiment(fig5, "SINR CDF curves over a dB grid at alpha = 0.05 and 0.10"),
    "fig6": Experiment(fig6, "per-class queue metrics, cached versus baseline", fig6_config),
    "fig7": Experiment(fig7, "CTMC occupancy trace of the D2D-transmitter queue", fig6_config,
                       flags=(_SEED,)),
    "steady": Experiment(steady_gains, "critical-rate gains over the baseline", fig6_config),
}

PRESET_NAMES = tuple(PRESETS)


def run_preset(name: str, cfg: NetworkConfig | None = None, seed: int = 0) -> PresetResult:
    """Run a preset on ``cfg``, or on the preset's default config when None.

    ``seed`` reaches only a preset that declares ``--seed`` (``fig7``); every
    other preset draws nothing, and ignores it."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    exp = PRESETS[name]
    params = {"seed": seed} if _SEED in exp.flags else {}
    return PresetResult(name, *exp.run(cfg if cfg is not None else exp.config(), **params))
