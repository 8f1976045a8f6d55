"""Named experiment presets: one per published figure's data series.

Each preset returns plot-ready rows (plus metadata) that the CLI persists as
CSV + JSON.  All presets run on a desk-scale budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .association import active_d2d_density, first_association_probability, state_matrix, three_tier_spec
from .config import NetworkConfig, fig6_config
from .outage import sinr_cdf
from .queueing import (
    STEADY_NODE_NAMES,
    baseline_model,
    ctmc_simulate,
    network_model,
    queue_metrics,
    steady_ruler,
    throughput_gain,
)
from .rates import rate_case1, rate_case2, rate_case3

PRESET_NAMES = ("fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "steady")


def default_config(name: str) -> NetworkConfig:
    """The config a preset runs on when it is given none: the queueing set
    for the queueing presets, the default set for the others."""
    return fig6_config() if name in ("fig6", "fig7", "steady") else NetworkConfig()


@dataclass(frozen=True)
class PresetResult:
    name: str
    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)


def preset_fig2(cfg: NetworkConfig) -> PresetResult:
    """Association/state probabilities versus the popularity skew."""
    columns = ["gamma", "case1", "case2", "case3", "case4", "g1", "g2", "g3"]
    rows = []
    tiers = three_tier_spec(cfg)
    g = {f"g{i}": first_association_probability(tiers, i) for i in (1, 2, 3)}
    for gamma in np.arange(0.2, 2.01, 0.1):
        states = state_matrix(cfg.with_updates(gamma=round(float(gamma), 10)))
        rows.append({
            "gamma": float(gamma),
            **{f"case{c}": states.case_probability(c) for c in (1, 2, 3, 4)},
            **g,
        })
    return PresetResult("fig2", columns, rows)


def _rate_sweep(cfg: NetworkConfig, name: str) -> PresetResult:
    act0 = active_d2d_density(cfg)
    columns = ["alpha", "rate_case1", "rate_case2", "rate_case3", "lambda1_active"]
    rows = []
    for alpha in np.linspace(0.02, 0.6, 30):
        c = cfg.with_updates(alpha=float(alpha))
        rows.append({
            "alpha": float(alpha),
            "rate_case1": rate_case1(c, 3).value,
            "rate_case2": rate_case2(c, 3).value,
            "rate_case3": rate_case3(c, 3).value,
            "lambda1_active": active_d2d_density(c).lambda1_active,
        })
    meta = {"alpha_star": act0.alpha_star, "alpha_hat": act0.alpha_hat}
    return PresetResult(name, columns, rows, meta)


def preset_fig3a(cfg: NetworkConfig) -> PresetResult:
    """Case rates and active-D2D density versus alpha, default power set."""
    return _rate_sweep(cfg, "fig3a")


def preset_fig3b(cfg: NetworkConfig) -> PresetResult:
    """Same sweep with the low-power D2D set (P1 = 13 dBm)."""
    return _rate_sweep(cfg.with_updates(p1=10 ** (13 / 10) * 1e-3), "fig3b")


def preset_fig4(cfg: NetworkConfig) -> PresetResult:
    """Outage versus alpha at tau in {-10, -5} dB for cases 1..3."""
    columns = ["alpha", "tau_db", "outage_case1", "outage_case2", "outage_case3"]
    rows = []
    for tau_db in (-10.0, -5.0):
        tau = 10 ** (tau_db / 10.0)
        for alpha in np.linspace(0.02, 0.6, 30):
            c = cfg.with_updates(alpha=float(alpha))
            rows.append({
                "alpha": float(alpha),
                "tau_db": tau_db,
                "outage_case1": sinr_cdf(c, 1, 3, tau),
                "outage_case2": sinr_cdf(c, 2, 3, tau),
                "outage_case3": sinr_cdf(c, 3, 3, tau),
            })
    return PresetResult("fig4", columns, rows)


def preset_fig5(cfg: NetworkConfig) -> PresetResult:
    """SINR CDF curves over a dB grid at alpha = 0.05 and 0.10."""
    columns = ["tau_db", "alpha", "cdf_case1", "cdf_case2", "cdf_case3"]
    rows = []
    for alpha in (0.05, 0.10):
        c = cfg.with_updates(alpha=alpha)
        for tau_db in np.arange(-20.0, 20.5, 1.0):
            tau = 10 ** (tau_db / 10.0)
            rows.append({
                "tau_db": float(tau_db),
                "alpha": alpha,
                "cdf_case1": sinr_cdf(c, 1, 3, tau),
                "cdf_case2": sinr_cdf(c, 2, 3, tau),
                "cdf_case3": sinr_cdf(c, 3, 3, tau),
            })
    return PresetResult("fig5", columns, rows)


def preset_fig6(cfg: NetworkConfig) -> PresetResult:
    """Per-class throughput per request, cached network versus baseline."""
    columns = ["model", "class_row", "node", "throughput_per_request", "mean_requests", "delay"]
    rows = []
    for model_name, model in (("cached", network_model(cfg)), ("baseline", baseline_model(cfg))):
        _, loads, rates = model
        metrics = queue_metrics(cfg, loads, rates)
        for i in range(8):
            for j, node in enumerate(STEADY_NODE_NAMES):
                if loads.sigma[i, j] == 0.0:
                    continue
                rows.append({
                    "model": model_name,
                    "class_row": i + 1,
                    "node": node,
                    "throughput_per_request": metrics.t_class[i, j],
                    "mean_requests": metrics.n_class[i, j],
                    "delay": metrics.d_class[i, j],
                })
    return PresetResult("fig6", columns, rows, {"config": cfg.to_flat_dict()})


def preset_fig7(cfg: NetworkConfig, seed: int = 0,
                horizon: float = 1000.0, slot: float = 0.2) -> PresetResult:
    """Slot-averaged occupancy trace of the D2D-transmitter queue, with the
    analytic stationary mean for comparison."""
    _, loads, rates = network_model(cfg)
    metrics = queue_metrics(cfg, loads, rates)
    analytic = float(metrics.n_class[:, 0].sum())
    trace = ctmc_simulate(cfg, loads, rates, node_type=1, horizon=horizon,
                          seed=seed, slot=slot)
    columns = ["slot_time", "occupancy", "analytic_mean"]
    rows = [{"slot_time": float(t), "occupancy": float(o), "analytic_mean": analytic}
            for t, o in zip(trace.slot_times, trace.slot_occupancy)]
    meta = {
        "simulated_mean": float(trace.time_average.sum()),
        "analytic_mean": analytic,
        "seed": seed,
        "horizon": horizon,
    }
    return PresetResult("fig7", columns, rows, meta)


def preset_steady(cfg: NetworkConfig) -> PresetResult:
    """Steady rulers versus the arrival rate plus critical-rate gains over the
    baseline at two popularity skews and a backhaul-penalty sensitivity sweep."""
    columns = ["gamma", "kappa", "varsigma_star_cached", "varsigma_star_baseline",
               "gain", "target_gain"]
    targets = {0.8: 0.133, 1.8: 0.573}
    rows = []
    for gamma in (0.8, 1.8):
        for kappa in (0.5, 0.8, 0.95):
            c = cfg.with_updates(gamma=gamma, backhaul_kappa=kappa)
            g = throughput_gain(c)
            rows.append({
                "gamma": gamma,
                "kappa": kappa,
                "varsigma_star_cached": g["varsigma_star_cached"],
                "varsigma_star_baseline": g["varsigma_star_baseline"],
                "gain": g["gain"],
                "target_gain": targets[gamma] if kappa == 0.8 else math.nan,
            })
    _, loads, rates = network_model(cfg)
    steady = steady_ruler(cfg, loads, rates)
    meta = {
        "rulers": {n: float(r) for n, r in zip(STEADY_NODE_NAMES, steady.rulers)},
        "binding_node": steady.binding_node,
        "varsigma_star": steady.varsigma_star,
    }
    return PresetResult("steady", columns, rows, meta)


def run_preset(name: str, cfg: NetworkConfig | None = None, seed: int = 0) -> PresetResult:
    """Run a preset on ``cfg``, or on the preset's default config when None."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    cfg = cfg if cfg is not None else default_config(name)
    if name == "fig7":
        return preset_fig7(cfg, seed=seed)
    funcs = {
        "fig2": preset_fig2, "fig3a": preset_fig3a, "fig3b": preset_fig3b,
        "fig4": preset_fig4, "fig5": preset_fig5, "fig6": preset_fig6,
        "steady": preset_steady,
    }
    return funcs[name](cfg)
