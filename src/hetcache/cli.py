"""Command-line harness: experiment orchestration and result persistence.

Units at the boundary follow radio conventions (dBm powers, dB thresholds in
flags ending in ``_dbm``/``-db``); everything internal is watts/linear/nats.
Every run writes a CSV table and a JSON envelope with the config echo and
seed, sufficient to reproduce the CSV byte-identically.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .association import STATE_COLUMNS, STATE_ROWS, active_d2d_density, state_matrix
from .config import NetworkConfig, load_config
from .montecarlo import run_monte_carlo
from .outage import sinr_cdf
from .presets import default_config, run_preset
from .queueing import (
    STEADY_NODE_NAMES,
    baseline_model,
    network_model,
    queue_metrics,
    steady_ruler,
    throughput_gain,
)
from .rates import case_rate_table, rate_local
from .results import emit_results


def _add_common(p: argparse.ArgumentParser, presets: tuple[str, ...] = ()) -> None:
    p.add_argument("--config", help="JSON config file (flat keys; *_dbm accepted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results", help="output directory")
    if presets:
        p.add_argument("--preset", choices=presets)


def _base_cfg(args) -> NetworkConfig:
    """The ``--config`` file, else the default of the preset asked for, else
    the default config; the same config is run and echoed."""
    if args.config:
        return load_config(args.config)
    preset = getattr(args, "preset", None)
    return default_config(preset) if preset else NetworkConfig()


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def cmd_association(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    states = state_matrix(cfg)
    columns = ["case", "backhaul", "node", "probability"]
    rows = [
        {"case": case, "backhaul": bh, "node": node,
         "probability": float(states.d[i, j])}
        for i, (case, bh) in enumerate(STATE_ROWS)
        for j, node in enumerate(STATE_COLUMNS)
    ]
    return "association", columns, rows, {}


def cmd_d2d_density(args) -> tuple[str, list[str], list[dict], dict]:
    cfg = _base_cfg(args)
    act0 = active_d2d_density(cfg)
    columns = ["alpha", "lambda1_active"]
    rows = []
    for alpha in np.linspace(0.0, 0.99, args.points):
        act = active_d2d_density(cfg.with_updates(alpha=float(alpha)))
        rows.append({"alpha": float(alpha), "lambda1_active": act.lambda1_active})
    meta = {"alpha_star": act0.alpha_star, "alpha_hat": act0.alpha_hat}
    return "d2d-density", columns, rows, meta


def cmd_rate(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    table = case_rate_table(cfg)
    columns = ["case", "node", "rate_nats"]
    rows = [
        {"case": m + 1, "node": STATE_COLUMNS[j], "rate_nats": float(table[m, j])}
        for m in range(4) for j in range(4) if table[m, j] > 0.0
    ]
    return "rate", columns, rows, {"local_rate": rate_local(cfg).value}


def cmd_outage(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    columns = ["tau_db", "case", "outage"]
    rows = []
    for tau_db in args.tau_db:
        tau = _db_to_linear(tau_db)
        for case_id in (1, 2, 3):
            if case_id > 1 and cfg.alpha == 0.0:
                continue
            rows.append({"tau_db": tau_db, "case": case_id,
                         "outage": sinr_cdf(cfg, case_id, 3, tau)})
    return "outage", columns, rows, {}


def cmd_sinr_cdf(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    columns = ["tau_db", "case", "cdf"]
    rows = []
    for tau_db in np.arange(args.tau_min, args.tau_max + 0.5 * args.tau_step, args.tau_step):
        tau = _db_to_linear(float(tau_db))
        for case_id in (1, 2, 3):
            if case_id > 1 and cfg.alpha == 0.0:
                continue
            rows.append({"tau_db": float(tau_db), "case": case_id,
                         "cdf": sinr_cdf(cfg, case_id, 3, tau)})
    return "sinr-cdf", columns, rows, {}


def cmd_queue(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    _, loads, rates = network_model(cfg)
    metrics = queue_metrics(cfg, loads, rates)
    columns = ["class_row", "node", "arrival_rate", "service_rate",
               "mean_requests", "throughput_per_request", "delay"]
    rows = []
    for i in range(8):
        for j, node in enumerate(STEADY_NODE_NAMES):
            if loads.sigma[i, j] == 0.0:
                continue
            rows.append({
                "class_row": i + 1, "node": node,
                "arrival_rate": float(loads.zeta[i, j]),
                "service_rate": float(rates.a[i, j]),
                "mean_requests": float(metrics.n_class[i, j]),
                "throughput_per_request": float(metrics.t_class[i, j]),
                "delay": float(metrics.d_class[i, j]),
            })
    meta = {"rulers": {n: float(r) for n, r in zip(STEADY_NODE_NAMES, metrics.steady_ruler)}}
    return "queue", columns, rows, meta


def cmd_steady(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    _, loads, rates = network_model(cfg)
    steady = steady_ruler(cfg, loads, rates)
    columns = ["node", "ruler"]
    rows = [{"node": n, "ruler": float(r)} for n, r in zip(STEADY_NODE_NAMES, steady.rulers)]
    meta = {"varsigma_star": steady.varsigma_star, "binding_node": steady.binding_node}
    return "steady", columns, rows, meta


def cmd_baseline_compare(args) -> tuple[str, list[str], list[dict], dict]:
    cfg = _base_cfg(args)
    gain = throughput_gain(cfg)
    _, loads, rates = network_model(cfg)
    cached = steady_ruler(cfg, loads, rates)
    _, bloads, brates = baseline_model(cfg)
    base = steady_ruler(cfg, bloads, brates)
    columns = ["model", "node", "ruler", "varsigma_star"]
    rows = []
    for model_name, steady in (("cached", cached), ("baseline", base)):
        for n, r in zip(STEADY_NODE_NAMES, steady.rulers):
            rows.append({"model": model_name, "node": n, "ruler": float(r),
                         "varsigma_star": steady.varsigma_star})
    return "baseline-compare", columns, rows, gain


def cmd_simulate(args) -> tuple[str, list[str], list[dict], dict]:
    if args.preset:
        r = run_preset(args.preset, _base_cfg(args), args.seed)
        return r.name, r.columns, r.rows, r.meta
    cfg = _base_cfg(args)
    taus = tuple(_db_to_linear(t) for t in args.tau_db)
    summary = run_monte_carlo(
        cfg, n_topologies=args.topologies, n_fading=args.fading, seed=args.seed,
        window=args.window, boundary=args.boundary, margin=args.margin,
        tau_grid=taus,
    )
    columns = ["quantity", "case", "tau_db", "value", "std_error", "n_samples"]
    rows = []
    for case_id, est in sorted(summary.rates.items()):
        rows.append({"quantity": "rate_nats", "case": case_id, "tau_db": math.nan,
                     "value": est.value, "std_error": est.std_error,
                     "n_samples": est.n_samples})
    for (case_id, tau), est in sorted(summary.outage.items()):
        rows.append({"quantity": "outage", "case": case_id,
                     "tau_db": 10.0 * math.log10(tau),
                     "value": est.value, "std_error": est.std_error,
                     "n_samples": est.n_samples})
    meta = {k: {"value": e.value, "std_error": e.std_error}
            for k, e in summary.association.items()}
    return "simulate", columns, rows, meta


_SWEEP_QUANTITIES = ("varsigma_star", "rate_case1", "outage_case1")


def cmd_sweep(args) -> tuple[str, list[str], list[dict], dict]:
    from .rates import rate_case1

    cfg = _base_cfg(args)
    grid = np.linspace(args.start, args.stop, args.num)
    if len(grid) == 0 or (len(grid) > 1 and grid[1] <= grid[0]):
        raise SystemExit("sweep grid must be non-empty and strictly increasing")
    columns = [args.var, args.quantity]
    rows = []
    for value in grid:
        c = cfg.with_updates(**{args.var: float(value)})
        if args.quantity == "varsigma_star":
            _, loads, rates = network_model(c)
            q = steady_ruler(c, loads, rates).varsigma_star
        elif args.quantity == "rate_case1":
            q = rate_case1(c, 3).value
        else:
            q = sinr_cdf(c, 1, 3, _db_to_linear(args.tau_db))
        rows.append({args.var: float(value), args.quantity: float(q)})
    return "sweep", columns, rows, {"variable": args.var, "quantity": args.quantity}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcache",
        description="Analysis and simulation of a cache-enabled heterogeneous network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("association", help="user-state probabilities")
    _add_common(p, presets=("fig2",))
    p.set_defaults(func=cmd_association)

    p = sub.add_parser("d2d-density", help="active D2D density versus alpha")
    _add_common(p)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_d2d_density)

    p = sub.add_parser("rate", help="analytic case rates")
    _add_common(p, presets=("fig3a", "fig3b"))
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("outage", help="analytic outage probabilities")
    _add_common(p, presets=("fig4",))
    p.add_argument("--tau-db", type=float, nargs="+", default=[-10.0, -5.0])
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser("sinr-cdf", help="SINR CDF curves")
    _add_common(p, presets=("fig5",))
    p.add_argument("--tau-min", type=float, default=-20.0)
    p.add_argument("--tau-max", type=float, default=20.0)
    p.add_argument("--tau-step", type=float, default=1.0)
    p.set_defaults(func=cmd_sinr_cdf)

    p = sub.add_parser("queue", help="queueing metrics per class and node")
    _add_common(p, presets=("fig6",))
    p.set_defaults(func=cmd_queue)

    p = sub.add_parser("steady", help="steady rulers and critical arrival rate")
    _add_common(p, presets=("steady",))
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("baseline-compare", help="cached network versus no-caching baseline")
    _add_common(p)
    p.set_defaults(func=cmd_baseline_compare)

    p = sub.add_parser("simulate", help="Monte Carlo spatial simulation / CTMC trace")
    _add_common(p, presets=("fig7",))
    p.add_argument("--topologies", type=int, default=200)
    p.add_argument("--fading", type=int, default=20)
    p.add_argument("--window", type=float, default=2000.0)
    p.add_argument("--boundary", choices=("margin", "torus"), default="margin")
    p.add_argument("--margin", type=float, default=500.0)
    p.add_argument("--tau-db", type=float, nargs="+", default=[-10.0, -5.0])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one config variable")
    _add_common(p)
    p.add_argument("--var", required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, default=20)
    p.add_argument("--quantity", choices=_SWEEP_QUANTITIES, default="rate_case1")
    p.add_argument("--tau-db", type=float, default=-10.0)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _base_cfg(args)
    name, columns, rows, meta = args.func(args)
    csv_path, json_path = emit_results(
        rows, columns, args.out, name,
        config=cfg.to_flat_dict(), seed=args.seed, meta=meta,
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
