"""Multiclass processor-sharing queues at the serving nodes.

Per serving-node column (d2d, relay, bs, local) each of the 8 user states is
a traffic class.  The service-rate matrix converts case rates to bits/s with
the backhaul penalty on even rows; class loads follow from the state matrix
and the node densities.  One steady-state analysis, ``queue_metrics``, takes
everything from the steady ruler rho_j = sum_i sigma_ij / A_ij of each node
type: stability (rho_j < 1), the per-class and per-node occupancy,
throughput and delay, the binding node type and the maximum request arrival
rate varsigma / max_j rho_j.  An exact-jump CTMC simulator of the same
generator provides the stochastic cross-check, and the no-caching baseline
reuses the whole pipeline with a two-tier state matrix; ``throughput_gain``
compares the two models' ``QueueMetrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import (
    STATE_COLUMNS,
    STATE_ROWS,
    StateMatrix,
    active_d2d_density,
    pairwise_association_probability,
    state_matrix,
)
from .config import NetworkConfig
from .rates import case_rate_table, radio_cases

N_CLASSES = len(STATE_ROWS)
N_NODE_TYPES = len(STATE_COLUMNS)


def _freeze_class_arrays(record, *names: str) -> None:
    """Store each named field of ``record`` as a read-only (class x node type)
    float array of non-negative entries; an error names ``<class>.<field>``."""
    for name in names:
        arr = np.asarray(getattr(record, name), dtype=float)
        field = f"{type(record).__name__}.{name}"
        if arr.shape != (N_CLASSES, N_NODE_TYPES):
            raise ValueError(f"{field} must be {N_CLASSES}x{N_NODE_TYPES}, got shape {arr.shape}")
        if (arr < 0.0).any():
            raise ValueError(f"{field} entries must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class RateMatrix:
    """8x4 per-class service rates in bits/s; zero exactly where the state
    matrix is zero."""

    a: np.ndarray

    def __post_init__(self) -> None:
        _freeze_class_arrays(self, "a")


def rate_matrix(cfg: NetworkConfig, case_rates: np.ndarray, states: StateMatrix) -> RateMatrix:
    """Service rates: odd rows eta*w*U, even (backhaul) rows eta*w*kappa*U,
    masked by the occupied states."""
    u = np.asarray(case_rates, dtype=float)
    if u.shape != (4, 4):
        raise ValueError("case-rate table must be 4x4")
    a = np.zeros((N_CLASSES, N_NODE_TYPES))
    scale = cfg.eta * cfg.bandwidth_w
    a[0::2] = scale * u
    a[1::2] = scale * cfg.backhaul_kappa * u
    a[states.d == 0.0] = 0.0
    return RateMatrix(a)


@dataclass(frozen=True)
class QueueClassLoad:
    """Per-class load at each node type: users per node, request arrival
    rate [requests/s], and traffic demand [bits/s]."""

    n: np.ndarray
    zeta: np.ndarray
    sigma: np.ndarray
    node_densities: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        _freeze_class_arrays(self, "n", "zeta", "sigma")


def class_loads(cfg: NetworkConfig, states: StateMatrix) -> QueueClassLoad:
    """Split the user population into queue classes.

    Node densities per column are (active D2D TXs, relays, BSs, cache-enabled
    users); n_{i,j} = lambda_0 D_{i,j} / lambda'_j, each user issues requests
    at rate varsigma * lambda_3 / lambda_0.
    """
    act = active_d2d_density(cfg)
    node_dens = (act.lambda1_active, cfg.lambda2, cfg.lambda3, cfg.alpha * cfg.lambda0)
    n = np.zeros((N_CLASSES, N_NODE_TYPES))
    for j, lam in enumerate(node_dens):
        col = states.d[:, j]
        if lam == 0.0:
            if (col > 0.0).any():
                raise ValueError(
                    f"node column {j} has zero density but nonzero state probability"
                )
            continue
        n[:, j] = cfg.lambda0 * col / lam
    zeta = n * (cfg.lambda3 * cfg.varsigma / cfg.lambda0)
    sigma = zeta * cfg.content_size_s * cfg.varrho_inv
    return QueueClassLoad(n, zeta, sigma, node_dens)


@dataclass(frozen=True)
class QueueMetrics:
    """Stationary metrics of the processor-sharing queues.

    Per class: mean resident requests, throughput per request [bits/s],
    delay [s]; per node: the aggregates.  ``rulers`` holds the steady ruler
    rho_j = sum_i sigma_ij / A_ij of each node type and ``stable`` marks
    rho_j < 1.  Columns with an unstable queue carry infinite N/D and zero T;
    columns with no traffic have zero occupancy and NaN T/D.  ``varsigma`` is
    the configured arrival rate the rulers were taken at.
    """

    n_class: np.ndarray
    t_class: np.ndarray
    d_class: np.ndarray
    n_node: np.ndarray
    t_node: np.ndarray
    d_node: np.ndarray
    rulers: np.ndarray
    varsigma: float

    @property
    def stable(self) -> np.ndarray:
        return self.rulers < 1.0

    @property
    def binding_node(self) -> str:
        """The node type of the largest ruler, whose queue caps the arrival
        rate; none binds without traffic."""
        if not self.rulers.any():
            raise ValueError("no traffic anywhere; maximum arrival rate is unbounded")
        return STATE_COLUMNS[int(self.rulers.argmax())]

    @property
    def varsigma_star(self) -> float:
        """The maximum sustainable arrival rate varsigma / max_j rho_j, exact
        because the rulers are linear in the arrival rate; the one place it
        is computed."""
        return float(self.varsigma / self.rulers[STATE_COLUMNS.index(self.binding_node)])

    def gain_over(self, base: QueueMetrics) -> dict[str, float]:
        """Both critical rates and the relative gain of this model over ``base``."""
        return {
            "varsigma_star_cached": self.varsigma_star,
            "varsigma_star_baseline": base.varsigma_star,
            "gain": self.varsigma_star / base.varsigma_star - 1.0,
        }


def _rulers(cfg: NetworkConfig, loads: QueueClassLoad, rates: RateMatrix) -> np.ndarray:
    """Steady ruler per node type: the sum over classes of demand over
    service rate."""
    a, sigma = rates.a, loads.sigma
    starved = np.argwhere((sigma > 0.0) & (a == 0.0))
    if len(starved):
        classes = [(*STATE_ROWS[i], STATE_COLUMNS[j]) for i, j in starved]
        message = ("classes (case, backhaul, node) with traffic but zero service rate: "
                   + ", ".join("(" + ", ".join(c) + ")" for c in classes))
        if 3 not in radio_cases(cfg) and any(c[0] == "case3" for c in classes):
            message += "; case 3 has no noise-inclusive rate"
        raise ValueError(message)
    per_class = np.where(sigma > 0.0, sigma / np.where(a > 0.0, a, 1.0), 0.0)
    return per_class.sum(axis=0)


def queue_metrics(cfg: NetworkConfig, loads: QueueClassLoad, rates: RateMatrix) -> QueueMetrics:
    """A stable loaded column j serves class i at (1 - rho_j) A_ij, so
    N_ij = sigma_ij / ((1 - rho_j) A_ij) and D_ij = S varrho^-1 / ((1 - rho_j)
    A_ij); the column throughput is the critical demand sigma_j / rho_j less
    the demand sigma_j."""
    a, sigma = rates.a, loads.sigma
    rulers = _rulers(cfg, loads, rates)
    sigma_node, zeta_node = sigma.sum(axis=0), loads.zeta.sum(axis=0)
    loaded = sigma_node > 0.0
    stable = rulers < 1.0
    up = loaded & stable  # columns with a stationary law
    served = up & (a > 0.0)
    jammed = loaded & ~stable & (sigma > 0.0)

    t_class = np.where(served, (1.0 - rulers) * a, 0.0)
    share = np.where(served, t_class, 1.0)
    n_class = np.where(served, sigma / share, np.where(jammed, math.inf, 0.0))
    d_class = np.where(served, cfg.content_size_s * cfg.varrho_inv / share,
                       np.where(jammed, math.inf, math.nan))
    t_node = np.where(up, sigma_node / np.where(up, rulers, 1.0) - sigma_node,
                      np.where(loaded, 0.0, math.nan))
    n_node = np.where(up, sigma_node / np.where(up, t_node, 1.0), np.where(loaded, math.inf, 0.0))
    d_node = np.where(up, n_node / np.where(up, zeta_node, 1.0),
                      np.where(loaded, math.inf, math.nan))
    return QueueMetrics(n_class, t_class, d_class, n_node, t_node, d_node, rulers, cfg.varsigma)


def _model(cfg: NetworkConfig, states: StateMatrix) -> tuple[StateMatrix, QueueClassLoad, RateMatrix]:
    """Class loads and service rates of ``states`` under ``cfg``."""
    return states, class_loads(cfg, states), rate_matrix(cfg, case_rate_table(cfg), states)


def network_model(cfg: NetworkConfig) -> tuple[StateMatrix, QueueClassLoad, RateMatrix]:
    """State matrix, class loads and service rates of the cache-enabled network."""
    return _model(cfg, state_matrix(cfg))


def baseline_state_matrix(cfg: NetworkConfig) -> StateMatrix:
    """No caching anywhere: users associate over relay/BS only, every
    relay-served request needs the backhaul, the BS never does."""
    d = np.zeros((N_CLASSES, N_NODE_TYPES))
    d[0, 2] = pairwise_association_probability(cfg, 3)
    d[1, 1] = pairwise_association_probability(cfg, 2)
    return StateMatrix(d)


def baseline_model(cfg: NetworkConfig) -> tuple[StateMatrix, QueueClassLoad, RateMatrix]:
    """Loads and rates of the no-caching baseline.

    The cache-enabled pipeline at alpha = 0 (only case 1 is left: no D2D
    interference, same relay/BS field) on the baseline's states; the D2D
    and local columns are empty, so nothing of it reads gamma.
    """
    return _model(cfg.with_updates(alpha=0.0), baseline_state_matrix(cfg))


def throughput_gain(cfg: NetworkConfig) -> dict[str, float]:
    """Relative gain of the cache-enabled maximum arrival rate over the
    no-caching baseline, with both critical rates; both models are built
    from the one ``cfg``."""
    cached, base = (queue_metrics(cfg, *model(cfg)[1:]) for model in (network_model, baseline_model))
    return cached.gain_over(base)


@dataclass(frozen=True)
class CtmcTrace:
    """Exact-jump sample path of one node-type queue over [0, horizon].

    ``times``/``states`` hold the embedded jump chain (states row r valid on
    [times[r], times[r+1])); ``time_average`` is the per-class time-averaged
    occupancy after the warmup.  The trace is the sample path alone:
    ``slot_average`` computes a per-slot occupancy from it when asked.
    """

    times: np.ndarray
    states: np.ndarray
    time_average: np.ndarray
    horizon: float

    def slot_average(self, slot: float) -> tuple[np.ndarray, np.ndarray]:
        """The start of each slot of length ``slot`` and the total occupancy
        averaged over it."""
        if not slot > 0.0:
            raise ValueError("slot duration must be positive")
        return _slot_average(self.times, self.states.sum(axis=1), self.horizon, slot)


# Holding times and jump uniforms are drawn this many at a time.
_DRAW_BLOCK = 1024


def ctmc_simulate(cfg: NetworkConfig, loads: QueueClassLoad, rates: RateMatrix,
                  node_type: int, horizon: float, seed: int,
                  warmup: float = 0.0) -> CtmcTrace:
    """Simulate the multiclass processor-sharing queue at one node type.

    Arrivals are Poisson per class; the server splits its capacity over the
    resident requests, so class i departs at rate (varrho * A_i / S) *
    (x_i / x_total).  Gillespie exact-jump scheme; the holding time is drawn
    from the total outflow rate, the jump from the rate-proportional
    categorical distribution.  The resident count and the departure weights
    are kept up to date per jump.  Unit exponentials and uniforms come from
    the generator in blocks of ``_DRAW_BLOCK``.
    """
    if not 1 <= node_type <= N_NODE_TYPES:
        raise ValueError("node type must be 1..4")
    if not 0.0 < horizon < math.inf:
        raise ValueError("simulation horizon must be positive and finite")
    if not 0.0 <= warmup < horizon:
        raise ValueError("warmup must lie in [0, horizon)")
    j = node_type - 1
    zeta = loads.zeta[:, j]
    # departure rate per resident request when alone: varrho * A / S
    mu = rates.a[:, j] / (cfg.content_size_s * cfg.varrho_inv)
    if ((zeta > 0.0) & (mu == 0.0)).any():
        raise ValueError("a class with arrivals has zero service rate")

    # a class without arrivals never holds a request, so only these move
    classes = [int(i) for i in np.flatnonzero(zeta > 0.0)]
    lam = [float(zeta[i]) for i in classes]
    rate = [float(mu[i]) for i in classes]
    x = [0] * len(classes)
    # departure rates times the resident count, and that count; one class
    # moves per jump, so only its entry changes
    dep = [0.0] * len(classes)
    total = 0
    arrival_total = sum(lam)

    rng = np.random.default_rng(seed)
    t = 0.0
    times = [0.0]
    jumps = []  # per event: class index for an arrival, N_CLASSES + index for a departure
    k = _DRAW_BLOCK
    while arrival_total > 0.0:
        if k == _DRAW_BLOCK:
            holds = rng.standard_exponential(_DRAW_BLOCK).tolist()
            picks = rng.random(_DRAW_BLOCK).tolist()
            k = 0
        out_rate = arrival_total + (sum(dep) / total if total else 0.0)
        t += holds[k] / out_rate
        if t >= horizon:
            break
        target = picks[k] * out_rate
        k += 1
        if target < arrival_total:
            c = _pick(lam, target)
            x[c] += 1
            total += 1
            jumps.append(classes[c])
        else:
            c = _pick(dep, (target - arrival_total) * total)
            x[c] -= 1
            total -= 1
            jumps.append(N_CLASSES + classes[c])
        dep[c] = rate[c] * x[c]
        times.append(t)

    times_arr = np.asarray(times)
    codes = np.asarray(jumps, dtype=np.int64)
    steps = np.zeros((len(times), N_CLASSES), dtype=np.int64)
    steps[np.arange(1, len(times)), codes % N_CLASSES] = np.where(codes < N_CLASSES, 1, -1)
    states_arr = np.cumsum(steps, axis=0)
    time_avg = _time_average(times_arr, states_arr, horizon, warmup)
    return CtmcTrace(times_arr, states_arr, time_avg, horizon)


def _pick(weights: list[float], target: float) -> int:
    """First index whose cumulative weight exceeds ``target``; when rounding
    leaves ``target`` at or above the total, the last positive weight."""
    for c, w in enumerate(weights):
        if w > 0.0:
            last = c
            target -= w
            if target < 0.0:
                return c
    return last


def _time_average(times: np.ndarray, states: np.ndarray, horizon: float,
                  warmup: float) -> np.ndarray:
    """Per-class time-average of the piecewise-constant path over
    [warmup, horizon]; states row r holds on [times[r], times[r+1])."""
    ends = np.append(times[1:], horizon)
    overlap = np.maximum(ends, warmup) - np.maximum(times, warmup)
    return overlap @ states / (horizon - warmup)


def _slot_average(times: np.ndarray, totals: np.ndarray, horizon: float,
                  slot: float) -> tuple[np.ndarray, np.ndarray]:
    """Time-average of the piecewise-constant total occupancy per slot: the
    cumulative area at the event times, read off at the slot edges."""
    edges = np.arange(0.0, horizon + slot, slot)
    edges[-1] = min(edges[-1], horizon)
    if edges[-1] <= edges[-2]:
        edges = edges[:-1]
    area = np.concatenate(([0.0], np.cumsum(totals[:-1] * np.diff(times))))
    idx = np.searchsorted(times, edges, side="right") - 1
    area_at_edges = area[idx] + totals[idx] * (edges - times[idx])
    return edges[:-1], np.diff(area_at_edges) / np.diff(edges)

