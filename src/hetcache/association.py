"""Closed-form stochastic-geometry layer.

Ordering and association probabilities of the three-tier network under
max-average-received-power association (C_i = P_i r_i^(-beta)), all ratios
of the weights lambda_i P_i^(2/beta) of one ``NetworkConfig``, the 8x4
user-state probability matrix, and the density of actually active D2D
transmitters with its critical points.

Content popularity is Zipf over the catalog: the rank-``i`` content has
f_i = i^(-gamma) / sum_j j^(-gamma), with ``gamma`` and ``n_contents`` taken
from the config.  The normalizer is a direct summation (catalogs up to ~1e6
contents are assumed; no zeta-function approximation).

Tier indices are 1-based throughout, matching the tier numbering of the
network model (1 = D2D, 2 = relay, 3 = BS).  ``STATE_ROWS`` and
``STATE_COLUMNS`` lay out the state matrix, and ``SERVING_TIERS`` holds the
tiers that may serve each radio case: one model table, read by the analysis
(``rates``) and by the oracle (``montecarlo``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig

# Row layout of the state matrix: (case, backhaul flag); column layout: serving node.
STATE_ROWS = (
    ("case1", "bh_free"), ("case1", "bh_needed"),
    ("case2", "bh_free"), ("case2", "bh_needed"),
    ("case3", "bh_free"), ("case3", "bh_needed"),
    ("case4", "bh_free"), ("case4", "bh_needed"),
)
STATE_COLUMNS = ("d2d", "relay", "bs", "local")
SERVING_TIERS = {1: (1, 2, 3), 2: (2, 3), 3: (2, 3)}


def association_weights(cfg: NetworkConfig) -> np.ndarray:
    """Association weights lambda_i * P_i^(2/beta); all the closed forms
    below are ratios of these."""
    lam = np.asarray(cfg.densities, dtype=float)
    pw = np.asarray(cfg.powers, dtype=float)
    return lam * pw ** (2.0 / cfg.beta)


def ordering_probability(cfg: NetworkConfig, order: tuple[int, ...]) -> float:
    """Probability that the tiers' maximum received powers are ranked in the
    given 1-based order (strongest first)."""
    if sorted(order) != [1, 2, 3]:
        raise ValueError(f"order {order} is not a permutation of 1..3")
    w = association_weights(cfg)
    prob = 1.0
    for n in range(2):
        tail = sum(w[t - 1] for t in order[n:])
        prob *= w[order[n] - 1] / tail
    return prob


def first_association_probability(cfg: NetworkConfig, i: int) -> float:
    """Probability G_{K,i} that tier i offers the strongest received power."""
    if not 1 <= i <= 3:
        raise ValueError(f"tier index {i} outside 1..3")
    w = association_weights(cfg)
    return float(w[i - 1] / w.sum())


def pairwise_association_probability(cfg: NetworkConfig, i: int) -> float:
    """Association probability restricted to the relay/BS pair {2, 3}: the
    priority of a requester that skips the D2D tier."""
    if i not in (2, 3):
        raise ValueError("pairwise association is defined for tiers 2 and 3 only")
    w = association_weights(cfg)
    return float(w[i - 1] / (w[1] + w[2]))


@dataclass(frozen=True)
class StateMatrix:
    """8x4 matrix of user-state probabilities, rows STATE_ROWS, columns
    STATE_COLUMNS.  Entries that are structurally impossible (e.g. a
    cache-enabled requester served via D2D) are exact zeros."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.shape != (8, 4):
            raise ValueError("state matrix must be 8x4")
        if (d < -1e-15).any() or (d > 1.0 + 1e-12).any():
            raise ValueError("state probabilities must lie in [0, 1]")
        if abs(d.sum() - 1.0) > 1e-10:
            raise ValueError(f"state probabilities sum to {d.sum()}, expected 1")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    def case_probability(self, case: int) -> float:
        """Total probability of case 1..4 (both backhaul rows)."""
        if not 1 <= case <= 4:
            raise ValueError("case index must be 1..4")
        return float(self.d[2 * case - 2 : 2 * case].sum())


@functools.lru_cache(maxsize=64)
def _zipf_prefix(gamma: float, n_contents: int) -> np.ndarray:
    """Zipf prefix sums: entry k is f_1 + ... + f_k, entry 0 is 0, so the
    mass of ranks a..b is prefix[b] - prefix[a - 1].  Built once per
    (gamma, n_contents) and shared, so the array is read-only."""
    weights = np.arange(1, n_contents + 1, dtype=float) ** (-gamma)
    prefix = np.concatenate(([0.0], np.cumsum(weights / weights.sum())))
    prefix.flags.writeable = False
    return prefix


def state_matrix(cfg: NetworkConfig) -> StateMatrix:
    """Probabilities of all (case, backhaul, serving node) user states."""
    alpha, m1, m2, n = cfg.alpha, cfg.m1, cfg.m2, cfg.n_contents
    prefix = _zipf_prefix(cfg.gamma, n)

    def f(a: int, b: int) -> float:
        return float(prefix[b] - prefix[a - 1])

    g1, g2, g3 = (first_association_probability(cfg, i) for i in (1, 2, 3))
    p123 = ordering_probability(cfg, (1, 2, 3))
    p132 = ordering_probability(cfg, (1, 3, 2))
    p23 = pairwise_association_probability(cfg, 2)
    p32 = pairwise_association_probability(cfg, 3)

    d = np.zeros((8, 4))
    # case 1: non-caching requester, strongest node serves
    d[0, 0] = g1 * (1.0 - alpha) * f(1, m1)
    d[0, 1] = g2 * (1.0 - alpha) * f(1, m2)
    d[0, 2] = g3 * (1.0 - alpha)
    d[1, 1] = g2 * (1.0 - alpha) * f(m2 + 1, n)
    # case 2: cache-enabled requester, content not in own cache
    d[2, 1] = p23 * alpha * f(m1 + 1, m2)
    d[2, 2] = p32 * alpha * f(m1 + 1, n)
    d[3, 1] = p23 * alpha * f(m2 + 1, n)
    # case 3: non-caching requester, strongest node is a cache-enabled user
    # that lacks the content; the best relay/BS serves instead
    d[4, 1] = p123 * (1.0 - alpha) * f(m1 + 1, m2)
    d[4, 2] = p132 * (1.0 - alpha) * f(m1 + 1, n)
    d[5, 1] = p123 * (1.0 - alpha) * f(m2 + 1, n)
    # case 4: served from the requester's own cache
    d[6, 3] = alpha * f(1, m1)
    return StateMatrix(d)


@dataclass(frozen=True)
class D2DActivity:
    """Density of actually active D2D transmitters and its critical points.

    ``alpha_star`` is the cache-enabled fraction below which every
    cache-enabled user must transmit; ``alpha_hat`` maximizes the active
    density.
    """

    lambda1_active: float
    alpha_star: float
    alpha_hat: float


def activity_constant(cfg: NetworkConfig) -> float:
    """h = sum_{j=2,3} (lambda_j/lambda_0) (P_j/P_1)^(2/beta)."""
    e = 2.0 / cfg.beta
    return (cfg.lambda2 / cfg.lambda0) * (cfg.p2 / cfg.p1) ** e \
        + (cfg.lambda3 / cfg.lambda0) * (cfg.p3 / cfg.p1) ** e


def active_d2d_density(cfg: NetworkConfig) -> D2DActivity:
    f1m1 = float(_zipf_prefix(cfg.gamma, cfg.n_contents)[cfg.m1])
    h = activity_constant(cfg)
    alpha_star = max(0.0, (f1m1 - h) / (1.0 + f1m1))
    alpha_hat = math.sqrt(h * h + h) - h
    alpha = cfg.alpha
    if alpha < alpha_star or alpha == 0.0:
        lam_active = alpha * cfg.lambda0
    else:
        g31 = first_association_probability(cfg, 1)
        lam_active = (1.0 - alpha) * cfg.lambda0 * g31 * f1m1
    return D2DActivity(lam_active, alpha_star, alpha_hat)
