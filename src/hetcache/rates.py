"""Average ergodic rates of the four content-access cases, and the coverage
probability that every rate and outage figure is derived from.

Each radio case has one coverage function tau -> (P(SINR > tau), error),
built by ``_coverage``: a closed form for cases 1/2 without noise, a
QUADPACK distance integral for cases 1/2 with noise, and an integral over
the normalized blocker distance x in (0, 1] for case 3 (interference-limited
only).  Case 3's integrand is smooth in x: its blocked kernel x^2 Z3 is
v^(2/beta) K - x^2 + O(x^(2+beta)) at x -> 0 (``specfun.kernel_x2z3``), so
a fixed 96-node Gauss-Legendre rule evaluates it as one array expression
per threshold.  The rule is fixed and its accuracy is checked by test
against an adaptive oracle, not estimated at run time, so the case-3
coverage reports an error of 0.

A rate is the coverage integrated over the rate threshold (adaptive, with
its QUADPACK error estimate), E[ln(1 + SINR)] = int_0^inf P(SINR > e^t - 1)
dt; an outage probability (``outage.py``) is one minus the coverage at the
threshold.  All rates are in nats/s/Hz; the conversion to bits/s (eta * w)
happens only when the queueing layer builds its service-rate matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .association import (
    active_d2d_density,
    active_fraction,
    first_association_probability,
    three_tier_spec,
)
from .config import NetworkConfig
from .quadrature import DEFAULT_QUAD, QuadratureSpec, gauss_legendre, integrate_semi_infinite
from .specfun import kernel_x2z3, kernel_z1, kernel_z2


@dataclass(frozen=True)
class RateResult:
    value: float            # nats/s/Hz
    case_id: int
    tier: int               # serving tier (0 = local cache)
    regime: str             # "with-noise" | "interference-limited"
    error: float            # quadrature error estimate

    def __post_init__(self) -> None:
        if self.value < 0.0 or self.error < 0.0:
            raise ValueError("rate and error estimate must be non-negative")


@dataclass(frozen=True)
class InterferenceCoefficients:
    """Scalars shared by all rate/outage expressions for one config."""

    s_total: float        # sum_j lambda_j P_j^(2/beta), D2D tier at density alpha*lambda0
    s_relay_bs: float     # relay + BS association weight
    s_active_total: float  # as s_total but with the active D2D density
    g31: float            # D2D first-association probability
    c1: float             # active-to-nominal interference weight ratio (case 1)
    c2: float             # active D2D weight relative to relay+BS (cases 2 and 3)
    active_ratio: float   # lambda'_1 / lambda_1


@functools.lru_cache(maxsize=64)
def interference_coefficients(cfg: NetworkConfig) -> InterferenceCoefficients:
    """Coefficients of ``cfg``, built once per config: a CDF sweep or a rate
    asks for them at every threshold."""
    tiers = three_tier_spec(cfg)
    w = tiers.weights()
    act = active_d2d_density(cfg)
    e = 2.0 / cfg.beta
    w1_active = act.lambda1_active * cfg.p1**e
    s_total = float(w.sum())
    s_relay_bs = float(w[1] + w[2])
    s_active = w1_active + s_relay_bs
    g31 = first_association_probability(tiers, 1) if cfg.alpha > 0.0 else 0.0
    return InterferenceCoefficients(
        s_total=s_total,
        s_relay_bs=s_relay_bs,
        s_active_total=s_active,
        g31=g31,
        c1=s_active / s_total,
        c2=w1_active / s_relay_bs,
        active_ratio=active_fraction(cfg, act),
    )


def _regime(cfg: NetworkConfig) -> str:
    return "interference-limited" if cfg.noise == 0.0 else "with-noise"


# beyond this exponent the integrands are < 1e-100; returning 0 avoids
# expm1 and power overflow
_EXP_CUTOFF = 700.0

# serving tiers each radio case admits
_SERVING_TIERS = {1: (1, 2, 3), 2: (2, 3), 3: (2, 3)}

# case 3's fixed rule over the normalized blocker distance x in (0, 1)
_CASE3_X, _CASE3_W = gauss_legendre(96)


def _coverage(cfg: NetworkConfig, co: InterferenceCoefficients, case_id: int, tier: int,
              spec: QuadratureSpec):
    """Coverage of a radio case served from ``tier``: a function
    tau -> (P(SINR > tau), error estimate).  Validates the case, the tier and
    the regime once, before any threshold is evaluated."""
    if case_id not in _SERVING_TIERS:
        raise ValueError("radio case index must be 1, 2 or 3")
    if tier not in _SERVING_TIERS[case_id]:
        raise ValueError(f"case-{case_id} serving tier must be one of {_SERVING_TIERS[case_id]}")
    beta = cfg.beta

    if case_id == 3:
        if cfg.noise != 0.0:
            raise ValueError("case 3 is defined in the interference-limited regime only")
        if cfg.alpha == 0.0:
            raise ValueError("case 3 is empty without cache-enabled users (alpha = 0)")
        g = co.g31 / (1.0 - co.g31)
        x = _CASE3_X
        weights = 2.0 * (1.0 + g) * _CASE3_W * x
        gx2 = g * x * x

        def blocked(tau: float) -> tuple[float, float]:
            # invert before squaring: den grows like tau^(2/beta), ~1e243 at t = 700
            inv = 1.0 / (1.0 + kernel_z1(tau, beta) + gx2 + co.c2 * kernel_x2z3(tau, x, beta))
            return math.fsum(weights * inv * inv), 0.0

        return blocked

    if case_id == 1:
        weight = co.s_total

        def bracket(tau: float) -> float:
            return co.c1 * kernel_z1(tau, beta)
    else:
        weight = co.s_relay_bs

        def bracket(tau: float) -> float:
            return kernel_z1(tau, beta) + co.c2 * kernel_z2(tau, beta)

    if cfg.noise == 0.0:
        return lambda tau: (1.0 / (1.0 + bracket(tau)), 0.0)

    p_i = cfg.powers[tier - 1]
    q = weight / p_i ** (2.0 / beta)

    def noisy(tau: float) -> tuple[float, float]:
        # distance integral over u = pi*q*x^2, rescaled by s = u*b to unit width
        b = 1.0 + bracket(tau)
        scale = b * math.pi * q
        snr_term = tau * cfg.noise / p_i

        def integrand(s: float) -> float:
            if s > _EXP_CUTOFF:
                return 0.0
            return math.exp(-(s / scale) ** (beta / 2.0) * snr_term - s)

        value, err = integrate_semi_infinite(integrand, spec)
        return value / b, err / b

    return noisy


def _rate(cfg: NetworkConfig, case_id: int, tier: int, spec: QuadratureSpec) -> RateResult:
    """E[ln(1 + SINR)] = int_0^inf P(SINR > e^t - 1) dt; a coverage that is
    itself a quadrature runs one order tighter so the outer estimate holds."""
    coverage = _coverage(cfg, interference_coefficients(cfg), case_id, tier, spec.tightened())

    def integrand(t: float) -> float:
        if t > _EXP_CUTOFF:
            return 0.0
        return coverage(math.expm1(t))[0]

    value, err = integrate_semi_infinite(integrand, spec)
    return RateResult(value, case_id, tier, _regime(cfg), err)


def rate_case1(cfg: NetworkConfig, tier_i: int, spec: QuadratureSpec = DEFAULT_QUAD) -> RateResult:
    """Rate of a non-caching user served by its strongest node in tier i."""
    return _rate(cfg, 1, tier_i, spec)


def rate_case2(cfg: NetworkConfig, tier_i: int, spec: QuadratureSpec = DEFAULT_QUAD) -> RateResult:
    """Rate of a cache-enabled user (content not self-cached) served by the
    stronger of relay/BS; active D2D transmitters interfere from distance 0."""
    return _rate(cfg, 2, tier_i, spec)


def rate_case3(cfg: NetworkConfig, tier_j: int, spec: QuadratureSpec = DEFAULT_QUAD) -> RateResult:
    """Rate of a non-caching user whose strongest node is a cache-enabled
    user without the content, served by the stronger of relay/BS.
    Interference-limited regime only."""
    return _rate(cfg, 3, tier_j, spec)


def rate_local(cfg: NetworkConfig) -> RateResult:
    """Read-out rate from the requester's own cache (case 4)."""
    return RateResult(cfg.local_rate_ul, 4, 0, "local", 0.0)


def case_rate_table(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """4x4 table of case rates U[case-1, column] in nats/s/Hz, columns
    ordered (d2d, relay, bs, local).  Structurally impossible states are 0.
    Feeds the queueing service-rate matrix."""
    # one rate per case fills every serving tier: P_i cancels between q and tau*sigma^2/P_i
    u = np.zeros((4, 4))
    u[0, 0:3] = rate_case1(cfg, 3, spec).value
    if cfg.alpha > 0.0:
        u[1, 1:3] = rate_case2(cfg, 3, spec).value
        if cfg.noise == 0.0:
            u[2, 1:3] = rate_case3(cfg, 3, spec).value
    u[3, 3] = cfg.local_rate_ul
    return u
