"""Average ergodic rates of the four content-access cases, and the coverage
probability that every rate and outage figure is derived from.

Each radio case has one coverage formula, ``_coverage``, evaluated on an
array of thresholds tau from the kernels Z1, Z2 and x^2 Z3 tabulated there
(``_Kernels``): a closed form for cases 1/2 without noise, a distance
integral for cases 1/2 with noise, and an integral over the normalized
blocker distance x in (0, 1] for case 3 (interference-limited only).

With noise sigma^2 the coverage of cases 1/2 is (1/b) int_0^inf
exp(-s - c s^(beta/2)) ds (Andrews-Baccelli-Ganti), b = 1 + bracket(tau)
and c = tau sigma^2 / (pi w b)^(beta/2), w the serving association weight;
the serving power P_i cancels.  After s = L y, L = 1/(1 + c^(2/beta)), the
integrand's knee sits at y ~ 1 for every tau and sigma^2, so the rate's
own rule of step 1/16 (193 nodes) evaluates all thresholds as one
(threshold x node) array (``_distance_integral``).  Against mpmath over
c in 10^[-30, 30] it is within 4e-15 relative for beta in [2.1, 5.5] and
1.1e-13 at beta = 8.

Case 3's integrand is smooth in x: its blocked kernel x^2 Z3 is
v^(2/beta) K - x^2 + O(x^(2+beta)) at x -> 0 (``specfun.kernel_x2z3``), so
a fixed 96-node Gauss-Legendre rule (numpy's ``leggauss``) evaluates it as
one (threshold x node) array.  Both inner rules are checked by test
against an oracle, not estimated at run time.  Case 3's is validated for
tau >= 1e-6; below about 1e-8 it cannot resolve the kernel's knee at
x ~ tau^(1/beta), and no preset goes below tau = 0.01 (-20 dB).
Both (threshold x node) grids, the noisy one and case 3's, are evaluated
in place in one or two buffers, in the plain expression's order and so to
the same bits: at glibc's default mmap threshold (128 KiB) each fresh
temporary of that size is mapped, faulted in and unmapped again on every
call, which cost ~10% of a noisy pass.

A rate is E[ln(1 + SINR)] = int_0^inf P(SINR > e^t - 1) dt
(Andrews-Baccelli-Ganti, IEEE TCOM 2011), integrated on a fixed
double-exponential rule (Takahasi-Mori, Publ. RIMS 9, 1974) in the
Ooura-Mori map t = exp(k - e^(-k)): k = -6..6 in steps of 1/8, 97 nodes
from t = 1.6e-178 to 403, past which every coverage is negligible.  The
even nodes form the rule of step 1/4, so the error estimate comes free:
``RateResult.error`` = |Q(1/8) - Q(1/4)|.  A rate whose estimate exceeds
rel 1e-8 / abs 1e-12 is retried with the step halved, up to step 1/64, and
then raises ``QuadratureError`` with the partial value.  The kernels at the
rule's thresholds depend only on beta, so they are tabulated once per beta:
a sweep over alpha then costs array arithmetic per rate.
Sums run along an array axis (``np.sum``), never through BLAS, so a rate
repeats exactly.

An outage probability (``sinr_cdf``) is one minus the coverage at its
threshold; case 4 (own cache) has none.  A call's thresholds take one
coverage pass on kernels kept per (beta, thresholds) (``_threshold_kernels``),
the one cache that also holds the kernels of each rate rule's thresholds.
``radio_cases`` states which cases have a coverage under a config, and
``association.SERVING_TIERS`` at which tiers each is served.  All rates are
in nats/s/Hz; the conversion to bits/s (eta * w) happens only when the
queueing layer builds its service-rate matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .association import (
    SERVING_TIERS,
    active_d2d_density,
    association_weights,
    first_association_probability,
)
from .config import NetworkConfig
from .quadrature import EPSABS, EPSREL, QuadratureError
from .specfun import kernel_x2z3, kernel_z1, kernel_z2


@dataclass(frozen=True)
class RateResult:
    value: float            # nats/s/Hz
    error: float            # quadrature error estimate

    def __post_init__(self) -> None:
        if self.value < 0.0 or self.error < 0.0:
            raise ValueError("rate and error estimate must be non-negative")


@dataclass(frozen=True)
class InterferenceCoefficients:
    """Scalars shared by all rate/outage expressions for one config."""

    s_total: float        # sum_j lambda_j P_j^(2/beta), D2D tier at density alpha*lambda0
    s_relay_bs: float     # relay + BS association weight
    g31: float            # D2D first-association probability
    c1: float             # active-to-nominal interference weight ratio (case 1)
    c2: float             # active D2D weight relative to relay+BS (cases 2 and 3)


@functools.lru_cache(maxsize=64)
def interference_coefficients(cfg: NetworkConfig) -> InterferenceCoefficients:
    """Coefficients of ``cfg``, built once per config: each coverage pass
    asks for them, so every case and rule level of a config shares them."""
    w = association_weights(cfg)
    act = active_d2d_density(cfg)
    e = 2.0 / cfg.beta
    w1_active = act.lambda1_active * cfg.p1**e
    s_total = float(w.sum())
    s_relay_bs = float(w[1] + w[2])
    g31 = first_association_probability(cfg, 1)
    return InterferenceCoefficients(
        s_total=s_total,
        s_relay_bs=s_relay_bs,
        g31=g31,
        c1=(w1_active + s_relay_bs) / s_total,
        c2=w1_active / s_relay_bs,
    )


def radio_cases(cfg: NetworkConfig) -> tuple[int, ...]:
    """The radio cases that have a coverage under ``cfg``: cases 2 and 3 need
    cache-enabled users (alpha > 0), and case 3 is defined without noise only."""
    if cfg.alpha == 0.0:
        return (1,)
    return (1, 2, 3) if cfg.noise == 0.0 else (1, 2)


# case 3's 96-node Gauss-Legendre rule, mapped to the blocker distance x in (0, 1)
_CASE3_X, _CASE3_W = np.polynomial.legendre.leggauss(96)
_CASE3_X, _CASE3_W = (1.0 + _CASE3_X) / 2.0, _CASE3_W / 2.0

# step halvings of the rate's rule (from 1/8) before its error is raised
_RATE_REFINEMENTS = 3

# a 41-tau -20..20 dB grid asked tau by tau fits, beside one rate table per
# (beta, level), ~76 KB at level 0; at 16 every call missed
_THRESHOLD_CACHE = 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Kernels:
    """Z1, Z2 and the case-3 grid x^2 Z3 (thresholds x ``_CASE3_X``) of one
    beta on a threshold array, each computed on first use and read-only:
    the caches below share them."""

    def __init__(self, tau: np.ndarray, beta: float):
        self.tau = tau
        self.beta = beta

    @functools.cached_property
    def z1(self) -> np.ndarray:
        return _read_only(kernel_z1(self.tau, self.beta))

    @functools.cached_property
    def z2(self) -> np.ndarray:
        return _read_only(kernel_z2(self.tau, self.beta))

    @functools.cached_property
    def x2z3(self) -> np.ndarray:
        return _read_only(kernel_x2z3(self.tau[:, None], _CASE3_X, self.beta))


@functools.lru_cache(maxsize=_RATE_REFINEMENTS + 1)
def _rate_rule(level: int) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Nodes t and weights of the rate's rule with step 2^-(3 + level), on
    (0, inf), read-only since every later call shares them, and its thresholds
    e^t - 1 as float64 bytes, their key in ``_threshold_kernels``; level 1 is
    also the noisy distance integral's rule."""
    n = 8 << level
    k = np.arange(-6 * n, 6 * n + 1) / n
    t = np.exp(k - np.exp(-k))
    return _read_only(t), _read_only(t * (1.0 + np.exp(-k)) / n), np.expm1(t).tobytes()


@functools.lru_cache(maxsize=_THRESHOLD_CACHE)
def _threshold_kernels(beta: float, taus: bytes) -> _Kernels:
    """Kernels at a threshold array (its float64 bytes), built once per
    (beta, thresholds); an entry holds at most len(taus) x 98 floats."""
    return _Kernels(np.frombuffer(taus), beta)


def _distance_integral(u: np.ndarray, beta: float) -> np.ndarray:
    """int_0^inf exp(-s - (u s)^(beta/2)) ds for each u >= 0, on the rate's
    step-1/16 rule after s = L y, L = 1/(1 + u): the integrand's knee then
    sits at y ~ 1 whatever u is."""
    y, w, _ = _rate_rule(1)
    scale = 1.0 / (1.0 + u)
    s = np.multiply.outer(scale, y)
    a = u[:, None] * s
    a **= beta / 2.0
    a += s
    np.negative(a, out=a)
    np.exp(a, out=a)
    a *= w
    return scale * np.sum(a, axis=1)


def _coverage(cfg: NetworkConfig, case_id: int, tier: int, k: _Kernels) -> np.ndarray:
    """Coverage P(SINR > tau) of a radio case served from ``tier``, at each
    threshold of ``k`` (kernels of ``cfg.beta``).  Validates the case, the
    tier and the regime before any threshold is evaluated."""
    if case_id not in SERVING_TIERS:
        raise ValueError("radio case index must be 1, 2 or 3")
    if tier not in SERVING_TIERS[case_id]:
        raise ValueError(f"case-{case_id} serving tier must be one of {SERVING_TIERS[case_id]}")
    if case_id == 3 and 3 not in radio_cases(cfg):
        raise ValueError("case 3 needs cache-enabled users (alpha > 0) and no noise")
    co = interference_coefficients(cfg)
    beta = cfg.beta

    if case_id == 3:
        g = co.g31 / (1.0 - co.g31)
        x = _CASE3_X
        weights = 2.0 * (1.0 + g) * _CASE3_W * x
        # invert before squaring: den grows like tau^(2/beta), ~1e140 at the last rate node
        inv = (1.0 + k.z1[:, None]) + g * x * x
        t = co.c2 * k.x2z3
        inv += t
        np.divide(1.0, inv, out=inv)
        np.multiply(weights, inv, out=t)
        t *= inv
        return np.sum(t, axis=1)

    if case_id == 1:
        weight = co.s_total
        bracket = co.c1 * k.z1
    else:
        weight = co.s_relay_bs
        bracket = k.z1 + co.c2 * k.z2

    if cfg.noise == 0.0:
        return 1.0 / (1.0 + bracket)

    b = 1.0 + bracket
    # u = c^(2/beta), so that (u s)^(beta/2) = c s^(beta/2) never overflows
    u = (k.tau * cfg.noise) ** (2.0 / beta) / (math.pi * weight * b)
    return _distance_integral(u, beta) / b


def _rate(cfg: NetworkConfig, case_id: int, tier: int) -> RateResult:
    """E[ln(1 + SINR)] = int_0^inf P(SINR > e^t - 1) dt on the fixed
    double-exponential rule, with the step-doubling error estimate."""
    for level in range(_RATE_REFINEMENTS + 1):
        _, weights, taus = _rate_rule(level)
        terms = weights * _coverage(cfg, case_id, tier, _threshold_kernels(cfg.beta, taus))
        value = float(np.sum(terms))
        error = abs(value - 2.0 * float(np.sum(terms[::2])))
        if error <= max(EPSREL * value, EPSABS):
            return RateResult(value, error)
    raise QuadratureError(
        f"case-{case_id} rate: the rules of step 2^-{level + 3} and 2^-{level + 2}"
        f" differ by {error:.3e} (partial estimate {value:.6e})",
        partial=value,
    )


def rate_case1(cfg: NetworkConfig, tier_i: int) -> RateResult:
    """Rate of a non-caching user served by its strongest node in tier i."""
    return _rate(cfg, 1, tier_i)


def rate_case2(cfg: NetworkConfig, tier_i: int) -> RateResult:
    """Rate of a cache-enabled user (content not self-cached) served by the
    stronger of relay/BS; active D2D transmitters interfere from distance 0."""
    return _rate(cfg, 2, tier_i)


def rate_case3(cfg: NetworkConfig, tier_j: int) -> RateResult:
    """Rate of a non-caching user whose strongest node is a cache-enabled
    user without the content, served by the stronger of relay/BS.
    Interference-limited regime only."""
    return _rate(cfg, 3, tier_j)


def case_rate_table(cfg: NetworkConfig) -> np.ndarray:
    """4x4 table of case rates U[case-1, column] in nats/s/Hz, columns
    ordered (d2d, relay, bs, local).  Structurally impossible states are 0,
    and so is every case outside ``radio_cases`` (case 3 with noise, cases 2
    and 3 at alpha = 0).  Feeds the queueing service-rate matrix."""
    rate_of = {1: rate_case1, 2: rate_case2, 3: rate_case3}
    u = np.zeros((4, 4))
    # one rate per case fills every serving tier: P_i cancels between q and tau*sigma^2/P_i
    for case_id in radio_cases(cfg):
        u[case_id - 1, np.subtract(SERVING_TIERS[case_id], 1)] = rate_of[case_id](cfg, 3).value
    u[3, 3] = cfg.local_rate_ul
    return u


def sinr_cdf(cfg: NetworkConfig, case_id: int, tier: int, tau):
    """CDF of the SINR at threshold ``tau`` for the given case and serving
    tier, which is the outage probability P(SINR < tau).  Case 4 involves no
    radio link, so its outage is exactly zero at every tier.

    A float ``tau`` gives a float, read off the same cached kernel table as
    a one-element array; a 1-D array (or sequence) gives one outage per
    threshold in one pass.  Every threshold must be finite and non-negative."""
    scalar = isinstance(tau, (int, float)) or np.ndim(tau) == 0
    taus = np.array([float(tau)]) if scalar else np.asarray(tau, dtype=float)
    if taus.ndim != 1:
        raise ValueError("SINR thresholds must be a float or a 1-D array")
    bad = [t for t in taus.tolist() if not 0.0 <= t < math.inf]
    if bad:
        raise ValueError(f"SINR threshold {bad[0]} must be non-negative and finite")
    if case_id == 4:
        return 0.0 if scalar else np.zeros(len(taus))
    kernels = _threshold_kernels(cfg.beta, taus.tobytes())
    values = (1.0 - _coverage(cfg, case_id, tier, kernels)).tolist()
    bad = [v for v in values if not -1e-12 <= v <= 1.0 + 1e-12]
    if bad:
        raise ValueError(f"outage probability {bad[0]} outside [0, 1]")
    # the fixed rules take the coverage at tau ~ 0 to 1 + O(1e-15)
    values = [min(max(v, 0.0), 1.0) for v in values]
    return values[0] if scalar else np.array(values)
