"""Outage probabilities (SINR CDF at a threshold) of the content-access cases.

The outage of a radio case is one minus its coverage at the threshold, from
the single coverage function per case in ``rates.py``: closed forms for
cases 1/2 without noise, a distance integral with noise, and case 3's
integral over the normalized blocker distance (interference-limited only).
Case 4 (own cache) never experiences outage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import NetworkConfig
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .rates import _coverage, interference_coefficients


@dataclass(frozen=True)
class OutageResult:
    value: float            # P(SINR < threshold)
    case_id: int
    tier: int
    threshold: float        # linear SINR threshold
    error: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"outage probability {self.value} outside [0, 1]")
        if self.threshold < 0.0:
            raise ValueError("SINR threshold must be non-negative")


def _outage(cfg: NetworkConfig, case_id: int, tier: int, tau: float,
            spec: QuadratureSpec) -> OutageResult:
    if tau < 0.0:
        raise ValueError("SINR threshold must be non-negative")
    cov, err = _coverage(cfg, interference_coefficients(cfg), case_id, tier, spec)(tau)
    return OutageResult(1.0 - cov, case_id, tier, tau, err)


def outage_case1(cfg: NetworkConfig, tier_i: int, tau: float,
                 spec: QuadratureSpec = DEFAULT_QUAD) -> OutageResult:
    """Outage of a non-caching user served by its strongest node in tier i."""
    return _outage(cfg, 1, tier_i, tau, spec)


def outage_case2(cfg: NetworkConfig, tier_i: int, tau: float,
                 spec: QuadratureSpec = DEFAULT_QUAD) -> OutageResult:
    """Outage of a cache-enabled user served by the stronger of relay/BS."""
    return _outage(cfg, 2, tier_i, tau, spec)


def outage_case3(cfg: NetworkConfig, tier_j: int, tau: float,
                 spec: QuadratureSpec = DEFAULT_QUAD) -> OutageResult:
    """Outage of a non-caching user whose strongest node is a cache-enabled
    user without the content.  Interference-limited regime only."""
    return _outage(cfg, 3, tier_j, tau, spec)


def outage_case4(cfg: NetworkConfig, tau: float) -> OutageResult:
    """Own-cache delivery involves no radio link; outage is exactly zero."""
    if tau < 0.0:
        raise ValueError("SINR threshold must be non-negative")
    return OutageResult(0.0, 4, 0, tau, 0.0)


def sinr_cdf(cfg: NetworkConfig, case_id: int, tier: int, tau: float,
             spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """CDF of the SINR at threshold ``tau`` for the given case/serving tier
    (identical to the outage probability at that threshold)."""
    if case_id == 4:
        return outage_case4(cfg, tau).value
    return _outage(cfg, case_id, tier, tau, spec).value
