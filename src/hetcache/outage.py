"""Outage probability (SINR CDF at a threshold) of the content-access cases.

``sinr_cdf`` is the one outage entry point.  The outage of a radio case is
one minus its coverage at the threshold, from the single coverage function
per case in ``rates.py``: closed forms for cases 1/2 without noise, a
distance integral on a fixed double-exponential rule with noise, and
case 3's fixed-rule integral over the normalized blocker distance
(interference-limited only).  Case 4 (own cache) never
experiences outage.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig
from .rates import _coverage, _Kernels


def sinr_cdf(cfg: NetworkConfig, case_id: int, tier: int, tau: float) -> float:
    """CDF of the SINR at threshold ``tau`` for the given case and serving
    tier, which is the outage probability P(SINR < tau).  Case 4 involves no
    radio link, so its outage is exactly zero at every tier."""
    if tau < 0.0:
        raise ValueError("SINR threshold must be non-negative")
    if case_id == 4:
        return 0.0
    value = 1.0 - float(_coverage(cfg, case_id, tier, _Kernels(np.array([float(tau)]), cfg.beta))[0])
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"outage probability {value} outside [0, 1]")
    return value
