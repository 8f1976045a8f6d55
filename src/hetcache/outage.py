"""Outage probability (SINR CDF at a threshold) of the content-access cases.

``sinr_cdf`` is the one outage entry point.  The outage of a radio case is
one minus its coverage at the threshold, from the single coverage function
per case in ``rates.py``: closed forms for cases 1/2 without noise, a
distance integral on a fixed double-exponential rule with noise, and
case 3's fixed-rule integral over the normalized blocker distance
(interference-limited only).  Case 4 (own cache) never
experiences outage.

The threshold ``tau`` may be a float or a 1-D array of thresholds.  An
array is evaluated in one coverage pass, and each of its values is
bit-identical to the float call at that threshold, so a CDF curve costs one
call per (config, case) rather than one per threshold.  The kernels of a
threshold array depend only on beta, so they are tabulated once per
(beta, thresholds) and shared across configs, as a sweep over alpha asks.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig
from .rates import _coverage, _Kernels, _threshold_kernels


def sinr_cdf(cfg: NetworkConfig, case_id: int, tier: int, tau):
    """CDF of the SINR at threshold ``tau`` for the given case and serving
    tier, which is the outage probability P(SINR < tau).  Case 4 involves no
    radio link, so its outage is exactly zero at every tier.

    A float ``tau`` gives a float; a 1-D array (or sequence) of thresholds
    gives an array of outages, one per threshold."""
    if not isinstance(tau, (int, float)):
        taus = np.asarray(tau, dtype=float)
        if taus.ndim == 1:
            return _sinr_cdf_array(cfg, case_id, tier, taus)
        if taus.ndim:
            raise ValueError("SINR thresholds must be a float or a 1-D array")
        tau = float(taus)
    if not tau >= 0.0:
        raise ValueError(f"SINR threshold {tau} must be non-negative")
    if case_id == 4:
        return 0.0
    value = 1.0 - float(_coverage(cfg, case_id, tier, _Kernels(np.array([float(tau)]), cfg.beta))[0])
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"outage probability {value} outside [0, 1]")
    return value


def _sinr_cdf_array(cfg: NetworkConfig, case_id: int, tier: int, taus: np.ndarray) -> np.ndarray:
    """``sinr_cdf`` on a 1-D threshold array, under the float path's checks."""
    non_negative = taus >= 0.0
    if not non_negative.all():
        raise ValueError(f"SINR threshold {taus[~non_negative][0]} must be non-negative")
    if case_id == 4:
        return np.zeros(len(taus))
    values = 1.0 - _coverage(cfg, case_id, tier, _threshold_kernels(cfg.beta, taus.tobytes()))
    valid = (values >= -1e-12) & (values <= 1.0 + 1e-12)
    if not valid.all():
        raise ValueError(f"outage probability {values[~valid][0]} outside [0, 1]")
    return values
