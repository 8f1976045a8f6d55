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

import math

import numpy as np

from .config import NetworkConfig
from .rates import _coverage, _Kernels, _threshold_kernels


def sinr_cdf(cfg: NetworkConfig, case_id: int, tier: int, tau):
    """CDF of the SINR at threshold ``tau`` for the given case and serving
    tier, which is the outage probability P(SINR < tau).  Case 4 involves no
    radio link, so its outage is exactly zero at every tier.

    A float ``tau`` gives a float; a 1-D array (or sequence) of thresholds
    gives an array of outages, one per threshold, in one coverage pass.
    Every threshold must be finite and non-negative."""
    scalar = isinstance(tau, (int, float)) or np.ndim(tau) == 0
    taus = np.array([float(tau)]) if scalar else np.asarray(tau, dtype=float)
    if taus.ndim != 1:
        raise ValueError("SINR thresholds must be a float or a 1-D array")
    bad = [t for t in taus.tolist() if not 0.0 <= t < math.inf]
    if bad:
        raise ValueError(f"SINR threshold {bad[0]} must be non-negative and finite")
    if case_id == 4:
        return 0.0 if scalar else np.zeros(len(taus))
    # an array's kernels are kept for the next config; one threshold's are not
    kernels = _Kernels(taus, cfg.beta) if scalar else _threshold_kernels(cfg.beta, taus.tobytes())
    values = (1.0 - _coverage(cfg, case_id, tier, kernels)).tolist()
    bad = [v for v in values if not -1e-12 <= v <= 1.0 + 1e-12]
    if bad:
        raise ValueError(f"outage probability {bad[0]} outside [0, 1]")
    # the fixed rules take the coverage at tau ~ 0 to 1 + O(1e-15)
    values = [min(max(v, 0.0), 1.0) for v in values]
    return values[0] if scalar else np.array(values)
