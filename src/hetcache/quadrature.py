"""Quadrature contract shared by the library's fixed rules.

No library integral is adaptive any more: rates and the noisy distance
integral of cases 1/2 run on one fixed double-exponential rule and case 3
on a fixed Gauss-Legendre rule (all in ``rates.py``).  This module holds
their tolerances, relative 1e-8 and absolute 1e-12, and the error a rate
raises when its rule does not converge, QuadratureError with the partial
estimate attached.  ``integrate_interval``, public but called by no
library module, is a thin QUADPACK (scipy.integrate.quad) wrapper at those
tolerances with at most 200 subdivisions; semi-infinite ranges use
QUADPACK's built-in variable transformation.  ``scipy.integrate`` loads on
its first call, so ``import hetcache`` does not pay for it.
"""

from __future__ import annotations

import math


# tolerance of a rate and of integrate_interval
EPSREL, EPSABS = 1e-8, 1e-12


class QuadratureError(RuntimeError):
    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


def integrate_interval(f, a: float, b: float) -> tuple[float, float]:
    """Integrate f over [a, b] (b may be math.inf); returns (value, error
    estimate)."""
    from scipy import integrate

    out = integrate.quad(f, a, b, epsabs=EPSABS, epsrel=EPSREL, limit=200, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:  # a warning message is present
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {out[3]} (partial estimate {value:.6e})",
            partial=value,
        )
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature on [{a}, {b}] returned non-finite value", partial=value)
    return value, err
