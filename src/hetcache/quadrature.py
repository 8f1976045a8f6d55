"""Adaptive quadrature for the one integral that is not on a fixed rule.

Rates run on a fixed double-exponential rule and case 3 on a fixed
Gauss-Legendre rule (both in ``rates.py``).  QUADPACK (scipy.integrate.quad)
serves only the distance integral of the noisy coverage of cases 1/2, once
per threshold, through a thin contract layer with fixed tolerances:
relative 1e-8 and absolute 1e-12, one order tighter when the coverage is
integrated into a rate, and at most 200 subdivisions.  Failures surface as
QuadratureError with the partial estimate attached; the rate rule raises
the same error.  Semi-infinite ranges are handled by QUADPACK's built-in
variable transformation.
"""

from __future__ import annotations

import math

from scipy import integrate


# tolerance of an integral that no other integral encloses
EPSREL, EPSABS = 1e-8, 1e-12


class QuadratureError(RuntimeError):
    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


def integrate_interval(f, a: float, b: float, nested: bool = False) -> tuple[float, float]:
    """Integrate f over [a, b] (b may be math.inf); returns (value, error
    estimate).  ``nested`` marks an integral evaluated inside an outer one,
    which runs one order tighter so that the outer estimate holds."""
    out = integrate.quad(
        f, a, b,
        epsabs=1e-13 if nested else EPSABS, epsrel=1e-9 if nested else EPSREL,
        limit=200, full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:  # a warning message is present
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {out[3]} (partial estimate {value:.6e})",
            partial=value,
        )
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature on [{a}, {b}] returned non-finite value", partial=value)
    return value, err
