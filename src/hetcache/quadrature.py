"""Quadrature used by every integral-valued expression.

Adaptive integrals go through a thin contract layer over QUADPACK
(scipy.integrate.quad) with fixed tolerances: relative 1e-8 and absolute
1e-12, one order tighter for an integrand that is itself evaluated inside
an outer integral, and at most 200 subdivisions.  Failures surface as
QuadratureError with the partial estimate attached.  Semi-infinite ranges
are handled by QUADPACK's built-in variable transformation.
"""

from __future__ import annotations

import math

from scipy import integrate


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
        epsabs=1e-13 if nested else 1e-12, epsrel=1e-9 if nested else 1e-8,
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
