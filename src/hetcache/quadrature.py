"""Quadrature used by every integral-valued expression.

Adaptive integrals go through a thin contract layer over QUADPACK
(scipy.integrate.quad): tolerances and subdivision budgets are carried in a
QuadratureSpec, failures surface as QuadratureError with the partial
estimate attached.  Semi-infinite ranges are handled by QUADPACK's built-in
variable transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .specfun import ConvergenceError


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("need at least one subdivision")


DEFAULT_QUAD = QuadratureSpec()


class QuadratureError(ConvergenceError):
    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


def integrate_interval(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD) -> tuple[float, float]:
    """Integrate f over [a, b] (b may be math.inf); returns (value, error estimate)."""
    out = integrate.quad(
        f, a, b,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=1,
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
