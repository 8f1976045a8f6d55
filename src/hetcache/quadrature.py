"""Quadrature used by every integral-valued expression.

Adaptive integrals go through a thin contract layer over QUADPACK
(scipy.integrate.quad): tolerances and subdivision budgets are carried in a
QuadratureSpec, failures surface as QuadratureError with the partial
estimate attached.  Semi-infinite ranges are handled by QUADPACK's built-in
variable transformation.  Smooth integrands on the unit interval can instead
use a fixed Gauss-Legendre rule (``gauss_legendre``) evaluated as one array
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
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

    def tightened(self, factor: float = 0.1) -> "QuadratureSpec":
        """Spec for inner integrals of nested doubles: one order tighter,
        so the outer error estimate stays valid."""
        return replace(self, rel_tol=self.rel_tol * factor, abs_tol=self.abs_tol * factor)


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


def integrate_semi_infinite(f, spec: QuadratureSpec = DEFAULT_QUAD) -> tuple[float, float]:
    """Integrate f over [0, inf); returns (value, error estimate)."""
    return integrate_interval(f, 0.0, math.inf, spec)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], by
    Newton's method on the three-term Legendre recurrence (no linear algebra)."""
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(20):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        if np.max(np.abs(step)) < 1e-15:
            return (1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
        x = x - step
    raise ConvergenceError(f"Newton iteration for the {n}-point Gauss-Legendre nodes did not converge")
