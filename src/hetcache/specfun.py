"""Gauss hypergeometric function on the real axis and the interference kernels.

Only the real branch z < 1 is supported: every kernel argument below is
non-positive, so no complex continuation is needed.  Evaluation strategy:

  * 2F1 is scipy's ``hyp2f1`` ufunc; ``gauss_2f1`` adds the domain checks
    (pole in c, z >= 1) and stays the one scalar entry point,
  * Z1, Z3 and the cut-off Z2 are scalar closed forms in
    2F1(1, 1-2/beta; 2-2/beta; .); the a = 0 Z2 needs no 2F1,
  * ``kernel_x2z3`` is x^2 * Z3 on an array of x, written through the
    complementary family 2F1(1, 2/beta; 1+2/beta; .) so that it stays finite
    and smooth down to x = 0 (no x^(-beta) is ever formed).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class ConvergenceError(RuntimeError):
    """An iteration or quadrature failed to reach the requested accuracy."""


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1."""
    if c <= 1e-12 and abs(c - round(c)) < 1e-12:
        raise ValueError(f"2F1 parameter pole: c = {c} is a non-positive integer")
    if z >= 1.0:
        raise ValueError(f"argument z = {z} outside the supported branch z < 1")
    return float(special.hyp2f1(a, b, c, z))


def _check_beta(beta: float) -> None:
    if beta <= 2.0:
        raise ValueError(
            f"path-loss exponent beta = {beta} makes the interference integral diverge (need beta > 2)"
        )


def kernel_z1(v: float, beta: float) -> float:
    """Interference kernel with near-field exclusion at the serving distance.

    Z1(v) = (2v / (beta-2)) * 2F1(1, 1-2/beta; 2-2/beta; -v)
          = v^(2/beta) * int_{v^(-2/beta)}^inf du / (1 + u^(beta/2)).
    """
    _check_beta(beta)
    if v < 0.0:
        raise ValueError("kernel argument must be non-negative")
    if v == 0.0:
        return 0.0
    return 2.0 * v / (beta - 2.0) * gauss_2f1(1.0, 1.0 - 2.0 / beta, 2.0 - 2.0 / beta, -v)


def kernel_z2(v: float, beta: float, a: float = 0.0) -> float:
    """Interference kernel for interferers allowed arbitrarily close.

    For a = 0 (the default, taken as the exact analytic limit):
    Z2 = v^(2/beta) * int_0^inf du / (1 + u^(beta/2))
       = v^(2/beta) * (2 pi / beta) / sin(2 pi / beta).
    For a > 0 the lower cutoff is kept for sensitivity checks.
    """
    _check_beta(beta)
    if v < 0.0 or a < 0.0:
        raise ValueError("kernel arguments must be non-negative")
    if v == 0.0:
        return 0.0
    if a == 0.0:
        return v ** (2.0 / beta) * (2.0 * math.pi / beta) / math.sin(2.0 * math.pi / beta)
    return (
        v ** (2.0 / beta)
        * (2.0 * a ** ((2.0 - beta) / 2.0) / (beta - 2.0))
        * gauss_2f1(1.0, 1.0 - 2.0 / beta, 2.0 - 2.0 / beta, -(a ** (-beta / 2.0)))
    )


def kernel_z3(v: float, x: float, beta: float) -> float:
    """Interference kernel at normalized serving-vs-blocker distance x in (0, 1].

    Z3(v; x) = (2v / (beta-2)) x^(-beta) 2F1(1, 1-2/beta; 2-2/beta; -v x^(-beta)),
    which equals Z1(v * x^(-beta)).  Diverges as x -> 0; integrals against an
    x^2 weight use ``kernel_x2z3`` instead.
    """
    _check_beta(beta)
    if v < 0.0:
        raise ValueError("kernel argument must be non-negative")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"normalized distance x = {x} outside (0, 1]")
    if v == 0.0:
        return 0.0
    return kernel_z1(v * x ** (-beta), beta)


def kernel_x2z3(v: float, x: np.ndarray, beta: float) -> np.ndarray:
    """x^2 * Z3(v; x) on an array of x in [0, 1], finite at x = 0.

    With eps = x^2 v^(-2/beta), the integral below the exclusion radius is
    int_0^eps du / (1 + u^(beta/2)) = eps 2F1(1, 2/beta; 1+2/beta; -eps^(beta/2)),
    so x^2 Z1(v x^(-beta)) = v^(2/beta) [K - eps 2F1(...)] with
    K = kernel_z2_scale(beta): v^(2/beta) K - x^2 + O(x^(2+beta)) near 0.
    """
    _check_beta(beta)
    if v < 0.0:
        raise ValueError("kernel argument must be non-negative")
    if v == 0.0:
        return np.zeros_like(x)
    e = 2.0 / beta
    eps = x * x * v ** -e
    return v ** e * (kernel_z2_scale(beta) - eps * special.hyp2f1(1.0, e, 1.0 + e, -(x ** beta) / v))


def kernel_z2_scale(beta: float) -> float:
    """Large-argument slope of Z1 and the a=0 prefactor of Z2:
    (2 pi / beta) / sin(2 pi / beta)."""
    _check_beta(beta)
    return (2.0 * math.pi / beta) / math.sin(2.0 * math.pi / beta)
