"""Gauss hypergeometric function on the real axis and the interference kernels.

Only the real branch z < 1 is supported: every kernel argument below is
non-positive, so no complex continuation is needed.  Evaluation strategy:

  * 2F1 is scipy's ``hyp2f1`` ufunc; ``gauss_2f1`` adds the domain checks
    (pole in c, z >= 1) for a scalar argument,
  * Z1 is a closed form in 2F1(1, 1-2/beta; 2-2/beta; .) and Z2 needs no
    2F1; both take a float or an array of thresholds, so a table of them is
    one ufunc call,
  * ``kernel_x2z3`` is x^2 * Z3 on an array of x (and thresholds), written
    through the complementary family 2F1(1, 2/beta; 1+2/beta; .) so that it
    stays finite and smooth down to x = 0 (no x^(-beta) is ever formed).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1."""
    if c <= 1e-12 and abs(c - round(c)) < 1e-12:
        raise ValueError(f"2F1 parameter pole: c = {c} is a non-positive integer")
    if z >= 1.0:
        raise ValueError(f"argument z = {z} outside the supported branch z < 1")
    return float(special.hyp2f1(a, b, c, z))


def check_path_loss_exponent(beta: float) -> None:
    """Raise ``ValueError`` unless beta > 2: at beta <= 2 the interference
    of a Poisson field diverges, so no kernel, rate or outage is finite."""
    if beta <= 2.0:
        raise ValueError(f"path-loss exponent beta = {beta}: interference diverges unless beta > 2")


def _kernel_argument(v, beta: float) -> np.ndarray:
    """``v`` as a float array, after the checks every kernel makes: beta > 2
    and v >= 0."""
    check_path_loss_exponent(beta)
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise ValueError("kernel argument must be non-negative")
    return v


def kernel_z1(v, beta: float):
    """Interference kernel with near-field exclusion at the serving distance.

    Z1(v) = (2v / (beta-2)) * 2F1(1, 1-2/beta; 2-2/beta; -v)
          = v^(2/beta) * int_{v^(-2/beta)}^inf du / (1 + u^(beta/2)).

    ``v`` is a float or an array; an array gives an array.
    """
    v = _kernel_argument(v, beta)
    z = 2.0 * v / (beta - 2.0) * special.hyp2f1(1.0, 1.0 - 2.0 / beta, 2.0 - 2.0 / beta, -v)
    return z if z.ndim else float(z)


def kernel_z2(v, beta: float):
    """Interference kernel for interferers allowed arbitrarily close:
    Z2 = v^(2/beta) * int_0^inf du / (1 + u^(beta/2))
       = v^(2/beta) * (2 pi / beta) / sin(2 pi / beta).

    ``v`` is a float or an array; an array gives an array.
    """
    v = _kernel_argument(v, beta)
    z = v ** (2.0 / beta) * kernel_z2_scale(beta)
    return z if z.ndim else float(z)


def kernel_x2z3(v, x: np.ndarray, beta: float) -> np.ndarray:
    """x^2 * Z3(v; x) on an array of x in [0, 1], finite at x = 0.

    With eps = x^2 v^(-2/beta), the integral below the exclusion radius is
    int_0^eps du / (1 + u^(beta/2)) = eps 2F1(1, 2/beta; 1+2/beta; -eps^(beta/2)),
    so x^2 Z1(v x^(-beta)) = v^(2/beta) [K - eps 2F1(...)] with
    K = kernel_z2_scale(beta): v^(2/beta) K - x^2 + O(x^(2+beta)) near 0.

    ``v`` and ``x`` broadcast: a column of thresholds against a row of x
    gives the (threshold x distance) grid.  The kernel is 0 where v = 0.
    """
    v = _kernel_argument(v, beta)
    e = 2.0 / beta
    pos = np.where(v > 0.0, v, 1.0)
    eps = x * x * pos ** -e
    z = pos ** e * (kernel_z2_scale(beta) - eps * special.hyp2f1(1.0, e, 1.0 + e, -(x ** beta) / pos))
    return np.where(v > 0.0, z, 0.0)


def kernel_z2_scale(beta: float) -> float:
    """Large-argument slope of Z1 and the prefactor of Z2:
    (2 pi / beta) / sin(2 pi / beta)."""
    check_path_loss_exponent(beta)
    return (2.0 * math.pi / beta) / math.sin(2.0 * math.pi / beta)
