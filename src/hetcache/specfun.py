"""The interference kernels and the one Gauss hypergeometric family they use.

  * Z1 = 2v/(beta-2) F_(1-2/beta)(v), and Z2 needs no 2F1; both take a
    float or an array of thresholds, so a table of them is one array pass,
  * ``kernel_x2z3`` is x^2 * Z3 on an array of x (and thresholds), written
    through the complementary family F_(2/beta) so that it stays finite and
    smooth down to x = 0 (no x^(-beta) is ever formed).

Every kernel argument is non-negative and finite, so the kernels need one
family on the real axis, F_b(z) = 2F1(1, b; 1+b; -z) with z >= 0 and
0 < b < 1 (``_family_2f1``), computed in numpy from two exact identities:

  * z <= 1, Pfaff (DLMF 15.8.1): F_b(z) = (1+z)^-1 sum_n n!/(1+b)_n w^n
    with w = z/(1+z) <= 1/2, so 59 terms reach 1e-17; the coefficients are
    kept per b and summed by Horner's rule over the argument array in one
    buffer,
  * z > 1, z -> 1/z (DLMF 15.8.2): F_b(z) = (pi b / sin pi b) z^-b
    - b/(1-b) z^-1 F_(1-b)(1/z), whose F_(1-b) is again the Pfaff sum.

So ``import hetcache`` loads no scipy module.  ``gauss_2f1``, the general
2F1 for real z < 1, is scipy's ``hyp2f1`` ufunc with domain checks; no
kernel calls it, and it imports ``scipy.special`` on its first call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# terms of the Pfaff sum: at w <= 1/2 with coefficients <= 1, the rest is
# below 2^-58 < 1e-17 of the sum
_PFAFF_TERMS = 59


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1."""
    from scipy import special

    if c <= 1e-12 and abs(c - round(c)) < 1e-12:
        raise ValueError(f"2F1 parameter pole: c = {c} is a non-positive integer")
    if z >= 1.0:
        raise ValueError(f"argument z = {z} outside the supported branch z < 1")
    return float(special.hyp2f1(a, b, c, z))


@functools.lru_cache(maxsize=8)
def _pfaff_coefficients(b: float) -> tuple[float, ...]:
    """n!/(1+b)_n for n < ``_PFAFF_TERMS``, highest order first."""
    c = [1.0]
    for n in range(1, _PFAFF_TERMS):
        c.append(c[-1] * n / (n + b))
    return tuple(reversed(c))


def _pfaff_sum(w: np.ndarray, b: float) -> np.ndarray:
    """sum_n n!/(1+b)_n w^n at each 0 <= w <= 1/2, by Horner's rule in one
    buffer (no array of powers)."""
    coefficients = _pfaff_coefficients(b)
    acc = np.full_like(w, coefficients[0])
    for c in coefficients[1:]:
        acc *= w
        acc += c
    return acc


def _family_2f1(z, b: float) -> np.ndarray:
    """F_b(z) = 2F1(1, b; 1+b; -z) at each z >= 0, for 0 < b < 1: the Pfaff
    sum at z <= 1 and the z -> 1/z identity above, element by element, so
    an entry does not depend on the rest of the array."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    near = z <= 1.0
    zn = z[near]
    out[near] = _pfaff_sum(zn / (1.0 + zn), b) / (1.0 + zn)
    zf = z[~near]
    zf1 = 1.0 + zf
    # sin(pi b) as sin(pi (1 - b)) for b > 1/2, where pi b would lose digits near pi
    out[~near] = (math.pi * b / math.sin(math.pi * min(b, 1.0 - b)) * zf ** -b
                  - b / (1.0 - b) * _pfaff_sum(1.0 / zf1, 1.0 - b) / zf1)
    return out


def check_path_loss_exponent(beta: float) -> None:
    """Raise ``ValueError`` unless beta > 2: at beta <= 2 the interference
    of a Poisson field diverges, so no kernel, rate or outage is finite."""
    if beta <= 2.0:
        raise ValueError(f"path-loss exponent beta = {beta}: interference diverges unless beta > 2")


def _kernel_argument(v, beta: float) -> np.ndarray:
    """``v`` as a float array, after the checks every kernel makes: beta > 2
    and 0 <= v < inf (a NaN fails too)."""
    check_path_loss_exponent(beta)
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0.0) & (v < math.inf)):
        raise ValueError("kernel argument must be non-negative and finite")
    return v


def kernel_z1(v, beta: float):
    """Interference kernel with near-field exclusion at the serving distance.

    Z1(v) = (2v / (beta-2)) * 2F1(1, 1-2/beta; 2-2/beta; -v)
          = v^(2/beta) * int_{v^(-2/beta)}^inf du / (1 + u^(beta/2)).

    ``v`` is a float or an array; an array gives an array.
    """
    v = _kernel_argument(v, beta)
    z = 2.0 * v / (beta - 2.0) * _family_2f1(v, 1.0 - 2.0 / beta)
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
    z = pos ** e * (kernel_z2_scale(beta) - eps * _family_2f1(x ** beta / pos, e))
    return np.where(v > 0.0, z, 0.0)


def kernel_z2_scale(beta: float) -> float:
    """Large-argument slope of Z1 and the prefactor of Z2:
    (2 pi / beta) / sin(2 pi / beta)."""
    check_path_loss_exponent(beta)
    return (2.0 * math.pi / beta) / math.sin(2.0 * math.pi / beta)
