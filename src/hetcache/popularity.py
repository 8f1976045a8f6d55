"""Zipf content-popularity model and prefix sums.

The popularity of the rank-``i`` content is f_i = i^(-gamma) / sum_j j^(-gamma).
The normalizer is computed once by direct summation (catalogs up to ~1e6
contents are assumed; no zeta-function approximation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PopularityModel:
    gamma: float
    n_contents: int
    # prefix[k] = sum of f_1..f_k, prefix[0] = 0; filled in __post_init__
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise ValueError("Zipf skew gamma must be >= 0")
        if self.n_contents < 1:
            raise ValueError("catalog must contain at least one content")
        ranks = np.arange(1, self.n_contents + 1, dtype=float)
        weights = ranks ** (-self.gamma)
        mass = weights / weights.sum()
        prefix = np.concatenate(([0.0], np.cumsum(mass)))
        prefix.setflags(write=False)
        object.__setattr__(self, "_prefix", prefix)

    def prefix_sum(self, a: int, b: int) -> float:
        """F(a, b) = sum_{i=a..b} f_i; by convention F(a, b) = 0 when a > b."""
        if a > b:
            return 0.0
        if a < 1 or b > self.n_contents:
            raise ValueError(f"rank range [{a}, {b}] outside catalog [1, {self.n_contents}]")
        return float(self._prefix[b] - self._prefix[a - 1])
