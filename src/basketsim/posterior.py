"""Beta-binomial posterior math for multi-basket borrowing.

Everything here is a pure function of its inputs: priors and counts go in,
beta shape parameters, tail probabilities and borrowing factors come out.
Posteriors under weighted borrowing stay conjugate, so no sampling is ever
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import betainc

__all__ = [
    "BetaParams",
    "PriorSpec",
    "BasketData",
    "prob_exceed",
    "posterior_params",
    "borrowing_factor",
]


@dataclass(frozen=True)
class BetaParams:
    """Shape pair of a beta distribution; both entries strictly positive."""

    shape1: float
    shape2: float

    def __post_init__(self) -> None:
        for name, v in (("shape1", self.shape1), ("shape2", self.shape2)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @property
    def ess(self) -> float:
        """Effective sample size: sum of the two shapes."""
        return self.shape1 + self.shape2

    def mean(self) -> float:
        return self.shape1 / (self.shape1 + self.shape2)


@dataclass(frozen=True)
class PriorSpec:
    """Per-basket beta prior hyperparameters (pseudo-responders, pseudo-non-responders)."""

    b1: tuple[float, ...]
    b2: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b1", tuple(float(v) for v in self.b1))
        object.__setattr__(self, "b2", tuple(float(v) for v in self.b2))
        if len(self.b1) != len(self.b2):
            raise ValueError("b1 and b2 must have the same length")
        if not self.b1:
            raise ValueError("prior must cover at least one basket")
        for v in self.b1 + self.b2:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"prior hyperparameters must be positive, got {v!r}")

    @classmethod
    def shared(cls, b1: float, b2: float, n_baskets: int) -> "PriorSpec":
        """Same (b1, b2) pair for every basket."""
        return cls((float(b1),) * n_baskets, (float(b2),) * n_baskets)

    @property
    def n_baskets(self) -> int:
        return len(self.b1)


@dataclass(frozen=True)
class BasketData:
    """Observed counts per basket plus the set still in the final analysis.

    ``active[i]`` is False for baskets that stopped early for futility; those
    baskets never donate data to others.  ``stopped_at`` optionally records
    the 0-based interim look index at which each basket stopped (None while
    active).
    """

    y: tuple[int, ...]
    n: tuple[int, ...]
    active: tuple[bool, ...]
    stopped_at: Optional[tuple[Optional[int], ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "active", tuple(bool(v) for v in self.active))
        if not (len(self.y) == len(self.n) == len(self.active)) or not self.y:
            raise ValueError("y, n and active must share a common positive length")
        for yi, ni in zip(self.y, self.n):
            if ni <= 0:
                raise ValueError(f"enrolled count must be positive, got {ni}")
            if not 0 <= yi <= ni:
                raise ValueError(f"response count {yi} outside [0, {ni}]")
        if self.stopped_at is not None and len(self.stopped_at) != len(self.y):
            raise ValueError("stopped_at length must match the basket count")

    @classmethod
    def all_active(cls, y: Sequence[int], n: Sequence[int]) -> "BasketData":
        return cls(tuple(y), tuple(n), (True,) * len(tuple(y)))

    @property
    def n_baskets(self) -> int:
        return len(self.y)


def prob_exceed(params: BetaParams, p0: float) -> float:
    """Posterior probability that the response rate exceeds ``p0``.

    Returns 1 - I_p0(shape1, shape2) with I the regularized incomplete beta.
    """
    if not (0.0 < p0 < 1.0):
        raise ValueError(f"p0 must lie in (0, 1), got {p0!r}")
    return float(1.0 - betainc(params.shape1, params.shape2, p0))


def posterior_params(
    i: int,
    data: BasketData,
    prior: PriorSpec,
    weights: np.ndarray,
) -> BetaParams:
    """Beta posterior for basket ``i`` under weighted borrowing.

    shape1 = b1_i + y_i + sum_{j != i, active} w_ij * y_j and likewise for
    shape2 with the non-responder counts.  Futility-stopped baskets never
    contribute to the sums; basket ``i`` itself always uses its own data, so
    the posterior of a stopped basket is its borrow-free posterior.
    """
    B = data.n_baskets
    if not 0 <= i < B:
        raise IndexError(f"basket index {i} out of range for {B} baskets")
    if prior.n_baskets != B:
        raise ValueError("prior and data disagree on the number of baskets")
    w = np.asarray(weights, dtype=float)
    if w.shape != (B, B):
        raise ValueError(f"weight matrix must be {B}x{B}, got {w.shape}")
    shape1 = prior.b1[i] + data.y[i]
    shape2 = prior.b2[i] + (data.n[i] - data.y[i])
    for j in range(B):
        if j == i or not data.active[j]:
            continue
        shape1 += w[i, j] * data.y[j]
        shape2 += w[i, j] * (data.n[j] - data.y[j])
    return BetaParams(shape1, shape2)


def borrowing_factor(i: int, data: BasketData, weights: np.ndarray) -> float:
    """Equivalent borrowed subjects relative to basket ``i``'s own sample size."""
    B = data.n_baskets
    if not 0 <= i < B:
        raise IndexError(f"basket index {i} out of range for {B} baskets")
    w = np.asarray(weights, dtype=float)
    if w.shape != (B, B):
        raise ValueError(f"weight matrix must be {B}x{B}, got {w.shape}")
    borrowed = sum(w[i, k] * data.n[k] for k in range(B) if k != i)
    return float(borrowed / data.n[i])
