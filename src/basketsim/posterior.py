"""Beta-binomial posterior math for multi-basket borrowing.

Everything here is a pure function of its inputs: priors and counts go in,
beta shape parameters, tail probabilities and borrowing factors come out.
Posteriors under weighted borrowing stay conjugate, so no sampling is ever
needed.  Each function covers a whole trial at once, one array entry per
basket, and ``block_posterior_params`` a whole block of trials, one row per
trial; weighted donor sums are added in ascending donor order, so every
entry is bit-identical to a scalar loop over the donors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

__all__ = [
    "BetaParams",
    "PriorSpec",
    "BasketData",
    "prob_exceed",
    "posterior_params",
    "block_posterior_params",
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
    baskets never donate data to others.
    """

    y: tuple[int, ...]
    n: tuple[int, ...]
    active: tuple[bool, ...]

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

    @classmethod
    def all_active(cls, y: Sequence[int], n: Sequence[int]) -> "BasketData":
        return cls(tuple(y), tuple(n), (True,) * len(tuple(y)))

    @property
    def n_baskets(self) -> int:
        return len(self.y)


def prob_exceed(shape1, shape2, p0: float):
    """Posterior probability that the response rate exceeds ``p0``, elementwise.

    Returns 1 - I_p0(shape1, shape2) with I the regularized incomplete beta,
    an array for array shapes and a scalar for scalar ones.
    """
    if not (0.0 < p0 < 1.0):
        raise ValueError(f"p0 must lie in (0, 1), got {p0!r}")
    return 1.0 - betainc(shape1, shape2, p0)


def _check_weights(weights: np.ndarray, B: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (B, B):
        raise ValueError(f"weight matrix must be {B}x{B}, got {w.shape}")
    return w


def block_posterior_params(
    y: np.ndarray,
    n: np.ndarray,
    active: np.ndarray,
    prior: PriorSpec,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Beta posterior shapes of every basket of a block of trials under weighted borrowing.

    ``y``, ``n`` and ``active`` are (R, B) arrays and ``weights`` is (R, B, B),
    one trial per row.  shape1[r, i] = b1_i + y_ri + sum_{j != i, active} w_rij * y_rj
    and likewise for shape2 with the non-responder counts.  Futility-stopped
    baskets never contribute to the sums; basket i itself always uses its own
    data, so the posterior of a stopped basket is its borrow-free posterior.
    Weights must be finite; the diagonal is ignored.
    """
    B = np.shape(y)[1]
    if prior.n_baskets != B:
        raise ValueError("prior and data disagree on the number of baskets")
    weights = np.asarray(weights, dtype=float)
    active = np.asarray(active, dtype=bool)
    counts = np.array([y, n], dtype=float)
    counts[1] -= counts[0]  # row 0 responders, row 1 non-responders
    # start from prior + own count, then add w_rij * count_rj for ascending j,
    # as a loop over the donors would; basket i's own column and the stopped
    # baskets' columns weigh nothing, and adding their zero leaves the sum
    shapes = np.array([prior.b1, prior.b2])[:, None, :] + counts
    for j in range(B):
        donor = weights[:, :, j] * active[:, j, None]
        donor[:, j] = 0.0
        shapes += donor * counts[:, :, j, None]
    if not (shapes.min(initial=np.inf) > 0.0 and shapes.max(initial=0.0) < np.inf):
        raise ValueError(f"posterior shapes must be positive and finite, got {shapes}")
    return shapes[0], shapes[1]


def posterior_params(
    data: BasketData,
    prior: PriorSpec,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Beta posterior shapes of every basket of one trial: ``block_posterior_params``
    of a block of one."""
    w = _check_weights(weights, data.n_baskets)
    shape1, shape2 = block_posterior_params(
        np.array([data.y]), np.array([data.n]), np.array([data.active]), prior, w[None]
    )
    return shape1[0], shape2[0]


def borrowing_factor(data: BasketData, weights: np.ndarray) -> np.ndarray:
    """Equivalent borrowed subjects relative to each basket's own sample size."""
    B = data.n_baskets
    n = np.array(data.n, dtype=float)
    terms = np.where(np.eye(B, dtype=bool), 0.0, _check_weights(weights, B)) * n
    # cumsum adds w_ik * n_k left to right over k, skipping k = i by its zero
    return np.cumsum(terms, axis=1)[:, -1] / n
