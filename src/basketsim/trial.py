"""Single-trial mechanics: interim futility stops and the final analysis.

A trial consumes one pre-generated response sequence per basket.  Each basket
is checked at its scheduled interim looks on raw cumulative counts (no
borrowing at interim); a basket whose responses fall at or below the futility
boundary stops enrolling and leaves the final-analysis set.  At the final
analysis the surviving baskets borrow from each other, and each is claimed
promising when its posterior probability of exceeding the null response rate
strictly beats its efficacy cutoff.  Both steps take the whole trial in one
call and return one array entry per basket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .posterior import BasketData, posterior_params, prob_exceed
from .weights import BorrowingConfig, build_weight_matrix

__all__ = [
    "Look",
    "DesignSpec",
    "apply_interims",
    "final_analysis",
]


@dataclass(frozen=True)
class Look:
    """One interim analysis: stop the basket if responses <= the boundary."""

    size: int
    futility_max_responses: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"look size must be positive, got {self.size}")
        if not 0 <= self.futility_max_responses <= self.size:
            raise ValueError(
                f"futility boundary {self.futility_max_responses} outside [0, {self.size}]"
            )


@dataclass(frozen=True)
class DesignSpec:
    """Trial design: per-basket maximum sample sizes, interim schedules, null rate, alpha."""

    n_max: tuple[int, ...]
    looks: tuple[tuple[Look, ...], ...]
    p0: float
    alpha: float
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", tuple(int(v) for v in self.n_max))
        object.__setattr__(self, "looks", tuple(tuple(lk) for lk in self.looks))
        if not self.n_max:
            raise ValueError("design needs at least one basket")
        if len(self.looks) != len(self.n_max):
            raise ValueError("looks and n_max must have one entry per basket")
        for i, (nm, basket_looks) in enumerate(zip(self.n_max, self.looks)):
            if nm <= 0:
                raise ValueError(f"basket {i}: maximum sample size must be positive")
            prev = 0
            for lk in basket_looks:
                if lk.size <= prev:
                    raise ValueError(f"basket {i}: look sizes must be strictly increasing")
                if lk.size >= nm:
                    raise ValueError(f"basket {i}: look size {lk.size} must be < n_max {nm}")
                prev = lk.size
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"basket{i + 1}" for i in range(len(self.n_max)))
            )
        elif len(self.names) != len(self.n_max):
            raise ValueError("names must have one entry per basket")

    @property
    def n_baskets(self) -> int:
        return len(self.n_max)

    @classmethod
    def equal(
        cls,
        n_baskets: int,
        n_max: int,
        looks: Sequence[Look],
        p0: float,
        alpha: float,
    ) -> "DesignSpec":
        """Identical sample size and interim schedule for every basket."""
        return cls(
            (n_max,) * n_baskets,
            (tuple(looks),) * n_baskets,
            p0,
            alpha,
        )


def apply_interims(accrual: Sequence[Sequence[int]], design: DesignSpec) -> BasketData:
    """Run every basket's interim schedule on its potential response sequence.

    ``accrual[i]`` holds basket i's responses (0/1) for the full potential
    enrollment; it must be at least ``n_max[i]`` long (a padded rectangular
    array is fine, the tail is ignored).  Looks are evaluated in order on
    cumulative counts; the first violated boundary freezes the basket at that
    look's size and drops it from the final-analysis set.
    """
    B = design.n_baskets
    if len(accrual) != B:
        raise ValueError(f"expected {B} response sequences, got {len(accrual)}")
    for i, (seq, nm) in enumerate(zip(accrual, design.n_max)):
        if len(seq) < nm:
            raise ValueError(
                f"basket {i}: response sequence of length {len(seq)} is shorter "
                f"than n_max {nm}"
            )
    width = max(design.n_max)
    if isinstance(accrual, np.ndarray):
        responses = accrual[:, :width]
    else:  # sequences may differ in length: zero-pad each to the widest basket
        responses = np.zeros((B, width), dtype=np.int64)
        for i, (seq, nm) in enumerate(zip(accrual, design.n_max)):
            responses[i, :nm] = seq[:nm]
    cum = np.cumsum(responses, axis=1).tolist()
    y_out = []
    n_out = []
    for row, nm, looks in zip(cum, design.n_max, design.looks):
        size = next(
            (lk.size for lk in looks if row[lk.size - 1] <= lk.futility_max_responses), nm
        )
        y_out.append(row[size - 1])
        n_out.append(size)
    # every look comes before n_max, so a basket is active iff it reached n_max
    active = tuple(n == nm for n, nm in zip(n_out, design.n_max))
    return BasketData(tuple(y_out), tuple(n_out), active)


def final_analysis(
    data: BasketData,
    config: BorrowingConfig,
    cutoffs: Optional[Sequence[float]],
    p0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Borrow among active baskets; return posterior probabilities and decisions.

    Returns ``(q, promising)``, one entry per basket.  Basket i is promising
    iff it survived the interims and ``q[i]`` strictly exceeds its cutoff.
    Stopped baskets record probability 0 and can never be promising.  With
    ``cutoffs=None`` only the posterior probabilities are produced and no
    basket is flagged promising.
    """
    B = data.n_baskets
    if cutoffs is not None:
        cutoffs = tuple(float(c) for c in cutoffs)
        if len(cutoffs) != B:
            raise ValueError(f"expected {B} cutoffs, got {len(cutoffs)}")
        for c in cutoffs:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"cutoffs must lie in [0, 1], got {c!r}")
    weights = build_weight_matrix(config, data)
    shape1, shape2 = posterior_params(data, config.prior, weights)
    q = np.where(data.active, prob_exceed(shape1, shape2, p0), 0.0)
    if cutoffs is None:
        return q, np.zeros(B, dtype=bool)
    # cutoffs are nonnegative, so a stopped basket's q = 0 never exceeds one
    return q, q > cutoffs
