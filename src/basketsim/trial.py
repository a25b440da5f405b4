"""Trial mechanics: interim futility stops and the final analysis.

A trial consumes one pre-generated response sequence per basket.  Each basket
is checked at its scheduled interim looks on raw cumulative counts (no
borrowing at interim); a basket whose responses fall at or below the futility
boundary stops enrolling and leaves the final-analysis set.  At the final
analysis a trial's surviving baskets borrow from each other, and each gets its
posterior probability of exceeding the null response rate; the efficacy
decisions are made per stream, in ``metrics.compute_metrics``.  Both stages
take a whole block of trials in one call (``apply_interims``, ``evaluate_q``);
``final_analysis`` is the final analysis of one trial.  A trial's similarity
matrix depends only on the multiset of its baskets' prior rows and states,
and each posterior adds its donors in one canonical order
(``posterior.block_posterior_params``), so a basket's q is a function of its
own data and the multiset of the other baskets.  Trials whose baskets are
permutations of one another form one class (``weights.similarity_classes``),
and their q are one q up to that order.  The process keeps each class's q
under every config of a call in ascending code order (``weights.class_table``);
``evaluate_q`` analyses only the classes that no earlier block of the process
has met, from the first trial of each, then gathers every trial's q from the
table in its own basket order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# posterior_params is unused here, but bench/tracer.py hooks it under this module
from .posterior import BasketData, block_posterior_params, posterior_params, prob_exceed
from .weights import (
    BorrowingConfig,
    build_weight_matrix,
    class_table,
    prefill_weights,
    similarity_classes,
    similarity_config,
    transform_block,
)

__all__ = [
    "Look",
    "DesignSpec",
    "apply_interims",
    "evaluate_q",
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


def apply_interims(accrual: np.ndarray, design: DesignSpec) -> tuple[np.ndarray, ...]:
    """Run every basket's interim schedule on a block of trials.

    ``accrual`` has shape (R, B, width) and holds 0/1 (or bool) responses for
    each trial's full potential enrollment; ``width`` must reach the largest
    ``n_max``, and a basket's entries past its own ``n_max`` are ignored.
    Returns ``(y, n, active)`` as (R, B) arrays.  The first violated boundary,
    on cumulative counts, freezes a basket at that look's size and drops it
    from the final-analysis set.
    """
    accrual, B, width = np.asarray(accrual), design.n_baskets, max(design.n_max)
    if accrual.ndim != 3 or accrual.shape[1] != B:
        raise ValueError(f"expected a block of shape (R, {B}, width), got {accrual.shape}")
    if accrual.shape[2] < width:
        raise ValueError(f"response sequences of width {accrual.shape[2]} are shorter than {width}")
    y, n = np.empty((2, len(accrual), B), dtype=np.int64)
    for i, (nm, looks) in enumerate(zip(design.n_max, design.looks)):
        cum = np.cumsum(accrual[:, i, :nm], axis=1, dtype=np.int64)
        size = np.full(len(accrual), nm)
        for lk in reversed(looks):  # the earliest violated look is written last
            size[cum[:, lk.size - 1] <= lk.futility_max_responses] = lk.size
        y[:, i] = cum[np.arange(len(cum)), size - 1]
        n[:, i] = size
    # every look comes before n_max, so a basket is active iff it reached n_max
    return y, n, n == np.array(design.n_max)


def _class_q(bare: BorrowingConfig, configs, p0: float, y, n, active) -> np.ndarray:
    # every config's q of a few trials, (K, R, B), each trial analysed alone:
    # its similarities solved in one batch and built, each config's transform,
    # all configs' posteriors in one call, and one betainc per distinct posterior
    prefill_weights(bare, y, n, active)
    trials = map(BasketData, y.tolist(), n.tolist(), active.tolist())
    s = np.array([build_weight_matrix(bare, data) for data in trials])
    weights = np.array([transform_block(c.method, s, y, n, active) for c in configs])
    shape1, shape2 = block_posterior_params(y, n, active, bare.prior, weights)
    # each active basket's posterior as one complex number, shape1 + i shape2
    pairs = np.empty((len(configs), np.count_nonzero(active)), dtype=complex)
    pairs.real, pairs.imag = shape1[:, active], shape2[:, active]
    # configs share many posteriors, so each distinct pair takes one betainc
    distinct, index = np.unique(pairs, return_inverse=True)
    q = np.zeros((len(configs), *active.shape))
    q[:, active] = prob_exceed(distinct.real, distinct.imag, p0)[index].reshape(pairs.shape)
    return q


def evaluate_q(
    configs: BorrowingConfig | Sequence[BorrowingConfig],
    p0: float,
    y: np.ndarray,
    n: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Borrow among each trial's active baskets; return every P(p > p0 | data).

    ``y``, ``n`` and ``active`` hold a block of trials as (R, B) arrays.
    ``configs`` share one ``similarity_config``: one engine and one prior,
    such as the candidates of a tuning grid.  The result is (K, R, B), one q
    per config, with probability 0 for interim-stopped baskets; a lone config
    gives its (R, B) q.  A basket's q depends only on its own data and the
    multiset of the other baskets, so each class of permuted trials is
    analysed once per process: the classes that the process's q table lacks
    are analysed from their first trials, and every trial's q is then one
    gather from the table, in its own basket order.
    """
    if isinstance(configs, BorrowingConfig):
        return evaluate_q([configs], p0, y, n, active)[0]
    configs = tuple(configs)
    shared = {similarity_config(config) for config in configs}
    if len(shared) != 1:
        raise ValueError(f"configs must share one engine and prior, got {len(shared)}")
    (bare,) = shared
    y, n, active = np.asarray(y), np.asarray(n), np.asarray(active, dtype=bool)
    order, first, cls, keys = similarity_classes(bare.prior, y, n, active)
    table = class_table(configs, p0)
    new = [k for k, key in enumerate(keys) if key not in table]
    if new:
        reps = first[new]
        q = _class_q(bare, configs, p0, y[reps], n[reps], active[reps])
        # each class's (K, B) q with its baskets in code order
        q = q[:, np.arange(len(new))[:, None], order[reps]].transpose(1, 0, 2)
        table.update(zip([keys[k] for k in new], map(np.ndarray.tobytes, q)))
    q = np.frombuffer(b"".join([table[key] for key in keys]))
    q = q.reshape(-1, len(configs), order.shape[1]).transpose(1, 0, 2)
    # a trial's basket i holds position perm[i] of its class's code order
    perm = np.argsort(order, axis=1)
    return q[:, cls[:, None], perm]


def final_analysis(data: BasketData, config: BorrowingConfig, p0: float) -> np.ndarray:
    """Borrow among active baskets; return each basket's P(p > p0 | data).

    One entry per basket; interim-stopped baskets record probability 0.  This
    is ``evaluate_q`` of a block of one trial.
    """
    return evaluate_q(
        config, p0, np.array([data.y]), np.array([data.n]), np.array([data.active])
    )[0]
