"""Efficacy-cutoff calibration under the global null.

Cutoffs are set so each basket's type I error stays at the target level:
simulate null trials, pool the posterior probabilities of baskets sharing a
sample size and interim schedule, and take the empirical (1 - alpha)
quantile.  The quantile is the ceil((1 - alpha) N)-th smallest pooled value,
which together with the strict ">" decision rule guarantees a realized error
at or below alpha (and reproduces the discrete undershoot of the independent
model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import Scenario, derive_seed, run_scenario
from .trial import DesignSpec
from .weights import BorrowingConfig

__all__ = [
    "CalibrationResult",
    "NullErrorReport",
    "StudyError",
    "basket_groups",
    "calibrate_q",
    "realized_error",
]

CALIBRATION_STREAM = "calibration"


class StudyError(ValueError):
    """A valid configuration asks for a study that cannot be carried out.

    Raised for what the user can fix in the configuration, such as too few
    replicates to resolve the calibration quantile or a tuning grid with no
    feasible candidate, as opposed to a fault in the program.
    """


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated cutoffs plus the basket grouping they were pooled over."""

    cutoffs: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]
    alpha: float
    m: int


@dataclass(frozen=True)
class NullErrorReport:
    """Realized per-basket null rejection rates and their average."""

    per_basket: tuple[float, ...]
    fpr: float
    m: int


def basket_groups(design: DesignSpec) -> tuple[tuple[int, ...], ...]:
    """Baskets sharing a maximum sample size and interim schedule, in index order."""
    keyed: dict = {}
    for i in range(design.n_baskets):
        keyed.setdefault((design.n_max[i], design.looks[i]), []).append(i)
    return tuple(tuple(v) for v in sorted(keyed.values()))


def _upper_quantile(pooled: np.ndarray, alpha: float) -> float:
    n = pooled.size
    if n * alpha < 1.0:
        raise StudyError(
            f"{n} pooled values cannot resolve the (1 - {alpha}) quantile; "
            "increase the number of replicates"
        )
    k = math.ceil((1.0 - alpha) * n - 1e-9)
    k = min(max(k, 1), n)
    return float(np.sort(pooled)[k - 1])


def calibrate_q(
    design: DesignSpec,
    config: BorrowingConfig,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> CalibrationResult:
    """Calibrate per-basket efficacy cutoffs to the design's alpha.

    Simulates ``m`` trials with every basket at the null response rate and
    returns, for each group of baskets sharing (n_max, interim schedule), the
    empirical (1 - alpha) quantile of the pooled posterior probabilities.
    Interim-stopped baskets enter the pool as zeros.  The null stream is
    seeded in a dedicated namespace, so later evaluation runs with the same
    master seed never reuse calibration randomness.
    """
    null = Scenario.global_null(design.p0, design.n_baskets)
    reps = run_scenario(
        null,
        design,
        config,
        cutoffs=None,
        m=m,
        master_seed=derive_seed(master_seed, CALIBRATION_STREAM),
        workers=workers,
    )
    groups = basket_groups(design)
    cutoffs = [0.0] * design.n_baskets
    for group in groups:
        pooled = reps.q[:, group].ravel()
        q_value = _upper_quantile(pooled, design.alpha)
        for i in group:
            cutoffs[i] = q_value
    return CalibrationResult(tuple(cutoffs), groups, design.alpha, m)


def realized_error(
    design: DesignSpec,
    config: BorrowingConfig,
    cutoffs,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> NullErrorReport:
    """Rejection rates under the global null for the given cutoffs."""
    null = Scenario.global_null(design.p0, design.n_baskets)
    reps = run_scenario(null, design, config, cutoffs, m, master_seed, workers)
    rates = reps.promising.mean(axis=0)
    return NullErrorReport(tuple(float(r) for r in rates), float(rates.mean()), m)
