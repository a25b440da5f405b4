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

from .metrics import compute_metrics
from .simulate import Scenario, derive_seed, run_scenario
from .trial import DesignSpec
from .weights import BorrowingConfig

__all__ = [
    "CalibrationResult",
    "NullErrorReport",
    "StudyError",
    "basket_groups",
    "calibrate_q",
    "cutoffs_from_null",
    "null_stream",
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


def null_stream(design: DesignSpec, master_seed: int) -> tuple[Scenario, int]:
    """The calibration stream of ``master_seed``: every basket at the null
    rate, seeded in a namespace of its own, so later evaluation runs with the
    same master seed never reuse calibration randomness."""
    null = Scenario.global_null(design.p0, design.n_baskets)
    return null, derive_seed(master_seed, CALIBRATION_STREAM)


def cutoffs_from_null(design: DesignSpec, q: np.ndarray) -> CalibrationResult:
    """The cutoffs that a null stream's (M, B) posterior probabilities calibrate.

    For each group of baskets sharing (n_max, interim schedule), the
    empirical (1 - alpha) quantile of the group's pooled values.
    Interim-stopped baskets enter the pool as zeros.
    """
    groups = basket_groups(design)
    cutoffs = [0.0] * design.n_baskets
    for group in groups:
        q_value = _upper_quantile(q[:, group].ravel(), design.alpha)
        for i in group:
            cutoffs[i] = q_value
    return CalibrationResult(tuple(cutoffs), groups, design.alpha, len(q))


def calibrate_q(
    design: DesignSpec,
    config: BorrowingConfig,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> CalibrationResult:
    """Calibrate per-basket efficacy cutoffs to the design's alpha.

    Simulates ``m`` trials of the calibration stream (``null_stream``) and
    returns the cutoffs its posterior probabilities calibrate
    (``cutoffs_from_null``).
    """
    null, seed = null_stream(design, master_seed)
    return cutoffs_from_null(design, run_scenario(null, design, config, m, seed, workers).q)


def realized_error(
    design: DesignSpec,
    config: BorrowingConfig,
    cutoffs,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> NullErrorReport:
    """Rejection rates under the global null for the given cutoffs.

    The per-basket rates and their mean are ``compute_metrics``' rejection
    rates and FPR for the global-null stream of ``master_seed``.
    """
    null = Scenario.global_null(design.p0, design.n_baskets)
    reps = run_scenario(null, design, config, m, master_seed, workers)
    row = compute_metrics(reps, null, design.p0, cutoffs)
    return NullErrorReport(row.rejection_rate, row.fpr, m)
