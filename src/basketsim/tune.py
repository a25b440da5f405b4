"""Grid search over borrowing parameters with per-candidate recalibration.

Two selection strategies:

* ``maximize_power`` keeps candidates whose maximum basket-wise type I error
  over the tuning scenarios stays strictly below a bound, then picks the one
  maximizing the mean of average TPR and average CCR;
* ``match_target`` picks the candidate whose maximum basket-wise type I error
  is closest to a target (ties go to the higher average TPR).

Every candidate recalibrates its efficacy cutoffs under the global null and
is evaluated with common random numbers, so grid comparisons are paired.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .calibrate import StudyError, calibrate_q
from .metrics import compute_metrics
from .simulate import Scenario, run_scenario
from .trial import DesignSpec
from .weights import BorrowingConfig, JSDWeights, LocalPowerPrior

__all__ = ["MAXIMIZE_POWER", "MATCH_TARGET", "TuningGrid", "CandidateReport", "TuneResult", "tune"]

MAXIMIZE_POWER = "maximize_power"
MATCH_TARGET = "match_target"


@dataclass(frozen=True)
class TuningGrid:
    """Candidate parameter values, tuning scenarios, and the selection rule.

    ``a_values``/``delta_values`` drive local power prior methods,
    ``epsilon_values``/``tau_values`` drive the JSD method; only the active
    method's lists need to be nonempty.  ``constraint`` is the strict upper
    bound on max BWER (maximize_power) or the target max BWER (match_target).
    """

    scenario_set: tuple[Scenario, ...]
    strategy: str
    constraint: float
    a_values: tuple[float, ...] = ()
    delta_values: tuple[float, ...] = ()
    epsilon_values: tuple[float, ...] = ()
    tau_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in (MAXIMIZE_POWER, MATCH_TARGET):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.scenario_set:
            raise ValueError("scenario_set must be nonempty")


@dataclass(frozen=True)
class CandidateReport:
    """One grid candidate's parameters, calibrated cutoffs and tuning metrics."""

    params: dict
    cutoffs: tuple[float, ...]
    bwer_max: Optional[float]
    tpr_avg: Optional[float]
    ccr_avg: Optional[float]
    objective: Optional[float]
    feasible: bool


@dataclass(frozen=True)
class TuneResult:
    best: CandidateReport
    report: tuple[CandidateReport, ...]


def _candidate_methods(base_config: BorrowingConfig, grid: TuningGrid):
    method = base_config.method
    if isinstance(method, LocalPowerPrior):
        if not grid.a_values or not grid.delta_values:
            raise StudyError("a_values and delta_values must be nonempty for local power prior tuning")
        for a, delta in itertools.product(grid.a_values, grid.delta_values):
            yield {"a": float(a), "delta": float(delta)}, replace(method, a=float(a), delta=float(delta))
    elif isinstance(method, JSDWeights):
        if not grid.epsilon_values or not grid.tau_values:
            raise StudyError("epsilon_values and tau_values must be nonempty for JSD tuning")
        for eps, tau in itertools.product(grid.epsilon_values, grid.tau_values):
            yield {"epsilon": float(eps), "tau": float(tau)}, replace(method, epsilon=float(eps), tau=float(tau))
    else:
        raise StudyError(f"method {method!r} has no tuning parameters")


def _evaluate_candidate(
    method_params: dict,
    config: BorrowingConfig,
    grid: TuningGrid,
    design: DesignSpec,
    m: int,
    seed: int,
    workers: int,
) -> CandidateReport:
    calibration = calibrate_q(design, config, m, seed, workers)
    bwers: list[float] = []
    tprs: list[float] = []
    ccrs: list[float] = []
    for scenario in grid.scenario_set:
        reps = run_scenario(scenario, design, config, calibration.cutoffs, m, seed, workers)
        row = compute_metrics(reps, scenario, design.p0)
        bwers.extend(
            rate for rate, prom in zip(row.rejection_rate, row.truth_promising) if not prom
        )
        if row.tpr is not None:
            tprs.append(row.tpr)
        if row.ccr is not None:
            ccrs.append(row.ccr)
    bwer_max = float(np.max(bwers)) if bwers else None
    tpr_avg = float(np.mean(tprs)) if tprs else None
    ccr_avg = float(np.mean(ccrs)) if ccrs else None
    objective = None
    if tpr_avg is not None and ccr_avg is not None:
        objective = 0.5 * (tpr_avg + ccr_avg)
    feasible = bwer_max is not None and bwer_max < grid.constraint
    return CandidateReport(
        params=method_params,
        cutoffs=calibration.cutoffs,
        bwer_max=bwer_max,
        tpr_avg=tpr_avg,
        ccr_avg=ccr_avg,
        objective=objective,
        feasible=feasible,
    )


def tune(
    grid: TuningGrid,
    design: DesignSpec,
    base_config: BorrowingConfig,
    m: int,
    seed: int,
    workers: int = 1,
) -> TuneResult:
    """Evaluate every grid candidate and select per the grid's strategy.

    Candidates share the master seed (common random numbers) and each one is
    recalibrated before evaluation.  The full per-candidate report is always
    returned alongside the winner.  Raises when the feasible set is empty or
    required metrics are unavailable.
    """
    reports: list[CandidateReport] = []
    for params, method in _candidate_methods(base_config, grid):
        config = replace(base_config, method=method)
        reports.append(_evaluate_candidate(params, config, grid, design, m, seed, workers))

    if grid.strategy == MAXIMIZE_POWER:
        feasible = [r for r in reports if r.feasible and r.objective is not None]
        if not feasible:
            observed = [r.bwer_max for r in reports if r.bwer_max is not None]
            raise StudyError(
                f"no candidate keeps max BWER below {grid.constraint}; "
                f"smallest observed max BWER was {min(observed):.4f}"
                if observed
                else "no candidate produced a max BWER; check the scenario set"
            )
        best = max(feasible, key=lambda r: r.objective)
    else:
        scored = [r for r in reports if r.bwer_max is not None]
        if not scored:
            raise StudyError(
                "no candidate produced a max BWER; the scenario set needs at "
                "least one truly non-promising basket"
            )
        best = min(
            scored,
            key=lambda r: (abs(r.bwer_max - grid.constraint), -(r.tpr_avg or 0.0)),
        )
    return TuneResult(best=best, report=tuple(reports))
