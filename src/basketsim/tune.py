"""Grid search over borrowing parameters with per-candidate recalibration.

Two selection strategies:

* ``maximize_power`` keeps candidates whose maximum basket-wise type I error
  over the tuning scenarios stays strictly below a bound, then picks the one
  maximizing the mean of average TPR and average CCR;
* ``match_target`` picks the candidate whose maximum basket-wise type I error
  is closest to a target (ties go to the higher average TPR).

Every candidate recalibrates its efficacy cutoffs under the global null and
is evaluated with common random numbers, so grid comparisons are paired.
Similarities depend on neither (a, delta) nor (epsilon, tau), so all the
candidates are evaluated in one pass over the streams: each block of each
stream is drawn once, and each class of permuted trials that a process
meets is analysed once, its similarities built once and only the cap and
threshold (or the power and threshold), the posteriors and the
probabilities computed per candidate.  So the per-candidate work grows with
the classes, not the trials.  The worker processes split the blocks, not
the candidates.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Optional

# calibrate_q and run_scenario are unused here, but bench/tracer.py hooks them
from .calibrate import StudyError, calibrate_q, cutoffs_from_null, null_stream
from .metrics import ScenarioMetrics, aggregate, compute_metrics
from .simulate import Scenario, run_scenario, run_streams
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
        names = [scenario.name for scenario in self.scenario_set]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario_set names must be distinct, got {names}")


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


def _candidate_report(
    params: dict, cutoffs: tuple[float, ...], rows: tuple[ScenarioMetrics, ...], grid: TuningGrid
) -> CandidateReport:
    summary = aggregate(rows)
    objective = None
    if summary.tpr_avg is not None and summary.ccr_avg is not None:
        objective = 0.5 * (summary.tpr_avg + summary.ccr_avg)
    return CandidateReport(
        params=params,
        cutoffs=cutoffs,
        bwer_max=summary.bwer_max,
        tpr_avg=summary.tpr_avg,
        ccr_avg=summary.ccr_avg,
        objective=objective,
        feasible=summary.bwer_max is not None and summary.bwer_max < grid.constraint,
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
    recalibrated before evaluation: its cutoffs come from the calibration
    stream, its metrics from the tuning scenarios'.  Every stream is
    simulated once for all the candidates (``run_streams``), with its blocks
    spread over one pool of ``workers`` processes, and each stream is reduced
    to cutoffs or metrics before the next is taken.  The result is identical
    for any ``workers`` >= 1; fewer raise ``ValueError``.  The full
    per-candidate report is always returned alongside the winner.  Raises
    when the feasible set is empty or required metrics are unavailable.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    candidates = list(_candidate_methods(base_config, grid))
    configs = [replace(base_config, method=method) for _, method in candidates]
    streams = [null_stream(design, seed)] + [(scenario, seed) for scenario in grid.scenario_set]
    with closing(run_streams(streams, design, configs, m, workers)) as results:
        # each next() assembles one stream, whose sets the comprehension
        # drops once they are reduced
        calibrations = [cutoffs_from_null(design, reps.q) for reps in next(results)]
        rows = [
            [
                compute_metrics(reps, scenario, design.p0, calibration.cutoffs)
                for reps, calibration in zip(next(results), calibrations)
            ]
            for scenario in grid.scenario_set
        ]
    reports = [
        _candidate_report(params, calibration.cutoffs, candidate_rows, grid)
        for (params, _), calibration, candidate_rows in zip(candidates, calibrations, zip(*rows))
    ]

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
