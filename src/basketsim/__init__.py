"""MCMC-free basket trial design engine.

Closed-form beta-binomial inference under dynamic information borrowing,
simulation-based calibration of efficacy cutoffs, and parallel Monte Carlo
evaluation of operating characteristics.
"""

from .calibrate import (
    CalibrationResult,
    NullErrorReport,
    StudyError,
    basket_groups,
    calibrate_q,
    realized_error,
)
from .metrics import AggregateMetrics, ScenarioMetrics, aggregate, compute_metrics
from .posterior import (
    BasketData,
    BetaParams,
    PriorSpec,
    borrowing_factor,
    posterior_params,
    prob_exceed,
)
from .simulate import ReplicateSet, Scenario, mc_standard_error, run_scenario
from .trial import DesignSpec, Look, apply_interims, final_analysis
from .tune import TuneResult, TuningGrid, tune
from .weights import (
    BorrowingConfig,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    NumericError,
    PowerPriorGEB,
    PowerPriorPEB,
    build_weight_matrix,
    geb_weights,
    jsd_weight,
    peb_weight,
    three_component_adjust,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "BasketData",
    "BetaParams",
    "BorrowingConfig",
    "CalibrationResult",
    "DesignSpec",
    "IndependentModel",
    "JSDWeights",
    "LocalPowerPrior",
    "Look",
    "NullErrorReport",
    "NumericError",
    "PowerPriorGEB",
    "PowerPriorPEB",
    "PriorSpec",
    "ReplicateSet",
    "Scenario",
    "ScenarioMetrics",
    "StudyError",
    "TuneResult",
    "TuningGrid",
    "aggregate",
    "apply_interims",
    "basket_groups",
    "borrowing_factor",
    "build_weight_matrix",
    "calibrate_q",
    "compute_metrics",
    "final_analysis",
    "geb_weights",
    "jsd_weight",
    "mc_standard_error",
    "peb_weight",
    "posterior_params",
    "prob_exceed",
    "realized_error",
    "run_scenario",
    "three_component_adjust",
    "tune",
]
