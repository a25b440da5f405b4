"""Efficacy decisions and operating-characteristic metrics from replicate outcomes.

A simulated stream carries each basket's posterior probability q.
``compute_metrics`` decides the whole stream at once: basket i of a
replicate is claimed promising iff ``q[i]`` strictly exceeds its cutoff.

Truth labels derive from the scenario: a basket is truly promising when its
true response rate exceeds the null rate.  Per-scenario metrics follow the
usual error-rate taxonomy:

* rejection rate per basket (type I error or power depending on truth);
* FPR, the mean rejection rate over truly non-promising baskets;
* FWER, the fraction of replicates with at least one false rejection;
* FDR, the mean of V / max(R, 1) over replicates (V false and R total
  rejections; replicates without rejections contribute zero);
* TPR, the mean rejection rate over truly promising baskets;
* CCR, the mean per-basket correct-decision rate.

Metrics over an empty truth class are reported as None (printed "NA"): FPR,
FWER and FDR need a non-promising basket, TPR and CCR a promising one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .simulate import ReplicateSet, Scenario

__all__ = ["ScenarioMetrics", "AggregateMetrics", "compute_metrics", "aggregate"]


@dataclass(frozen=True)
class ScenarioMetrics:
    """One scenario's operating characteristics."""

    scenario: str
    m: int
    truth_promising: tuple[bool, ...]
    rejection_rate: tuple[float, ...]
    fpr: Optional[float]
    fwer: Optional[float]
    fdr: Optional[float]
    tpr: Optional[float]
    ccr: Optional[float]


@dataclass(frozen=True)
class AggregateMetrics:
    """Cross-scenario summaries: basket-wise error rates, average TPR and CCR."""

    bwer_avg: Optional[float]
    bwer_max: Optional[float]
    tpr_avg: Optional[float]
    ccr_avg: Optional[float]


def compute_metrics(
    replicates: ReplicateSet, scenario: Scenario, p0: float, cutoffs: Sequence[float]
) -> ScenarioMetrics:
    """Decide every replicate of one scenario and summarize the decisions.

    Basket i of a replicate is promising iff ``q[i] > cutoffs[i]``.  The
    cutoffs need one entry per basket, each in [0, 1], so a stopped basket
    (q = 0) is never promising.
    """
    B = replicates.n_baskets
    if len(scenario.true_orr) != B:
        raise ValueError(
            f"scenario has {len(scenario.true_orr)} baskets but replicates have {B}"
        )
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.shape != (B,):
        raise ValueError(f"expected {B} cutoffs, got {cutoffs.size}")
    outside = cutoffs[~((cutoffs >= 0.0) & (cutoffs <= 1.0))]
    if outside.size:
        raise ValueError(f"cutoffs must lie in [0, 1], got {float(outside[0])!r}")
    truth = np.array([p > p0 for p in scenario.true_orr])
    flags = replicates.q > cutoffs
    rates = flags.mean(axis=0)

    fpr = fwer = fdr = tpr = ccr = None
    if (~truth).any():
        fpr = float(rates[~truth].mean())
        false_any = flags[:, ~truth].any(axis=1)
        fwer = float(false_any.mean())
        v = flags[:, ~truth].sum(axis=1)
        r = flags.sum(axis=1)
        fdr = float((v / np.maximum(r, 1)).mean())
    if truth.any():
        tpr = float(rates[truth].mean())
        correct = np.where(truth, rates, 1.0 - rates)
        ccr = float(correct.mean())

    return ScenarioMetrics(
        scenario=scenario.name,
        m=replicates.m,
        truth_promising=tuple(bool(t) for t in truth),
        rejection_rate=tuple(float(x) for x in rates),
        fpr=fpr,
        fwer=fwer,
        fdr=fdr,
        tpr=tpr,
        ccr=ccr,
    )


def aggregate(rows: Sequence[ScenarioMetrics]) -> AggregateMetrics:
    """Cross-scenario aggregates over every row.

    ``bwer_avg``/``bwer_max`` average and maximize the per-basket rejection
    rates of every row's truly non-promising baskets; ``tpr_avg``/``ccr_avg``
    average the TPR and CCR of the rows that have a truly promising basket.
    An aggregate without any such basket is None.
    """
    bwers = [
        rate
        for row in rows
        for rate, prom in zip(row.rejection_rate, row.truth_promising)
        if not prom
    ]
    tprs = [row.tpr for row in rows if row.tpr is not None]
    ccrs = [row.ccr for row in rows if row.ccr is not None]
    return AggregateMetrics(
        bwer_avg=float(np.mean(bwers)) if bwers else None,
        bwer_max=float(np.max(bwers)) if bwers else None,
        tpr_avg=float(np.mean(tprs)) if tprs else None,
        ccr_avg=float(np.mean(ccrs)) if ccrs else None,
    )
