"""The benchmark's workloads: generated study configs, CLI commands and output checks.

Every workload uses the standard design: five baskets of n=25, one futility
look at 10 stopping on at most one response, p0=0.15, alpha=0.1 and a beta
(0.15, 0.85) prior. The checks are statistical, so a program that draws other
random streams still passes while a wrong answer fails: each value must lie
within its published value's tolerance plus four Monte Carlo standard errors
of that value at the workload's M. The published tolerances hold only at the acceptance
suite's fixed seed; at other seeds the estimate carries its own Monte Carlo
error, and calibrated cutoffs that fall on an atom of the null distribution
shift null error rates by up to about 0.01.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

P0 = 0.15
ALPHA = 0.1
MC_Z = 4.0

SCENARIOS = {
    "S1": (0.15, 0.15, 0.15, 0.15, 0.15),
    "S2": (0.15, 0.15, 0.15, 0.30, 0.30),
    "S3": (0.15, 0.30, 0.30, 0.30, 0.30),
    "S4": (0.15, 0.30, 0.30, 0.45, 0.45),
    "S5": (0.15, 0.45, 0.45, 0.45, 0.45),
    "S6": (0.30, 0.30, 0.30, 0.30, 0.30),
}
BASKETS = tuple(f"B{i}" for i in range(1, 6))

TUNE_A = (0.2, 0.35, 0.5, 1.0)
TUNE_DELTA = (0.2, 0.4)
TUNE_TARGET = 0.143


def study_config(base: str, m: int, scenarios: tuple[str, ...], tuning: dict | None = None) -> dict:
    """A standard-design study under the local power prior on ``base`` similarities."""
    cfg = {
        "design": {
            "baskets": [
                {"name": name, "n_max": 25, "looks": [{"size": 10, "futility_max_responses": 1}]}
                for name in BASKETS
            ],
            "p0": P0,
            "alpha": ALPHA,
        },
        "method": {"type": "local_pp", "base": base, "a": 0.35, "delta": 0.4},
        "prior": {"b1": 0.15, "b2": 0.85},
        "scenarios": [{"name": s, "orr": list(SCENARIOS[s])} for s in scenarios],
        "run": {"M": m, "seed": 1, "workers": 1},
    }
    if tuning is not None:
        cfg["tuning"] = tuning
    return cfg


def _mc_se(rate: float, m: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / m)


def _read_oc(out: Path) -> dict[tuple[str, str], float]:
    """oc.csv as {(scenario, basket or metric): value}."""
    with open(out / "oc.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for row in rows:
        key = row["basket"] if row["metric"] == "rejection_rate" else row["metric"]
        if row["value"] != "NA":
            table[(row["scenario"], key)] = float(row["value"])
    return table


def _near(problems: list[str], label: str, value: float, target: float, tol: float,
          se: float) -> None:
    limit = tol + MC_Z * se
    if not abs(value - target) <= limit:
        problems.append(f"{label} = {value:.4f}, outside {target} +/- {limit:.4f}")


def _check_cutoffs(out: Path, problems: list[str]) -> None:
    """simulate calibrates when the config has no cutoffs, and writes them."""
    cutoffs = json.loads((out / "cutoffs.json").read_text())["cutoffs"]
    if len(cutoffs) != len(BASKETS) or not all(0.0 <= c <= 1.0 for c in cutoffs):
        problems.append(f"cutoffs.json holds {cutoffs}")


def check_simulate_peb(out: Path, m: int) -> list[str]:
    """Criterion 7 of the acceptance suite: local-PP/PEB at a=0.35, delta=0.4."""
    oc = _read_oc(out)
    problems: list[str] = []
    _check_cutoffs(out, problems)
    for basket in BASKETS:
        _near(problems, f"S1 {basket} error", oc[("S1", basket)], ALPHA, 0.015, _mc_se(ALPHA, m))
    for label, key, target, tol in (
        ("S3 B1 error", ("S3", "B1"), 0.143, 0.015),
        ("S3 B2 power", ("S3", "B2"), 0.740, 0.015),
        ("BWER_max", ("aggregate", "BWER_max"), 0.143, 0.02),
        ("TPR_avg", ("aggregate", "TPR_avg"), 0.805, 0.02),
        ("CCR_avg", ("aggregate", "CCR_avg"), 0.824, 0.015),
    ):
        _near(problems, label, oc[key], target, tol, _mc_se(target, m))
    return problems


def check_simulate_geb(out: Path, m: int) -> list[str]:
    """Null errors of calibrated local-PP/GEB stay at alpha, per basket and pooled."""
    oc = _read_oc(out)
    problems: list[str] = []
    _check_cutoffs(out, problems)
    for basket in BASKETS:
        _near(problems, f"S1 {basket} error", oc[("S1", basket)], ALPHA, 0.015, _mc_se(ALPHA, m))
    # the FPR pools M * B null decisions; the calibration stream, whose
    # quantile sets the shared cutoff, adds a Monte Carlo error of the same size
    pooled_se = math.sqrt(2.0) * _mc_se(ALPHA, m * len(BASKETS))
    _near(problems, "S1 FPR", oc[("S1", "FPR")], ALPHA, 0.015, pooled_se)
    return problems


def check_tune_peb(out: Path, m: int) -> list[str]:
    """Every grid candidate is reported, and the chosen one is closest to the target."""
    with open(out / "grid_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    chosen = json.loads((out / "chosen_params.json").read_text())
    problems: list[str] = []
    grid = {(float(r["a"]), float(r["delta"])) for r in rows}
    expected = {(a, d) for a in TUNE_A for d in TUNE_DELTA}
    if len(rows) != len(expected) or grid != expected:
        problems.append(
            f"grid report has {len(rows)} rows {sorted(grid)}, expected {sorted(expected)}"
        )
    if chosen["candidates"] != len(expected):
        problems.append(f"chosen_params.json counts {chosen['candidates']} candidates")
    # the report rounds to 4 decimals, so allow one rounding unit between rows
    best = min(abs(float(r["bwer_max"]) - TUNE_TARGET) for r in rows)
    mine = abs(chosen["bwer_max"] - TUNE_TARGET)
    if (chosen["params"]["a"], chosen["params"]["delta"]) not in grid or mine > best + 1e-4:
        problems.append(
            f"chosen {chosen['params']} has |bwer_max - {TUNE_TARGET}| = {mine:.4f}; "
            f"the report's smallest is {best:.4f}"
        )
    return problems


@dataclass(frozen=True)
class Workload:
    config: dict
    cli: tuple[str, ...]
    replicates: int
    check: Callable[[Path, int], list[str]]

    @property
    def m(self) -> int:
        return self.config["run"]["M"]


def _simulate(base: str, m: int, scenarios: tuple[str, ...], check) -> Workload:
    # simulate calibrates first (no cutoffs in the config): one null run plus one per scenario
    return Workload(
        config=study_config(base, m, scenarios),
        cli=("simulate", "--workers", "1"),
        replicates=(1 + len(scenarios)) * m,
        check=check,
    )


def _tune(m: int, scenarios: tuple[str, ...], workers: int) -> Workload:
    tuning = {
        "strategy": "match_target",
        "match_bwer_max": TUNE_TARGET,
        "scenarios": list(scenarios),
        "a_values": list(TUNE_A),
        "delta_values": list(TUNE_DELTA),
    }
    candidates = len(TUNE_A) * len(TUNE_DELTA)
    return Workload(
        config=study_config("peb", m, scenarios, tuning),
        cli=("tune", "--workers", str(workers)),
        replicates=candidates * (1 + len(scenarios)) * m,
        check=check_tune_peb,
    )


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "simulate-peb": _simulate("peb", 5000, tuple(SCENARIOS), check_simulate_peb),
    "simulate-geb": _simulate("geb", 600, ("S1", "S3", "S5"), check_simulate_geb),
    "tune-peb": _tune(2000, ("S1", "S3", "S6"), workers=2),
}
