"""Acceptance suite: one test per design requirement, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.  Monte Carlo checks use fixed seeds, so results are exactly
reproducible; tolerances follow the published benchmarks they verify.
"""

import itertools
import math
import time

import numpy as np
import pytest

import basketsim.cli as cli
from basketsim import (
    BasketData,
    BetaParams,
    BorrowingConfig,
    DesignSpec,
    IndependentModel,
    JSDWeights,
    Look,
    LocalPowerPrior,
    PriorSpec,
    Scenario,
    aggregate,
    borrowing_factor,
    build_weight_matrix,
    calibrate_q,
    compute_metrics,
    final_analysis,
    geb_weights,
    jsd_weight,
    peb_weight,
    prob_exceed,
    realized_error,
    run_scenario,
    three_component_adjust,
)
from basketsim.weights import _log_marginal_grid

from conftest import BRAF_N, BRAF_NAMES, BRAF_Y, FIVE_N, FIVE_Y

SEED = 20250809

FIVE_PRIOR = PriorSpec.shared(0.5, 0.5, 5)
FIVE_DATA = BasketData.all_active(FIVE_Y, FIVE_N)

PEB_FIVE = np.array(
    [
        [1.00, 0.04, 0.02, 0.00, 0.00],
        [0.06, 1.00, 1.00, 0.58, 0.02],
        [0.04, 1.00, 1.00, 1.00, 0.05],
        [0.02, 0.57, 1.00, 1.00, 0.10],
        [0.00, 0.02, 0.04, 0.09, 1.00],
    ]
)
GEB_FIVE = np.array(
    [
        [1.00, 0.04, 0.00, 0.00, 0.00],
        [1.00, 1.00, 1.00, 1.00, 0.12],
        [1.00, 1.00, 1.00, 1.00, 1.00],
        [0.12, 1.00, 1.00, 1.00, 1.00],
        [0.00, 0.00, 0.00, 0.09, 1.00],
    ]
)
ADJUSTED_FIVE = np.array(
    [
        [1.00, 0.01, 0.00, 0.00, 0.00],
        [0.25, 1.00, 0.25, 0.25, 0.00],
        [0.00, 0.25, 1.00, 0.25, 0.00],
        [0.00, 0.25, 0.25, 1.00, 0.25],
        [0.00, 0.00, 0.00, 0.02, 1.00],
    ]
)
BRAF_LOCAL_PP = np.array(
    [
        [1.00, 0.00, 0.00, 0.09, 0.29, 0.29],
        [0.00, 1.00, 0.03, 0.00, 0.00, 0.00],
        [0.01, 0.15, 1.00, 0.45, 0.02, 0.07],
        [0.01, 0.01, 0.11, 1.00, 0.01, 0.11],
        [0.20, 0.00, 0.00, 0.07, 1.00, 0.20],
        [0.09, 0.00, 0.00, 0.09, 0.09, 1.00],
    ]
)
BRAF_PRIOR = PriorSpec.shared(0.15, 0.85, 6)
BRAF_DATA = BasketData.all_active(BRAF_Y, BRAF_N)
BRAF_Q_IM = (0.955, 0.849, 0.928, 0.915, 0.875, 0.943)
BRAF_Q_LOCAL = (0.933, 0.925, 0.942, 0.908, 0.928, 0.930)

EQUAL_DESIGN = DesignSpec.equal(5, 25, [Look(10, 1)], p0=0.15, alpha=0.1)
ONE_SUBJECT_PRIOR = PriorSpec.shared(0.15, 0.85, 5)
SCENARIOS = (
    Scenario("S1", (0.15, 0.15, 0.15, 0.15, 0.15)),
    Scenario("S2", (0.15, 0.15, 0.15, 0.30, 0.30)),
    Scenario("S3", (0.15, 0.30, 0.30, 0.30, 0.30)),
    Scenario("S4", (0.15, 0.30, 0.30, 0.45, 0.45)),
    Scenario("S5", (0.15, 0.45, 0.45, 0.45, 0.45)),
    Scenario("S6", (0.30, 0.30, 0.30, 0.30, 0.30)),
)

UNEQUAL_DESIGN = DesignSpec(
    (26, 16, 8, 17, 22),
    ((Look(10, 1),), (Look(10, 1),), (), (Look(10, 1),), (Look(10, 1),)),
    p0=0.15,
    alpha=0.1,
)
UNEQUAL_Q_BENCH = (0.884, 0.874, 0.890, 0.866, 0.880)


def _report(num, label, checks):
    ok = all(cond for cond, _ in checks)
    print(f"\ncriterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    for cond, detail in checks:
        marker = "ok  " if cond else "FAIL"
        print(f"    {marker} {detail}")
    assert ok, f"criterion {num} ({label}) failed"


def _peb_matrix(y, n, prior):
    B = len(y)
    w = np.eye(B)
    for i in range(B):
        for j in range(B):
            if i != j:
                w[i, j] = peb_weight(y[i], n[i], y[j], n[j], prior.b1[i], prior.b2[i])
    return w


def test_criterion_01_pairwise_eb_matrix():
    start = time.perf_counter()
    w = _peb_matrix(FIVE_Y, FIVE_N, FIVE_PRIOR)
    elapsed = time.perf_counter() - start
    worst = np.abs(w - PEB_FIVE).max()
    _report(1, "pairwise EB weights", [
        (worst <= 0.01, f"max entry deviation {worst:.4f} <= 0.01"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
    ])


def test_criterion_02_global_eb_matrix():
    w = np.vstack([geb_weights(i, FIVE_DATA, FIVE_PRIOR) for i in range(5)])
    worst = np.abs(w - GEB_FIVE).max()
    _report(2, "global EB weights", [
        (worst <= 0.02, f"max entry deviation {worst:.4f} <= 0.02"),
    ])


def test_criterion_03_capped_thresholded_matrix():
    geb = np.vstack([geb_weights(i, FIVE_DATA, FIVE_PRIOR) for i in range(5)])
    adjusted = three_component_adjust(geb, FIVE_DATA, a=1.0, delta=0.3)
    worst = np.abs(adjusted - ADJUSTED_FIVE).max()
    phat = np.array(FIVE_Y) / np.array(FIVE_N)
    suppressed_exact = all(
        adjusted[i, j] == 0.0
        for i in range(5)
        for j in range(5)
        if i != j and abs(phat[i] - phat[j]) >= 0.3
    )
    _report(3, "3-component adjustment", [
        (worst <= 0.01, f"max entry deviation {worst:.4f} <= 0.01"),
        (suppressed_exact, "every above-threshold pair is exactly zero"),
    ])


def test_criterion_04_braf_independent_posteriors():
    start = time.perf_counter()
    q = [
        prob_exceed(0.15 + y, 0.85 + n - y, 0.15)
        for y, n in zip(BRAF_Y, BRAF_N)
    ]
    elapsed = time.perf_counter() - start
    expected = (0.997, 0.014, 0.020, 0.332, 0.991, 0.761)
    worst = max(abs(a - b) for a, b in zip(q, expected))
    _report(4, "BRAF independent posteriors", [
        (worst <= 1e-3, f"max posterior-probability deviation {worst:.2e} <= 1e-3"),
        (elapsed < 0.1, f"runtime {elapsed:.4f}s < 0.1s"),
    ])


def test_criterion_05_braf_local_pp_analysis():
    config = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), BRAF_PRIOR)
    w = build_weight_matrix(config, BRAF_DATA)
    worst = np.abs(w - BRAF_LOCAL_PP).max()
    q = final_analysis(BRAF_DATA, config, 0.15)
    decisions = q > BRAF_Q_LOCAL
    atc_q = q[5]
    promising = {name for name, p in zip(BRAF_NAMES, decisions) if p}
    _report(5, "BRAF local power prior analysis", [
        (worst <= 0.01, f"max weight deviation {worst:.4f} <= 0.01"),
        (abs(atc_q - 0.879) <= 0.01, f"ATC posterior probability {atc_q:.4f} within 0.879 +/- 0.01"),
        (promising == {"NSCLC", "ECD or LCH"}, f"promising set {sorted(promising)}"),
    ])


def test_criterion_06_independent_calibration():
    config = BorrowingConfig(IndependentModel(), ONE_SUBJECT_PRIOR)
    start = time.perf_counter()
    cal = calibrate_q(EQUAL_DESIGN, config, m=5000, master_seed=SEED)
    fpr_at_cal = realized_error(EQUAL_DESIGN, config, cal.cutoffs, 5000, SEED).fpr
    fpr_below = realized_error(EQUAL_DESIGN, config, (0.856,) * 5, 5000, SEED).fpr
    elapsed = time.perf_counter() - start
    q = cal.cutoffs[0]
    _report(6, "independent-model calibration", [
        (abs(q - 0.857) <= 0.01, f"cutoff {q:.4f} within 0.857 +/- 0.01"),
        (0.04 <= fpr_at_cal <= 0.09, f"realized FPR {fpr_at_cal:.4f} in [0.04, 0.09]"),
        (abs(fpr_below - 0.138) <= 0.02, f"FPR at cutoff 0.856 is {fpr_below:.4f}, within 0.138 +/- 0.02"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s"),
    ])


@pytest.fixture(scope="module")
def local_pp_evaluation():
    config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), ONE_SUBJECT_PRIOR)
    start = time.perf_counter()
    cal = calibrate_q(EQUAL_DESIGN, config, m=5000, master_seed=SEED)
    rows = [
        compute_metrics(
            run_scenario(scen, EQUAL_DESIGN, config, 5000, SEED),
            scen,
            EQUAL_DESIGN.p0,
            cal.cutoffs,
        )
        for scen in SCENARIOS
    ]
    agg = aggregate(rows)
    elapsed = time.perf_counter() - start
    return rows, agg, elapsed


def test_criterion_07_local_pp_operating_characteristics(local_pp_evaluation):
    rows, agg, _ = local_pp_evaluation
    by_name = {r.scenario: r for r in rows}
    s1 = by_name["S1"].rejection_rate
    s3 = by_name["S3"].rejection_rate
    checks = [
        (
            all(abs(rate - 0.10) <= 0.015 for rate in s1),
            f"null-scenario errors {np.round(s1, 3)} within 0.10 +/- 0.015",
        ),
        (abs(s3[0] - 0.143) <= 0.015, f"S3 basket-1 error {s3[0]:.3f} within 0.143 +/- 0.015"),
        (abs(s3[1] - 0.740) <= 0.015, f"S3 basket-2 power {s3[1]:.3f} within 0.740 +/- 0.015"),
        (abs(agg.bwer_max - 0.143) <= 0.02, f"max BWER {agg.bwer_max:.3f} within 0.143 +/- 0.02"),
        (abs(agg.tpr_avg - 0.805) <= 0.02, f"average TPR {agg.tpr_avg:.3f} within 0.805 +/- 0.02"),
        (abs(agg.ccr_avg - 0.824) <= 0.015, f"average CCR {agg.ccr_avg:.3f} within 0.824 +/- 0.015"),
    ]
    _report(7, "local-PP operating characteristics", checks)


def test_criterion_08_jsd_engine():
    floor = 1.0 - math.log(2.0)
    rng = np.random.default_rng(SEED)
    worst = 1.0
    for k in range(10_000):
        if k % 100 == 0:
            # force singular shapes into the mix
            p = BetaParams(0.15, 0.85 + float(rng.integers(0, 26)))
            q = BetaParams(0.15 + float(rng.integers(0, 26)), 0.85)
        else:
            p = BetaParams(0.15 + rng.uniform(0, 30), 0.85 + rng.uniform(0, 30))
            q = BetaParams(0.15 + rng.uniform(0, 30), 0.85 + rng.uniform(0, 30))
        w_star = jsd_weight(p, q, 1.0, 0.0)
        worst = min(worst, w_star)
    config = BorrowingConfig(JSDWeights(6.5, 0.5), ONE_SUBJECT_PRIOR)
    cal = calibrate_q(EQUAL_DESIGN, config, m=5000, master_seed=SEED)
    s5 = SCENARIOS[4]
    row = compute_metrics(run_scenario(s5, EQUAL_DESIGN, config, 5000, SEED), s5, 0.15, cal.cutoffs)
    err1 = row.rejection_rate[0]
    _report(8, "JSD engine", [
        (worst >= floor - 1e-9, f"similarity floor respected: min {worst:.6f} >= {floor:.6f}"),
        (abs(err1 - 0.088) <= 0.015, f"S5 basket-1 error {err1:.3f} within 0.088 +/- 0.015"),
    ])


@pytest.mark.slow
def test_criterion_09_unequal_sample_sizes():
    config = BorrowingConfig(LocalPowerPrior("peb", 0.55, 0.4), ONE_SUBJECT_PRIOR)
    cal = calibrate_q(UNEQUAL_DESIGN, config, m=200_000, master_seed=11)
    worst = max(abs(a - b) for a, b in zip(cal.cutoffs, UNEQUAL_Q_BENCH))
    rows = [
        compute_metrics(
            run_scenario(scen, UNEQUAL_DESIGN, config, 5000, SEED),
            scen,
            UNEQUAL_DESIGN.p0,
            cal.cutoffs,
        )
        for scen in SCENARIOS
    ]
    agg = aggregate(rows)
    _report(9, "unequal sample sizes", [
        (
            worst <= 0.01,
            f"cutoffs {np.round(cal.cutoffs, 4)} within 0.01 of {UNEQUAL_Q_BENCH} "
            f"(worst {worst:.4f})",
        ),
        (abs(agg.ccr_avg - 0.762) <= 0.015, f"average CCR {agg.ccr_avg:.3f} within 0.762 +/- 0.015"),
    ])


def test_criterion_10_property_suite(tmp_path):
    checks = []

    # borrowing-factor bound under the 3-component weights
    rng = np.random.default_rng(SEED)
    bound_ok = True
    for _ in range(60):
        B = int(rng.integers(2, 7))
        n = tuple(int(v) for v in rng.integers(5, 60, size=B))
        y = tuple(int(rng.integers(0, ni + 1)) for ni in n)
        data = BasketData.all_active(y, n)
        a = float(rng.uniform(0, 5))
        delta = float(rng.uniform(0, 1))
        s = rng.uniform(0, 1, (B, B))
        np.fill_diagonal(s, 1.0)
        bf = borrowing_factor(data, three_component_adjust(s, data, a, delta))
        for i in range(B):
            cap = min(a, (sum(n) - n[i]) / n[i])
            if bf[i] > cap + 1e-12:
                bound_ok = False
    checks.append((bound_ok, "borrowing factor never exceeds min(a, n_other/n_i)"))

    # a=0 and delta=0 both collapse to the independent model exactly
    im_config = BorrowingConfig(IndependentModel(), ONE_SUBJECT_PRIOR)
    collapse_ok = True
    for _ in range(15):
        n = (25,) * 5
        y = tuple(int(rng.integers(0, 26)) for _ in range(5))
        data = BasketData.all_active(y, n)
        reference = final_analysis(data, im_config, 0.15)
        for base in ("peb", "geb"):
            for method in (LocalPowerPrior(base, 0.0, 0.4), LocalPowerPrior(base, 1.0, 0.0)):
                got = final_analysis(data, BorrowingConfig(method, ONE_SUBJECT_PRIOR), 0.15)
                if not np.array_equal(got, reference):
                    collapse_ok = False
    checks.append((collapse_ok, "a=0 and delta=0 reduce both EB bases to the independent model"))

    # worker count never changes report bytes
    import json

    cfg = {
        "design": {
            "baskets": [
                {"name": f"b{i}", "n_max": 25, "looks": [{"size": 10, "futility_max_responses": 1}]}
                for i in range(5)
            ],
            "p0": 0.15,
            "alpha": 0.1,
        },
        "method": {"type": "local_pp", "base": "peb", "a": 0.35, "delta": 0.4},
        "prior": {"b1": 0.15, "b2": 0.85},
        "scenarios": [
            {"name": "S1", "orr": [0.15] * 5},
            {"name": "S3", "orr": [0.15, 0.30, 0.30, 0.30, 0.30]},
        ],
        "run": {"M": 1000, "seed": SEED, "workers": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    rc1 = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
    rc8 = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out8), "--workers", "8"])
    same = (out1 / "oc.csv").read_bytes() == (out8 / "oc.csv").read_bytes()
    checks.append((rc1 == 0 and rc8 == 0 and same, "1-worker and 8-worker reports are byte-identical"))

    # false-discovery convention against exact enumeration under independence
    im_cal = calibrate_q(EQUAL_DESIGN, im_config, m=5000, master_seed=SEED)
    q_cut = im_cal.cutoffs[0]
    # smallest count whose posterior tail clears the cutoff, then the exact
    # joint probability of passing the interim and clearing it
    y_star = next(
        y for y in range(26)
        if prob_exceed(0.15 + y, 0.85 + 25 - y, 0.15) > q_cut
    )
    p0 = 0.15

    def binom_pmf(k, n, p):
        return math.comb(n, k) * p**k * (1 - p) ** (n - k)

    p_reject = sum(
        binom_pmf(k, 10, p0)
        * sum(binom_pmf(j, 15, p0) for j in range(max(0, y_star - k), 16))
        for k in range(2, 11)
    )
    expected_fdr = 0.0
    for pattern in itertools.product((False, True), repeat=5):
        v = sum(pattern)
        prob = math.prod(p_reject if f else 1.0 - p_reject for f in pattern)
        expected_fdr += prob * (v / max(v, 1))
    s1 = SCENARIOS[0]
    row = compute_metrics(
        run_scenario(s1, EQUAL_DESIGN, im_config, 5000, SEED), s1, p0, im_cal.cutoffs
    )
    fdr_ok = abs(row.fdr - expected_fdr) <= 0.02
    checks.append(
        (fdr_ok, f"simulated FDR {row.fdr:.3f} within 0.02 of enumerated {expected_fdr:.3f}")
    )

    # similarity maximizer against a dense-grid oracle
    grid = np.linspace(0.0, 1.0, 10_001)
    grid_ok = True
    for _ in range(40):
        n_i, n_j = int(rng.integers(5, 50)), int(rng.integers(5, 50))
        y_i, y_j = int(rng.integers(0, n_i + 1)), int(rng.integers(0, n_j + 1))
        mine = peb_weight(y_i, n_i, y_j, n_j, 0.15, 0.85)
        vals = _log_marginal_grid(grid, y_i, n_i, y_j, n_j, 0.15, 0.85)
        k = int(np.nonzero(vals >= vals.max() - 1e-12)[0][0])
        if abs(grid[k] - mine) > 2e-3:
            grid_ok = False
    checks.append((grid_ok, "similarity maximizer within 2e-3 of a 10^4-point grid"))

    _report(10, "property suite", checks)


def test_criterion_11_performance(local_pp_evaluation):
    _, _, elapsed = local_pp_evaluation
    _report(11, "performance", [
        (elapsed < 60.0, f"full 6-scenario evaluation took {elapsed:.1f}s < 60s"),
    ])
