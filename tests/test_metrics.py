import itertools
import math

import numpy as np
import pytest

from basketsim import (
    AggregateMetrics,
    BasketData,
    BorrowingConfig,
    IndependentModel,
    PriorSpec,
    ReplicateSet,
    Scenario,
    aggregate,
    compute_metrics,
    final_analysis,
)


def _row(promising, scen, p0=0.15):
    """The metrics of replicates whose q is 1 where ``promising`` is set and 0 elsewhere."""
    q = np.asarray(promising, dtype=float)
    reps = ReplicateSet(q=q, stopped=np.zeros(q.shape, dtype=bool))
    return compute_metrics(reps, scen, p0, (0.5,) * q.shape[1])


def _flags_with_rates(rates, m, seed=0):
    rng = np.random.default_rng(seed)
    cols = []
    for r in rates:
        k = round(r * m)
        col = np.zeros(m, dtype=bool)
        col[:k] = True
        rng.shuffle(col)
        cols.append(col)
    return np.column_stack(cols)


class TestScenarioMetrics:
    def test_mixed_scenario_arithmetic(self):
        # three null baskets, two promising ones
        rates = (0.065, 0.060, 0.065, 0.621, 0.626)
        scen = Scenario("S2", (0.15, 0.15, 0.15, 0.30, 0.30))
        row = _row(_flags_with_rates(rates, 1000), scen, p0=0.15)
        assert row.truth_promising == (False, False, False, True, True)
        for got, want in zip(row.rejection_rate, rates):
            assert got == pytest.approx(want, abs=1e-9)
        assert row.fpr == pytest.approx(np.mean(rates[:3]))
        assert row.tpr == pytest.approx(np.mean(rates[3:]))
        expected_ccr = (sum(1 - r for r in rates[:3]) + sum(rates[3:])) / 5
        assert row.ccr == pytest.approx(expected_ccr)
        assert row.ccr == pytest.approx(0.811, abs=5e-4)

    def test_no_rejections(self):
        scen = Scenario("S2", (0.15, 0.15, 0.15, 0.30, 0.30))
        row = _row(np.zeros((50, 5)), scen)
        assert row.fpr == 0.0
        assert row.fdr == 0.0
        assert row.fwer == 0.0
        assert row.tpr == 0.0

    def test_global_null_reports_no_power_metrics(self):
        scen = Scenario("S1", (0.15,) * 5)
        row = _row(_flags_with_rates((0.1,) * 5, 200), scen)
        assert row.tpr is None
        assert row.ccr is None
        assert row.fpr is not None

    def test_global_alternative_reports_no_error_metrics(self):
        scen = Scenario("S6", (0.30,) * 5)
        row = _row(_flags_with_rates((0.7,) * 5, 200), scen)
        assert row.fpr is None
        assert row.fwer is None
        assert row.fdr is None
        assert row.ccr == pytest.approx(row.tpr)

    def test_fdr_definition_per_replicate(self):
        # V / max(R, 1): hand-checkable 3-replicate example
        scen = Scenario("s", (0.15, 0.30, 0.30))
        flags = np.array(
            [
                [True, True, False],   # V=1, R=2 -> 1/2
                [False, True, True],   # V=0, R=2 -> 0
                [False, False, False], # R=0 -> 0
            ]
        )
        row = _row(flags, scen)
        assert row.fdr == pytest.approx((0.5 + 0.0 + 0.0) / 3)
        assert row.fwer == pytest.approx(1.0 / 3)

    def test_fdr_never_exceeds_fwer(self):
        rng = np.random.default_rng(4)
        scen = Scenario("s", (0.15, 0.15, 0.30, 0.45))
        for _ in range(20):
            flags = rng.random((100, 4)) < rng.uniform(0.05, 0.9, size=4)
            row = _row(flags, scen)
            assert row.fdr <= row.fwer + 1e-12

    def test_fpr_is_mean_of_null_basket_rates(self):
        rng = np.random.default_rng(9)
        scen = Scenario("s", (0.15, 0.15, 0.45))
        flags = rng.random((500, 3)) < (0.1, 0.2, 0.8)
        row = _row(flags, scen)
        rates = flags.mean(axis=0)
        assert row.fpr == pytest.approx((rates[0] + rates[1]) / 2)

    def test_dimension_mismatch(self):
        scen = Scenario("s", (0.15, 0.30))
        with pytest.raises(ValueError):
            _row(np.zeros((10, 3)), scen)


class TestFalseDiscoveryOracle:
    def test_independent_null_matches_exact_enumeration(self):
        # exact enumeration over all rejection patterns of independent baskets
        p = 0.0630
        b = 5
        expected = 0.0
        for pattern in itertools.product((False, True), repeat=b):
            v = sum(pattern)
            prob = math.prod(p if flag else 1.0 - p for flag in pattern)
            expected += prob * (v / max(v, 1))
        assert expected == pytest.approx(1.0 - (1.0 - p) ** b)

        rng = np.random.default_rng(123)
        flags = rng.random((20000, b)) < p
        scen = Scenario("S1", (0.15,) * b)
        row = _row(flags, scen)
        assert row.fdr == pytest.approx(expected, abs=0.02)


class TestDecisions:
    """``compute_metrics`` flags a basket promising iff q strictly exceeds its cutoff."""

    @staticmethod
    def _rates(data, config, cutoffs):
        q = final_analysis(data, config, 0.15)
        reps = ReplicateSet(q=q[None, :], stopped=np.logical_not(data.active)[None, :])
        scen = Scenario("s", (0.15,) * data.n_baskets)
        return compute_metrics(reps, scen, 0.15, cutoffs).rejection_rate

    def test_stopped_basket_never_promising_even_with_zero_cutoff(self):
        data = BasketData((1, 9), (10, 25), (False, True))
        config = BorrowingConfig(IndependentModel(), PriorSpec.shared(0.15, 0.85, 2))
        assert self._rates(data, config, (0.0, 0.0)) == (0.0, 1.0)

    def test_exact_cutoff_tie_is_not_promising(self, one_subject_prior):
        data = BasketData.all_active((9,) * 5, (25,) * 5)
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        probe = final_analysis(data, config, 0.15)
        assert self._rates(data, config, probe) == (0.0,) * 5

    def test_cutoff_length_mismatch(self, one_subject_prior):
        data = BasketData.all_active((2, 9, 11, 13, 20), (25,) * 5)
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        with pytest.raises(ValueError):
            self._rates(data, config, (0.9, 0.9))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_cutoff_outside_unit_interval(self, one_subject_prior, bad):
        data = BasketData.all_active((2, 9, 11, 13, 20), (25,) * 5)
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            self._rates(data, config, (0.9, 0.9, bad, 0.9, 0.9))


class TestAggregate:
    def _rows(self):
        rows = []
        specs = {
            "S1": ((0.15,) * 3, (0.06, 0.07, 0.05)),
            "S2": ((0.15, 0.30, 0.30), (0.10, 0.60, 0.62)),
            "S6": ((0.30,) * 3, (0.70, 0.72, 0.71)),
        }
        for name, (orr, rates) in specs.items():
            scen = Scenario(name, orr)
            rows.append(_row(_flags_with_rates(rates, 100), scen))
        return rows

    def test_single_scenario_aggregates_equal_row(self):
        rows = self._rows()
        agg = aggregate([rows[1]])
        s2 = rows[1]
        assert agg.bwer_avg == pytest.approx(s2.rejection_rate[0])
        assert agg.bwer_max == pytest.approx(s2.rejection_rate[0])
        assert agg.tpr_avg == pytest.approx(s2.tpr)
        assert agg.ccr_avg == pytest.approx(s2.ccr)

    def test_pooled_error_rates_across_scenarios(self):
        # S6 has no truly non-promising basket and S1 no promising one
        rows = self._rows()
        agg = aggregate(rows)
        bwers = [0.06, 0.07, 0.05, 0.10]
        assert agg.bwer_avg == pytest.approx(np.mean(bwers))
        assert agg.bwer_max == pytest.approx(0.10)
        assert agg.tpr_avg == pytest.approx(np.mean([rows[1].tpr, rows[2].tpr]))

    def test_alt_rows_without_power_are_skipped(self):
        rows = self._rows()
        agg = aggregate([rows[0], rows[2]])
        assert agg.tpr_avg == pytest.approx(rows[2].tpr)

    def test_rows_lacking_a_truth_class_give_none(self):
        s1, _, s6 = self._rows()
        null_only = aggregate([s1])
        assert null_only.bwer_max == pytest.approx(0.07)
        assert null_only.tpr_avg is None
        assert null_only.ccr_avg is None
        alt_only = aggregate([s6])
        assert alt_only.bwer_avg is None
        assert alt_only.bwer_max is None
        assert alt_only.tpr_avg == pytest.approx(s6.tpr)
        assert aggregate([]) == AggregateMetrics(None, None, None, None)
