import numpy as np
import pytest

from basketsim import (
    BorrowingConfig,
    DesignSpec,
    IndependentModel,
    Look,
    LocalPowerPrior,
    PriorSpec,
    Scenario,
    basket_groups,
    calibrate_q,
    prob_exceed,
    realized_error,
    run_scenario,
)
from basketsim.calibrate import CALIBRATION_STREAM, _upper_quantile
from basketsim.simulate import derive_seed

SEED = 20250809


@pytest.fixture
def im_config(one_subject_prior):
    return BorrowingConfig(IndependentModel(), one_subject_prior)


class TestQuantileConvention:
    def test_upper_order_statistic(self):
        values = np.arange(1, 101) / 100.0  # 0.01 .. 1.00
        assert _upper_quantile(values, 0.1) == pytest.approx(0.90)
        assert _upper_quantile(values, 0.05) == pytest.approx(0.95)

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="pooled"):
            _upper_quantile(np.arange(5) / 10.0, 0.1)

    def test_small_sample_floor(self):
        # exactly 1/alpha values resolves the quantile
        assert _upper_quantile(np.arange(1, 11) / 10.0, 0.1) == pytest.approx(0.9)


class TestGrouping:
    def test_equal_design_pools_all(self, equal_design):
        assert basket_groups(equal_design) == ((0, 1, 2, 3, 4),)

    def test_distinct_sizes_separate(self, unequal_design):
        assert basket_groups(unequal_design) == ((0,), (1,), (2,), (3,), (4,))

    def test_same_size_different_schedule_separates(self):
        design = DesignSpec(
            (25, 25, 25),
            ((Look(10, 1),), (Look(10, 1),), (Look(15, 2),)),
            p0=0.15,
            alpha=0.1,
        )
        assert basket_groups(design) == ((0, 1), (2,))

    def test_grouped_baskets_share_cutoffs(self, equal_design, im_config):
        result = calibrate_q(equal_design, im_config, m=2000, master_seed=SEED)
        assert len(set(result.cutoffs)) == 1


class TestIndependentCalibration:
    def test_equal_design_cutoff_lands_on_posterior_atom(self, equal_design, im_config):
        result = calibrate_q(equal_design, im_config, m=5000, master_seed=SEED)
        q_atom = prob_exceed(0.15 + 6, 0.85 + 19, 0.15)
        assert result.cutoffs[0] == q_atom  # exactly: the quantile is an observed value
        assert result.cutoffs[0] == pytest.approx(0.857, abs=0.01)

    def test_realized_error_respects_alpha(self, equal_design, im_config):
        result = calibrate_q(equal_design, im_config, m=5000, master_seed=SEED)
        report = realized_error(equal_design, im_config, result.cutoffs, 5000, SEED)
        assert 0.04 <= report.fpr <= 0.09

    def test_cutoff_discreteness_cliff(self, equal_design, im_config):
        # one atom below the calibrated cutoff more than doubles the error
        report = realized_error(equal_design, im_config, (0.856,) * 5, 5000, SEED)
        assert report.fpr == pytest.approx(0.138, abs=0.02)

    def test_unequal_design_cutoffs(self, unequal_design, im_config):
        # atoms of the per-basket count distributions; basket 3 has no interim
        result = calibrate_q(unequal_design, im_config, m=50000, master_seed=3)
        expected = (0.835, 0.816, 0.914, 0.784, 0.798)
        for got, want in zip(result.cutoffs, expected):
            assert got == pytest.approx(want, abs=0.005)

    def test_braf_design_cutoffs(self, braf_design):
        config = BorrowingConfig(IndependentModel(), PriorSpec.shared(0.15, 0.85, 6))
        result = calibrate_q(braf_design, config, m=100_000, master_seed=SEED)
        expected = (0.955, 0.849, 0.928, 0.915, 0.875, 0.943)
        for i, (got, want) in enumerate(zip(result.cutoffs, expected)):
            if i == 1:
                continue
            assert got == pytest.approx(want, abs=0.01)
        # basket 2 (10 subjects) sits on an exact quantile boundary:
        # P(Y <= 3 | Binomial(10, 0.15)) = 0.95003, three parts in 1e5 above
        # the 0.95 target, so at any feasible replicate count the empirical
        # quantile lands on either neighboring posterior atom
        atom_lo = prob_exceed(0.15 + 3, 0.85 + 7, 0.15)
        atom_hi = prob_exceed(0.15 + 4, 0.85 + 6, 0.15)
        assert result.cutoffs[1] in (atom_lo, atom_hi)


class TestBorrowingCalibration:
    def test_local_pp_cutoff(self, equal_design, one_subject_prior):
        config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), one_subject_prior)
        result = calibrate_q(equal_design, config, m=50000, master_seed=3)
        assert result.cutoffs[0] == pytest.approx(0.857, abs=0.01)

    def test_null_rejection_within_tolerance_of_alpha(self, equal_design, one_subject_prior):
        # per-basket null rejection never exceeds alpha by more than 3 MC
        # standard errors; the near-continuous borrowing case also cannot
        # undershoot by more than that (the no-borrowing case may, through
        # the discreteness of the counts)
        m = 5000
        band = 3 * np.sqrt(0.1 * 0.9 / m)
        for method, may_undershoot in (
            (IndependentModel(), True),
            (LocalPowerPrior("peb", 0.35, 0.4), False),
        ):
            config = BorrowingConfig(method, one_subject_prior)
            cal = calibrate_q(equal_design, config, m=m, master_seed=SEED)
            report = realized_error(equal_design, config, cal.cutoffs, m, SEED)
            for rate in report.per_basket:
                assert rate <= 0.1 + band
            if not may_undershoot:
                assert 0.1 - band <= report.fpr <= 0.1 + band

    def test_quantile_is_tight_order_statistic(self, equal_design, one_subject_prior):
        config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), one_subject_prior)
        m = 3000
        result = calibrate_q(equal_design, config, m=m, master_seed=SEED)
        # reconstruct the calibration pool through the public stream contract
        null = Scenario.global_null(equal_design.p0, 5)
        reps = run_scenario(
            null, equal_design, config, m, derive_seed(SEED, CALIBRATION_STREAM)
        )
        pooled = reps.q.ravel()
        q_cut = result.cutoffs[0]
        alpha = equal_design.alpha
        assert np.mean(pooled > q_cut) <= alpha
        lower = pooled[pooled < q_cut]
        assert lower.size > 0
        assert np.mean(pooled > lower.max()) > alpha

    def test_calibration_stream_disjoint_from_evaluation(self, equal_design, im_config):
        # same master seed: evaluating at the calibrated cutoffs is unbiased
        # because calibration used its own namespaced stream
        null = Scenario.global_null(0.15, 5)
        cal_stream = run_scenario(
            null, equal_design, im_config, 100, derive_seed(SEED, CALIBRATION_STREAM)
        )
        eval_stream = run_scenario(null, equal_design, im_config, 100, SEED)
        assert not np.array_equal(cal_stream.q, eval_stream.q)


class TestRealizedError:
    def test_all_one_cutoffs_reject_nothing(self, equal_design, im_config):
        report = realized_error(equal_design, im_config, (1.0,) * 5, 1000, SEED)
        assert report.per_basket == (0.0,) * 5
        assert report.fpr == 0.0

    def test_raising_cutoffs_never_raises_error_rate(self, equal_design, im_config):
        lo = realized_error(equal_design, im_config, (0.80,) * 5, 2000, SEED)
        hi = realized_error(equal_design, im_config, (0.90,) * 5, 2000, SEED)
        for a, b in zip(hi.per_basket, lo.per_basket):
            assert a <= b

    def test_error_when_pool_cannot_resolve_quantile(self, im_config):
        design = DesignSpec((25,), ((),), p0=0.15, alpha=0.1)
        config = BorrowingConfig(IndependentModel(), PriorSpec.shared(0.15, 0.85, 1))
        with pytest.raises(ValueError, match="pooled"):
            calibrate_q(design, config, m=5, master_seed=1)


class TestArguments:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, equal_design, im_config, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            calibrate_q(equal_design, im_config, m=100, master_seed=SEED, workers=workers)
