import numpy as np
import pytest
from scipy.stats import binom

from basketsim import (
    BorrowingConfig,
    IndependentModel,
    LocalPowerPrior,
    Scenario,
    mc_standard_error,
    prob_exceed,
    run_scenario,
)
from basketsim import simulate
from basketsim.simulate import derive_seed, replicate_rng
from basketsim.weights import clear_caches


@pytest.fixture
def im_config(one_subject_prior):
    return BorrowingConfig(IndependentModel(), one_subject_prior)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        a = run_scenario(scen, equal_design, im_config, (0.857,) * 5, 200, 99)
        b = run_scenario(scen, equal_design, im_config, (0.857,) * 5, 200, 99)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.promising, b.promising)
        assert np.array_equal(a.stopped, b.stopped)

    def test_worker_count_invariance(self, equal_design, one_subject_prior):
        config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), one_subject_prior)
        scen = Scenario("mixed", (0.15, 0.3, 0.3, 0.45, 0.45))
        # each run solves its weights cold, so the pooled workers cannot
        # inherit the serial run's cache
        clear_caches()
        serial = run_scenario(scen, equal_design, config, (0.86,) * 5, 300, 7, workers=1)
        clear_caches()
        pooled = run_scenario(scen, equal_design, config, (0.86,) * 5, 300, 7, workers=4)
        clear_caches()
        assert np.array_equal(serial.q, pooled.q)
        assert np.array_equal(serial.promising, pooled.promising)
        assert np.array_equal(serial.stopped, pooled.stopped)

    def test_global_weights_invariant_to_workers_and_blocks(
        self, equal_design, one_subject_prior, monkeypatch
    ):
        # each run solves its weights cold, in differently composed batches
        config = BorrowingConfig(LocalPowerPrior("geb", 0.35, 0.4), one_subject_prior)
        scen = Scenario("mixed", (0.15, 0.3, 0.3, 0.45, 0.45))
        runs = []
        default = simulate.BLOCK_REPLICATES
        for workers, block in ((1, default), (2, default), (1, 64)):
            clear_caches()
            monkeypatch.setattr(simulate, "BLOCK_REPLICATES", block)
            runs.append(run_scenario(scen, equal_design, config, (0.86,) * 5, 300, 7, workers))
        clear_caches()
        for other in runs[1:]:
            assert np.array_equal(runs[0].q, other.q)
            assert np.array_equal(runs[0].promising, other.promising)

    def test_single_replicate_deterministic(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        a = run_scenario(scen, equal_design, im_config, None, 1, 1234)
        b = run_scenario(scen, equal_design, im_config, None, 1, 1234)
        assert np.array_equal(a.q, b.q)

    def test_scenario_name_keys_the_stream(self, equal_design, im_config):
        a = run_scenario(Scenario("s-a", (0.15,) * 5), equal_design, im_config, None, 50, 5)
        b = run_scenario(Scenario("s-b", (0.15,) * 5), equal_design, im_config, None, 50, 5)
        assert not np.array_equal(a.q, b.q)

    def test_methods_share_generated_data(self, equal_design, one_subject_prior):
        # paired comparisons: the stop pattern depends only on the stream
        scen = Scenario("null", (0.15,) * 5)
        im = run_scenario(
            scen, equal_design, BorrowingConfig(IndependentModel(), one_subject_prior),
            None, 100, 21,
        )
        lp = run_scenario(
            scen, equal_design,
            BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), one_subject_prior),
            None, 100, 21,
        )
        assert np.array_equal(im.stopped, lp.stopped)

    def test_derived_seed_stable(self):
        assert derive_seed(123, "calibration") == derive_seed(123, "calibration")
        assert derive_seed(123, "calibration") != derive_seed(123, "evaluation")
        assert derive_seed(123, "calibration") != derive_seed(124, "calibration")

    def test_replicate_rng_streams_differ(self):
        u0 = replicate_rng(9, "s", 0).random(4)
        u1 = replicate_rng(9, "s", 1).random(4)
        assert not np.array_equal(u0, u1)


class TestEarlyStopping:
    def test_matches_binomial_tail_under_alternative(self, equal_design, im_config):
        scen = Scenario("alt", (0.30,) * 5)
        reps = run_scenario(scen, equal_design, im_config, None, 5000, 77)
        stop_rate = reps.stopped.mean()
        expected = binom.cdf(1, 10, 0.30)  # 0.149
        assert stop_rate == pytest.approx(expected, abs=0.02)

    def test_matches_binomial_tail_under_null(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, None, 5000, 78)
        expected = binom.cdf(1, 10, 0.15)  # 0.544
        assert reps.stopped.mean() == pytest.approx(expected, abs=0.02)

    def test_near_certain_responders_never_stop(self, equal_design, im_config):
        scen = Scenario("high", (0.999,) * 5)
        reps = run_scenario(scen, equal_design, im_config, None, 2000, 79)
        assert reps.stopped.mean() == pytest.approx(0.0, abs=1e-3)


class TestQMatrix:
    def test_stopped_baskets_record_zero(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, None, 500, 31)
        q = reps.q
        assert q.shape == (500, 5)
        assert np.all(q[reps.stopped] == 0.0)
        assert np.all(q[~reps.stopped] > 0.0)

    def test_q_matches_closed_form(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, None, 50, 13)
        # under no borrowing, q is a function of the final count alone
        rng_check = replicate_rng(13, "null", 17)
        responses = rng_check.random((5, 25)) < 0.15
        for i in range(5):
            if reps.stopped[17, i]:
                continue
            y = int(responses[i].sum())
            expected = prob_exceed(0.15 + y, 0.85 + 25 - y, 0.15)
            assert reps.q[17, i] == expected


class TestArguments:
    def test_dimension_mismatch(self, equal_design, im_config):
        with pytest.raises(ValueError):
            run_scenario(Scenario("bad", (0.15,) * 4), equal_design, im_config, None, 10, 1)

    def test_replicates_must_be_positive(self, equal_design, im_config):
        with pytest.raises(ValueError):
            run_scenario(Scenario("null", (0.15,) * 5), equal_design, im_config, None, 0, 1)

    def test_scenario_rates_in_open_interval(self):
        with pytest.raises(ValueError):
            Scenario("bad", (0.0, 0.5))

    def test_mc_standard_error(self):
        assert mc_standard_error(0.5, 100) == pytest.approx(0.05)
        assert mc_standard_error(0.0, 100) == 0.0
