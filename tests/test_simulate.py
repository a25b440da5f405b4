import math

import numpy as np
import pytest
from scipy.stats import binom

from basketsim import (
    BorrowingConfig,
    DesignSpec,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    Look,
    Scenario,
    mc_standard_error,
    prob_exceed,
    run_scenario,
)
from basketsim import simulate
from basketsim.calibrate import CALIBRATION_STREAM
from basketsim.simulate import derive_seed, replicate_rng
from basketsim.weights import clear_caches

import scalar_oracle


@pytest.fixture
def im_config(one_subject_prior):
    return BorrowingConfig(IndependentModel(), one_subject_prior)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        cutoffs = (0.857,) * 5
        a = run_scenario(scen, equal_design, im_config, 200, 99)
        b = run_scenario(scen, equal_design, im_config, 200, 99)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.q > cutoffs, b.q > cutoffs)
        assert np.array_equal(a.stopped, b.stopped)

    def test_worker_count_invariance(self, equal_design, one_subject_prior):
        config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), one_subject_prior)
        scen = Scenario("mixed", (0.15, 0.3, 0.3, 0.45, 0.45))
        cutoffs = (0.86,) * 5
        # each run solves its weights cold, so the pooled workers cannot
        # inherit the serial run's cache
        clear_caches()
        serial = run_scenario(scen, equal_design, config, 300, 7, workers=1)
        clear_caches()
        pooled = run_scenario(scen, equal_design, config, 300, 7, workers=4)
        clear_caches()
        assert np.array_equal(serial.q, pooled.q)
        assert np.array_equal(serial.q > cutoffs, pooled.q > cutoffs)
        assert np.array_equal(serial.stopped, pooled.stopped)

    def test_global_weights_invariant_to_workers_and_blocks(
        self, equal_design, one_subject_prior, monkeypatch
    ):
        # each run solves its weights cold, in differently composed batches
        scen = Scenario("mixed", (0.15, 0.3, 0.3, 0.45, 0.45))
        default = simulate.BLOCK_REPLICATES
        cutoffs = (0.86,) * 5
        for method in (LocalPowerPrior("geb", 0.35, 0.4), JSDWeights(2.0, 0.3)):
            config = BorrowingConfig(method, one_subject_prior)
            runs = []
            for workers, block in ((1, default), (2, default), (1, 64), (3, 64)):
                clear_caches()
                monkeypatch.setattr(simulate, "BLOCK_REPLICATES", block)
                runs.append(run_scenario(scen, equal_design, config, 300, 7, workers))
            clear_caches()
            for other in runs[1:]:
                assert np.array_equal(runs[0].q, other.q)
                assert np.array_equal(runs[0].q > cutoffs, other.q > cutoffs)

    def test_single_replicate_deterministic(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        a = run_scenario(scen, equal_design, im_config, 1, 1234)
        b = run_scenario(scen, equal_design, im_config, 1, 1234)
        assert np.array_equal(a.q, b.q)

    def test_scenario_name_keys_the_stream(self, equal_design, im_config):
        a = run_scenario(Scenario("s-a", (0.15,) * 5), equal_design, im_config, 50, 5)
        b = run_scenario(Scenario("s-b", (0.15,) * 5), equal_design, im_config, 50, 5)
        assert not np.array_equal(a.q, b.q)

    def test_methods_share_generated_data(self, equal_design, one_subject_prior):
        # paired comparisons: the stop pattern depends only on the stream
        scen = Scenario("null", (0.15,) * 5)
        im = run_scenario(
            scen, equal_design, BorrowingConfig(IndependentModel(), one_subject_prior),
            100, 21,
        )
        lp = run_scenario(
            scen, equal_design,
            BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), one_subject_prior),
            100, 21,
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


class TestDrawStates:
    def test_range_off_the_block_grid_matches_oracle(self, unequal_design):
        # a range that starts past replicate 0 and is not a whole block
        scen = Scenario("mixed", (0.15, 0.3, 0.15, 0.3, 0.45))
        lo, hi = 37, 187
        y, n, active = simulate.draw_states(scen, unequal_design, 4, lo, hi)
        assert y.shape == n.shape == active.shape == (hi - lo, 5)
        shape, orr = (5, max(unequal_design.n_max)), np.array(scen.true_orr)[:, None]
        for row, r in enumerate(range(lo, hi)):
            responses = replicate_rng(4, "mixed", r).random(shape) < orr
            assert (
                tuple(y[row].tolist()), tuple(n[row].tolist()), tuple(active[row].tolist())
            ) == scalar_oracle.apply_interims(responses, unequal_design)
        assert 0 < active.sum() < active.size


class TestArrayDraws:
    """``replicate_uniforms`` and ``draw_states`` against ``replicate_rng``, the
    definition of a replicate's stream, compared with ``==``."""

    # B * width is 2 * 27 = 54 words, not a multiple of Philox's four
    DESIGN = DesignSpec((27, 17), ((Look(10, 1),), (Look(5, 0),)), p0=0.15, alpha=0.1)

    @staticmethod
    def _reference(seed, name, lo, hi, shape):
        return np.array([replicate_rng(seed, name, r).random(shape) for r in range(lo, hi)])

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32, 2**64 - 1, derive_seed(1, CALIBRATION_STREAM)]
    )
    def test_uniforms_bit_identical(self, seed):
        for shape in ((2, 27), (3, 17), (1, 1)):
            for lo, hi in ((0, 3), (37, 42), (2**31 + 5, 2**31 + 8)):
                got = simulate.replicate_uniforms(seed, "S3", lo, hi, shape)
                assert got.shape == (hi - lo, *shape)
                assert np.array_equal(got, self._reference(seed, "S3", lo, hi, shape)), (
                    seed, shape, lo
                )

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (100, 619),  # a range that starts past 0 and spans several hundred replicates
            (2**31 + 3, 2**31 + 40),  # an index past 2**31
            (2**32 - 4, 2**32 + 3),  # indices of one and of two 32-bit words
        ],
    )
    def test_draw_states_matches_oracle(self, lo, hi):
        scen = Scenario("mixed", (0.15, 0.3))
        y, n, active = simulate.draw_states(scen, self.DESIGN, 11, lo, hi)
        assert y.shape == n.shape == active.shape == (hi - lo, 2)
        orr = np.array(scen.true_orr)[:, None]
        responses = self._reference(11, "mixed", lo, hi, (2, 27)) < orr
        for row, trial in enumerate(responses):
            assert (
                tuple(y[row].tolist()), tuple(n[row].tolist()), tuple(active[row].tolist())
            ) == scalar_oracle.apply_interims(trial, self.DESIGN)

    # p * 2**53 has a fraction for 0.15, 0.3, 0.45 and the double below 1/2,
    # and none for 0.5 and 0.25
    RATES = (0.15, 0.3, 0.45, 0.5, 0.25, np.nextafter(0.5, 0.0))

    @staticmethod
    def _responses(monkeypatch, scenario, design, lo, hi):
        # the responses draw_states hands to the interims
        seen, real = [], simulate.apply_interims

        def spy(responses, design):
            seen.append(responses.copy())
            return real(responses, design)

        monkeypatch.setattr(simulate, "apply_interims", spy)
        simulate.draw_states(scenario, design, 11, lo, hi)
        monkeypatch.undo()
        (responses,) = seen
        return responses

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 3),
            (37, 42),
            (2**31 + 5, 2**31 + 8),
            (100, 619),
            (2**32 - 4, 2**32 + 3),
        ],
    )
    def test_integer_compare_matches_uniforms(self, monkeypatch, lo, hi):
        design = DesignSpec.equal(len(self.RATES), 27, [Look(10, 1)], p0=0.15, alpha=0.1)
        scen = Scenario("rates", self.RATES)
        responses = self._responses(monkeypatch, scen, design, lo, hi)
        uniforms = simulate.replicate_uniforms(11, "rates", lo, hi, (len(self.RATES), 27))
        assert np.array_equal(responses, uniforms < np.array(self.RATES)[:, None])

    def test_integer_compare_at_the_rate(self, monkeypatch):
        # the words whose uniforms lie just below, at and just above each rate
        limit = [math.ceil(p * 2**53) for p in self.RATES]
        words = np.array(
            [[(k + d) << 11 | low for d in (-1, 0, 1) for low in (0, 2**11 - 1)] for k in limit],
            dtype=np.uint64,
        )
        monkeypatch.setattr(simulate, "replicate_words", lambda *args: words[None])
        design = DesignSpec.equal(len(self.RATES), 6, [Look(3, 0)], p0=0.15, alpha=0.1)
        responses = self._responses(monkeypatch, Scenario("rates", self.RATES), design, 0, 1)
        uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(responses[0], uniforms < np.array(self.RATES)[:, None])
        # only the two words below each limit respond
        assert responses[0].sum(axis=1).tolist() == [2] * len(self.RATES)

    # the first 8 raw words of three streams, from numpy's Philox and
    # SeedSequence: a numpy release that changed either, or the state format,
    # would move every report while the comparisons with replicate_rng held
    PINNED = [
        (0, "S1", 0, [
            130489945151240589, 6707208955282299638, 10177802387372720034,
            13757526969978133873, 6717817007025327251, 16469073994737967209,
            3914102868347455271, 8040197434288471441,
        ]),
        (2**64 - 1, "S3", 2**32 + 1, [
            14476711556224545331, 917209743193200504, 6894963527047242253,
            339753914232972655, 16961766893464397003, 152750778739636906,
            9576574927030478013, 2844627597222787794,
        ]),
        (derive_seed(1, CALIBRATION_STREAM), "global-null", 4999, [
            4602982320719099265, 18228670584196171885, 14334590309851215031,
            4129061282640091590, 11900082301456217069, 9069263904628208634,
            13184132165469100318, 8035238893960562707,
        ]),
    ]

    @pytest.mark.parametrize("seed, name, index, words", PINNED)
    def test_streams_pinned(self, seed, name, index, words):
        assert replicate_rng(seed, name, index).bit_generator.random_raw(8).tolist() == words
        got = simulate.replicate_words(seed, name, index, index + 1, (8,))
        assert got.tolist() == [words]

    def test_index_of_two_words(self):
        # SeedSequence reads an index of 2**32 or more as two words
        got = simulate.replicate_uniforms(5, "null", 2**32 - 2, 2**32 + 2, (5, 25))
        assert np.array_equal(got, self._reference(5, "null", 2**32 - 2, 2**32 + 2, (5, 25)))
        assert not np.array_equal(got[2], self._reference(5, "null", 0, 1, (5, 25))[0])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            replicate_rng(-1, "null", 0)
        with pytest.raises(ValueError):
            simulate.replicate_uniforms(-1, "null", 0, 1, (1, 1))


class TestBlocks:
    @pytest.mark.parametrize("workers, sizes", [(1, [60] * 5), (3, [50] * 6)])
    def test_each_job_draws_one_block(
        self, equal_design, im_config, monkeypatch, workers, sizes
    ):
        # ceil(300 / 64) = 5 blocks, rounded up to a multiple of the workers;
        # the jobs run in this process, so the draws can be counted here
        calls = []
        real = simulate.draw_states

        def counting(scenario, design, master_seed, lo, hi):
            calls.append((lo, hi))
            return real(scenario, design, master_seed, lo, hi)

        monkeypatch.setattr(simulate, "BLOCK_REPLICATES", 64)
        monkeypatch.setattr(simulate, "draw_states", counting)
        monkeypatch.setattr(simulate, "pool_map", lambda fn, jobs, workers: list(map(fn, jobs)))
        run_scenario(Scenario("null", (0.15,) * 5), equal_design, im_config, 300, 5, workers)
        assert [hi - lo for lo, hi in calls] == sizes
        assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]


class TestEarlyStopping:
    def test_matches_binomial_tail_under_alternative(self, equal_design, im_config):
        scen = Scenario("alt", (0.30,) * 5)
        reps = run_scenario(scen, equal_design, im_config, 5000, 77)
        stop_rate = reps.stopped.mean()
        expected = binom.cdf(1, 10, 0.30)  # 0.149
        assert stop_rate == pytest.approx(expected, abs=0.02)

    def test_matches_binomial_tail_under_null(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, 5000, 78)
        expected = binom.cdf(1, 10, 0.15)  # 0.544
        assert reps.stopped.mean() == pytest.approx(expected, abs=0.02)

    def test_near_certain_responders_never_stop(self, equal_design, im_config):
        scen = Scenario("high", (0.999,) * 5)
        reps = run_scenario(scen, equal_design, im_config, 2000, 79)
        assert reps.stopped.mean() == pytest.approx(0.0, abs=1e-3)


class TestQMatrix:
    def test_stopped_baskets_record_zero(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, 500, 31)
        q = reps.q
        assert q.shape == (500, 5)
        assert np.all(q[reps.stopped] == 0.0)
        assert np.all(q[~reps.stopped] > 0.0)

    def test_q_matches_closed_form(self, equal_design, im_config):
        scen = Scenario("null", (0.15,) * 5)
        reps = run_scenario(scen, equal_design, im_config, 50, 13)
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
            run_scenario(Scenario("bad", (0.15,) * 4), equal_design, im_config, 10, 1)

    def test_replicates_must_be_positive(self, equal_design, im_config):
        with pytest.raises(ValueError):
            run_scenario(Scenario("null", (0.15,) * 5), equal_design, im_config, 0, 1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, equal_design, im_config, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_scenario(Scenario("null", (0.15,) * 5), equal_design, im_config, 10, 1, workers)

    def test_scenario_rates_in_open_interval(self):
        with pytest.raises(ValueError):
            Scenario("bad", (0.0, 0.5))

    def test_mc_standard_error(self):
        assert mc_standard_error(0.5, 100) == pytest.approx(0.05)
        assert mc_standard_error(0.0, 100) == 0.0
