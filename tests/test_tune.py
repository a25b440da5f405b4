import itertools
from dataclasses import replace

import pytest

from basketsim import (
    BorrowingConfig,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    Scenario,
    TuningGrid,
    aggregate,
    calibrate_q,
    compute_metrics,
    run_scenario,
    tune,
)
from basketsim import simulate
from basketsim.calibrate import CALIBRATION_STREAM
from basketsim.simulate import derive_seed
from basketsim.tune import MATCH_TARGET, MAXIMIZE_POWER, CandidateReport
from basketsim.weights import clear_caches

SEED = 424242
SEED_BENCH = 20250809
M = 400


@pytest.fixture
def scenario_set():
    return (
        Scenario("S1", (0.15,) * 5),
        Scenario("S3", (0.15, 0.30, 0.30, 0.30, 0.30)),
    )


@pytest.fixture
def base_local(one_subject_prior):
    return BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), one_subject_prior)


class TestGridConstruction:
    def test_grid_requires_scenarios(self):
        with pytest.raises(ValueError):
            TuningGrid(scenario_set=(), strategy=MAXIMIZE_POWER, constraint=0.2)

    def test_duplicate_scenario_names(self, scenario_set):
        # metrics are aggregated by scenario name, so a repeat would count twice
        with pytest.raises(ValueError, match="distinct"):
            TuningGrid(
                scenario_set=scenario_set + (scenario_set[0],),
                strategy=MATCH_TARGET,
                constraint=0.2,
            )

    def test_unknown_strategy(self, scenario_set):
        with pytest.raises(ValueError):
            TuningGrid(scenario_set=scenario_set, strategy="best", constraint=0.2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, scenario_set, base_local, workers):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(1.0,), delta_values=(0.4,),
        )
        with pytest.raises(ValueError, match="workers must be >= 1"):
            tune(grid, _design(), base_local, M, SEED, workers)

    def test_method_without_tuning_parameters(self, scenario_set, one_subject_prior):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.2,
            a_values=(0.5,), delta_values=(0.4,),
        )
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        with pytest.raises(ValueError, match="tuning parameters"):
            tune(grid, _design(), config, M, SEED)


def _design():
    from basketsim import DesignSpec, Look

    return DesignSpec.equal(5, 25, [Look(10, 1)], p0=0.15, alpha=0.1)


class TestSelection:
    def test_single_candidate_returned_with_metrics(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(0.5,), delta_values=(0.4,),
        )
        result = tune(grid, _design(), base_local, M, SEED)
        assert len(result.report) == 1
        best = result.best
        assert best.params == {"a": 0.5, "delta": 0.4}
        assert best.bwer_max is not None
        assert best.tpr_avg is not None
        assert best.ccr_avg is not None
        assert best.objective == pytest.approx(0.5 * (best.tpr_avg + best.ccr_avg))
        assert len(best.cutoffs) == 5

    def test_maximize_power_respects_error_bound(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(0.0, 2.0), delta_values=(0.4,),
        )
        result = tune(grid, _design(), base_local, M, SEED)
        # with a slack bound the stronger borrower wins on power
        assert result.best.params["a"] == 2.0
        by_a = {r.params["a"]: r for r in result.report}
        tight_bound = (by_a[0.0].bwer_max + by_a[2.0].bwer_max) / 2
        grid2 = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=tight_bound,
            a_values=(0.0, 2.0), delta_values=(0.4,),
        )
        result2 = tune(grid2, _design(), base_local, M, SEED)
        assert result2.best.params["a"] == 0.0

    def test_infeasible_grid_names_constraint(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=1e-6,
            a_values=(0.5,), delta_values=(0.4,),
        )
        with pytest.raises(ValueError, match="max BWER below 1e-06"):
            tune(grid, _design(), base_local, M, SEED)

    def test_match_target_picks_nearest(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MATCH_TARGET, constraint=0.5,
            a_values=(0.0, 0.5, 3.0), delta_values=(0.4,),
        )
        result = tune(grid, _design(), base_local, M, SEED)
        gaps = {r.params["a"]: abs(r.bwer_max - 0.5) for r in result.report}
        assert gaps[result.best.params["a"]] == min(gaps.values())

    def test_jsd_grid(self, scenario_set, one_subject_prior):
        base = BorrowingConfig(JSDWeights(2.0, 0.5), one_subject_prior)
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MATCH_TARGET, constraint=0.15,
            epsilon_values=(2.0, 6.5), tau_values=(0.5,),
        )
        result = tune(grid, _design(), base, 200, SEED)
        assert len(result.report) == 2
        assert set(result.best.params) == {"epsilon", "tau"}

    def test_missing_grid_values_for_method(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.2,
            epsilon_values=(2.0,), tau_values=(0.5,),
        )
        with pytest.raises(ValueError, match="a_values"):
            tune(grid, _design(), base_local, M, SEED)


class TestBenchmarkSelection:
    """Benchmark-scale selections on the five-basket design with one interim."""

    def _scenarios(self, include_null):
        specs = [
            ("S2", (0.15, 0.15, 0.15, 0.30, 0.30)),
            ("S3", (0.15, 0.30, 0.30, 0.30, 0.30)),
            ("S4", (0.15, 0.30, 0.30, 0.45, 0.45)),
            ("S5", (0.15, 0.45, 0.45, 0.45, 0.45)),
        ]
        if include_null:
            specs = [("S1", (0.15,) * 5)] + specs
        return tuple(Scenario(n, o) for n, o in specs)

    def test_power_maximization_hits_published_region(self, base_local):
        # the mean(TPR, CCR) objective grows with the cap until the max-BWER
        # bound of 0.2 binds; the benchmark optimum is a=0.9 at delta=0.4
        grid = TuningGrid(
            scenario_set=self._scenarios(include_null=False),
            strategy=MAXIMIZE_POWER,
            constraint=0.2,
            a_values=tuple(round(0.1 * k, 1) for k in range(4, 14)),
            delta_values=(0.4,),
        )
        result = tune(grid, _design(), base_local, m=2500, seed=SEED_BENCH)
        chosen_a = result.best.params["a"]
        assert 0.8 <= chosen_a <= 1.0  # one grid step of noise allowed
        assert result.best.bwer_max < 0.2
        infeasible = [r for r in result.report if not r.feasible]
        assert infeasible and all(r.bwer_max >= 0.2 for r in infeasible)

    def test_error_matching_achieves_target(self, base_local):
        # matching a benchmark max-BWER of 0.143: small caps all sit near the
        # target (the surface is flat there), large caps overshoot visibly
        grid = TuningGrid(
            scenario_set=self._scenarios(include_null=True),
            strategy=MATCH_TARGET,
            constraint=0.143,
            a_values=(0.2, 0.35, 0.5, 1.0, 2.0),
            delta_values=(0.4,),
        )
        result = tune(grid, _design(), base_local, m=2000, seed=SEED_BENCH)
        assert abs(result.best.bwer_max - 0.143) <= 0.02
        assert result.best.params["a"] <= 0.5
        by_a = {r.params["a"]: r for r in result.report}
        assert by_a[2.0].bwer_max > by_a[result.best.params["a"]].bwer_max


class TestDeterminism:
    def test_report_reproducible(self, scenario_set, base_local):
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(0.0, 1.0), delta_values=(0.2, 0.4),
        )
        r1 = tune(grid, _design(), base_local, M, SEED)
        r2 = tune(grid, _design(), base_local, M, SEED)
        assert r1 == r2
        assert len(r1.report) == 4

    def test_candidates_share_random_streams(self, scenario_set, base_local):
        # common random numbers: re-running a sub-grid reproduces the same
        # candidate metrics as the full grid
        full = tune(
            TuningGrid(
                scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
                a_values=(0.0, 1.0), delta_values=(0.4,),
            ),
            _design(), base_local, M, SEED,
        )
        sub = tune(
            TuningGrid(
                scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
                a_values=(1.0,), delta_values=(0.4,),
            ),
            _design(), base_local, M, SEED,
        )
        full_one = [r for r in full.report if r.params["a"] == 1.0][0]
        assert full_one == sub.report[0]

    def test_worker_count_invariance(self, scenario_set, base_local):
        # eight candidates run as one group in process, as two groups of four
        # and as three uneven groups; one candidate runs in process at any
        # worker count.  Each run solves its weights cold.
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(0.0, 0.35, 1.0, 2.0), delta_values=(0.2, 0.4),
        )
        single = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(1.0,), delta_values=(0.4,),
        )
        for tuning_grid, worker_counts in ((grid, (1, 2, 3)), (single, (1, 2))):
            results = []
            for workers in worker_counts:
                clear_caches()
                results.append(tune(tuning_grid, _design(), base_local, 200, SEED, workers))
            clear_caches()
            assert len(results[0].report) == len(tuning_grid.a_values) * len(tuning_grid.delta_values)
            for other in results[1:]:
                assert other == results[0]

    def test_at_most_one_pool_per_tune(self, scenario_set, base_local, monkeypatch):
        # the blocks of every stream go to one pool, whatever the grid's size
        pools = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        for a_values in ((1.0,), (0.0, 0.35, 1.0, 2.0)):
            grid = TuningGrid(
                scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
                a_values=a_values, delta_values=(0.2, 0.4),
            )
            for workers in (1, 2, 3):
                pools.clear()
                result = tune(grid, _design(), base_local, 200, SEED, workers)
                assert len(result.report) == 2 * len(a_values)
                assert pools == ([workers] if workers > 1 else [])
        # a stream too short to split runs in process
        pools.clear()
        reps = run_scenario(scenario_set[1], _design(), base_local, 7, SEED, workers=4)
        assert reps.q.shape == (7, 5)
        assert pools == []

    def test_each_stream_block_drawn_once(self, scenario_set, base_local, monkeypatch):
        # one tune draws every block of the calibration stream and of each
        # scenario once, for all its candidates; the jobs run in this
        # process, so the draws can be counted here
        calls = []
        real = simulate.draw_states

        def counting(scenario, design, master_seed, lo, hi):
            calls.append((scenario.name, master_seed, lo, hi))
            return real(scenario, design, master_seed, lo, hi)

        monkeypatch.setattr(simulate, "BLOCK_REPLICATES", 64)
        monkeypatch.setattr(simulate, "draw_states", counting)
        monkeypatch.setattr(simulate, "pool_map", lambda fn, jobs, workers: list(map(fn, jobs)))
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MAXIMIZE_POWER, constraint=0.9,
            a_values=(0.0, 0.35, 1.0, 2.0), delta_values=(0.2, 0.4),
        )
        # ceil(200 / 64) = 4 blocks, rounded up to a multiple of the workers;
        # 8 candidates of 5 baskets return 40 probabilities a replicate, so a
        # cap of 1,600 a job cuts blocks of 40 unless the floor is higher
        for workers, values, least, count in (
            (1, 2**15, 256, 4), (3, 2**15, 256, 6), (1, 1600, 16, 5), (1, 1600, 50, 4),
        ):
            monkeypatch.setattr(simulate, "BLOCK_VALUES", values)
            monkeypatch.setattr(simulate, "BLOCK_MIN_REPLICATES", least)
            calls.clear()
            assert len(tune(grid, _design(), base_local, 200, SEED, workers).report) == 8
            assert len(set(calls)) == len(calls)
            streams = {}
            for name, master_seed, lo, hi in calls:
                streams.setdefault((name, master_seed), []).append((lo, hi))
            calibration = ("global-null", derive_seed(SEED, CALIBRATION_STREAM))
            assert list(streams) == [calibration, ("S1", SEED), ("S3", SEED)]
            for blocks in streams.values():
                assert len(blocks) == count
                assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
                assert blocks[-1][1] == 200


class TestOnePass:
    """``tune`` against each candidate calibrated and evaluated on its own."""

    GRIDS = {
        "local-pp-peb": (
            LocalPowerPrior("peb", 1.0, 0.4),
            {"a_values": (0.0, 0.35, 2.0), "delta_values": (0.2, 0.4)},
        ),
        "local-pp-geb": (
            LocalPowerPrior("geb", 1.0, 0.4),
            {"a_values": (0.35, 1.0), "delta_values": (0.2, 0.4)},
        ),
        "jsd": (JSDWeights(2.0, 0.5), {"epsilon_values": (2.0, 6.5), "tau_values": (0.3, 0.5)}),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_report_equals_candidates_run_alone(self, scenario_set, one_subject_prior, name):
        method, values = self.GRIDS[name]
        base = BorrowingConfig(method, one_subject_prior)
        grid = TuningGrid(
            scenario_set=scenario_set, strategy=MATCH_TARGET, constraint=0.15, **values
        )
        design, m = _design(), 150
        expected = []
        for params in itertools.product(*values.values()):
            params = dict(zip(("a", "delta") if "a_values" in values else ("epsilon", "tau"), params))
            config = BorrowingConfig(replace(method, **params), one_subject_prior)
            calibration = calibrate_q(design, config, m, SEED)
            summary = aggregate([
                compute_metrics(
                    run_scenario(scenario, design, config, m, SEED), scenario, design.p0,
                    calibration.cutoffs,
                )
                for scenario in scenario_set
            ])
            expected.append(CandidateReport(
                params=params,
                cutoffs=calibration.cutoffs,
                bwer_max=summary.bwer_max,
                tpr_avg=summary.tpr_avg,
                ccr_avg=summary.ccr_avg,
                objective=0.5 * (summary.tpr_avg + summary.ccr_avg),
                feasible=summary.bwer_max < grid.constraint,
            ))
        for workers in (1, 2, 3):
            clear_caches()
            assert tune(grid, design, base, m, SEED, workers).report == tuple(expected)
        clear_caches()
