import pytest

from basketsim import (
    BorrowingConfig,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    Scenario,
    TuningGrid,
    tune,
)
from basketsim.tune import MATCH_TARGET, MAXIMIZE_POWER

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

    def test_unknown_strategy(self, scenario_set):
        with pytest.raises(ValueError):
            TuningGrid(scenario_set=scenario_set, strategy="best", constraint=0.2)

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

    @pytest.mark.slow
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
