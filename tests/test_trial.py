import numpy as np
import pytest

from basketsim import (
    BasketData,
    BorrowingConfig,
    DesignSpec,
    IndependentModel,
    JSDWeights,
    Look,
    LocalPowerPrior,
    PowerPriorGEB,
    PriorSpec,
    Scenario,
    apply_interims,
    build_weight_matrix,
    final_analysis,
    posterior_params,
    run_scenario,
)
from basketsim.simulate import replicate_rng

import scalar_oracle
from conftest import BRAF_N, BRAF_NAMES, BRAF_Y

# calibrated cutoffs for the BRAF study design at alpha = 0.05
BRAF_Q_IM = (0.955, 0.849, 0.928, 0.915, 0.875, 0.943)
BRAF_Q_LOCAL = (0.933, 0.925, 0.942, 0.908, 0.928, 0.930)


def _sequence(n_total, responders_first):
    seq = np.zeros(n_total, dtype=int)
    seq[:responders_first] = 1
    return seq


class TestApplyInterims:
    def test_stop_at_boundary(self, equal_design):
        # exactly one response in the first ten subjects triggers the stop
        rows = [np.concatenate([_sequence(10, 1), np.ones(15, dtype=int)]) for _ in range(5)]
        data = apply_interims(rows, equal_design)
        assert data.active == (False,) * 5
        assert data.n == (10,) * 5
        assert data.y == (1,) * 5

    def test_continue_past_boundary(self, equal_design):
        rows = [np.concatenate([_sequence(10, 2), np.zeros(15, dtype=int)]) for _ in range(5)]
        data = apply_interims(rows, equal_design)
        assert data.active == (True,) * 5
        assert data.n == (25,) * 5
        assert data.y == (2,) * 5

    def test_basket_without_looks_always_reaches_maximum(self):
        design = DesignSpec((8,), ((),), p0=0.15, alpha=0.1)
        data = apply_interims([np.zeros(8, dtype=int)], design)
        assert data.active == (True,)
        assert data.n == (8,)
        assert data.y == (0,)

    def test_first_violated_look_wins(self):
        design = DesignSpec(
            (30,), ((Look(10, 0), Look(20, 5)),), p0=0.2, alpha=0.1
        )
        seq = np.concatenate([_sequence(10, 1), np.zeros(20, dtype=int)])
        data = apply_interims([seq], design)
        assert data.n == (20,)
        assert data.y == (1,)

    def test_padded_rectangular_input(self, unequal_design):
        rng = np.random.default_rng(0)
        accrual = (rng.random((5, 26)) < 0.3).astype(int)
        data = apply_interims(accrual, unequal_design)
        assert data.n_baskets == 5
        for i, nm in enumerate(unequal_design.n_max):
            assert data.n[i] <= nm

    def test_short_sequence_rejected(self, equal_design):
        rows = [np.ones(25, dtype=int)] * 4 + [np.ones(24, dtype=int)]
        with pytest.raises(ValueError, match="shorter"):
            apply_interims(rows, equal_design)


class TestFinalAnalysis:
    def test_braf_independent_decisions(self, braf_prior):
        data = BasketData.all_active(BRAF_Y, BRAF_N)
        config = BorrowingConfig(IndependentModel(), braf_prior)
        q, promising = final_analysis(data, config, BRAF_Q_IM, 0.15)
        assert q[0] == pytest.approx(0.997, abs=1e-3)
        assert q[4] == pytest.approx(0.991, abs=1e-3)
        assert {name for name, p in zip(BRAF_NAMES, promising) if p} == {"NSCLC", "ECD or LCH"}

    def test_braf_local_pp_atc_not_promising(self, braf_prior):
        data = BasketData.all_active(BRAF_Y, BRAF_N)
        config = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), braf_prior)
        q, promising = final_analysis(data, config, BRAF_Q_LOCAL, 0.15)
        assert q[5] == pytest.approx(0.879, abs=0.01)
        assert not promising[5]
        assert {name for name, p in zip(BRAF_NAMES, promising) if p} == {"NSCLC", "ECD or LCH"}

    def test_all_stopped(self, one_subject_prior):
        data = BasketData((1,) * 5, (10,) * 5, (False,) * 5)
        config = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), one_subject_prior)
        q, promising = final_analysis(data, config, (0.5,) * 5, 0.15)
        assert q.tolist() == [0.0] * 5
        assert promising.tolist() == [False] * 5
        # a stopped basket's posterior is still its own-data posterior
        weights = build_weight_matrix(config, data)
        assert posterior_params(data, config.prior, weights)[0][0] == pytest.approx(1.15)

    def test_stopped_basket_never_promising_even_with_zero_cutoff(self, one_subject_prior):
        data = BasketData((1, 9), (10, 25), (False, True))
        config = BorrowingConfig(IndependentModel(), PriorSpec.shared(0.15, 0.85, 2))
        _, promising = final_analysis(data, config, (0.0, 0.0), 0.15)
        assert not promising[0]
        assert promising[1]

    def test_exact_cutoff_tie_is_not_promising(self, one_subject_prior):
        data = BasketData.all_active((9,) * 5, (25,) * 5)
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        probe, _ = final_analysis(data, config, None, 0.15)
        _, promising = final_analysis(data, config, probe, 0.15)
        assert promising.tolist() == [False] * 5

    def test_independent_model_ignores_other_baskets(self, one_subject_prior):
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        a = BasketData.all_active((9, 2, 20, 5, 11), (25,) * 5)
        b = BasketData.all_active((9, 11, 5, 20, 2), (25,) * 5)
        qa, _ = final_analysis(a, config, None, 0.15)
        qb, _ = final_analysis(b, config, None, 0.15)
        assert qa[0] == qb[0]

    def test_borrowing_suppressed_equals_independent(self, one_subject_prior):
        data = BasketData.all_active((2, 9, 11, 13, 20), (25,) * 5)
        im, _ = final_analysis(
            data, BorrowingConfig(IndependentModel(), one_subject_prior), None, 0.15
        )
        for method in (LocalPowerPrior("peb", 0.0, 0.4), LocalPowerPrior("peb", 1.0, 0.0)):
            lp, _ = final_analysis(
                data, BorrowingConfig(method, one_subject_prior), None, 0.15
            )
            assert lp.tolist() == im.tolist()

    def test_cutoff_length_mismatch(self, one_subject_prior):
        data = BasketData.all_active((2, 9, 11, 13, 20), (25,) * 5)
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        with pytest.raises(ValueError):
            final_analysis(data, config, (0.9, 0.9), 0.15)


# four baskets with two futility looks each, except the last, which has none
TWO_LOOK_DESIGN = DesignSpec(
    (30, 20, 24, 12),
    ((Look(10, 1), Look(20, 4)), (Look(8, 0), Look(14, 2)), (Look(12, 2), Look(18, 3)), ()),
    p0=0.15,
    alpha=0.1,
)
ORACLE_METHODS = {
    "im": IndependentModel(),
    "local-pp-peb": LocalPowerPrior("peb", 0.35, 0.4),
    "pp-geb": PowerPriorGEB(),
    "jsd": JSDWeights(6.5, 0.5),
}


class TestScalarOracle:
    """Whole-trial analysis against the per-basket loops, compared with ``==``."""

    @pytest.fixture(params=["equal", "unequal", "two-look"])
    def design(self, request, equal_design, unequal_design):
        return {"equal": equal_design, "unequal": unequal_design, "two-look": TWO_LOOK_DESIGN}[
            request.param
        ]

    @pytest.mark.parametrize("method", ORACLE_METHODS.values(), ids=ORACLE_METHODS.keys())
    def test_bit_identical_to_oracle(self, design, method):
        B = design.n_baskets
        config = BorrowingConfig(method, PriorSpec.shared(0.15, 0.85, B))
        cutoffs = (0.8,) * B
        width = max(design.n_max)
        stopped_counts = set()
        stop_sizes = set()
        for name, orr in (("null", (0.15,) * B), ("mixed", (0.15, 0.3, 0.45, 0.3, 0.45)[:B])):
            m, seed = 150, 5
            reps = run_scenario(Scenario(name, orr), design, config, cutoffs, m, seed)
            for r in range(m):
                responses = replicate_rng(seed, name, r).random((B, width)) < np.array(orr)[:, None]
                data = apply_interims(responses, design)
                assert (data.y, data.n, data.active) == scalar_oracle.apply_interims(
                    responses, design
                )
                weights = build_weight_matrix(config, data)
                shape1, shape2 = posterior_params(data, config.prior, weights)
                assert list(zip(shape1.tolist(), shape2.tolist())) == [
                    scalar_oracle.posterior_shapes(i, data, config.prior, weights)
                    for i in range(B)
                ]
                q, promising = final_analysis(data, config, cutoffs, design.p0)
                expected_q, expected_promising = scalar_oracle.final_analysis(
                    data, config.prior, weights, cutoffs, design.p0
                )
                assert q.tolist() == expected_q
                assert promising.tolist() == expected_promising
                assert reps.q[r].tolist() == expected_q
                assert reps.promising[r].tolist() == expected_promising
                assert reps.stopped[r].tolist() == [not a for a in data.active]
                stopped_counts.add(B - sum(data.active))
                stop_sizes.update((i, n) for i, n in enumerate(data.n) if not data.active[i])
        # the streams hold trials with no, some and (where every basket has a
        # look) all baskets stopped, and every look of the design stops some
        assert {0, 1, 2} <= stopped_counts
        if all(design.looks):
            assert B in stopped_counts
        looks = {(i, lk.size) for i, basket_looks in enumerate(design.looks) for lk in basket_looks}
        assert stop_sizes == looks


class TestDesignSpecValidation:
    def test_look_sizes_must_increase(self):
        with pytest.raises(ValueError):
            DesignSpec((25,), ((Look(10, 1), Look(10, 2)),), 0.15, 0.1)

    def test_look_must_precede_maximum(self):
        with pytest.raises(ValueError):
            DesignSpec((25,), ((Look(25, 1),),), 0.15, 0.1)

    def test_boundary_within_look(self):
        with pytest.raises(ValueError):
            Look(10, 11)

    def test_names_length(self):
        with pytest.raises(ValueError):
            DesignSpec((25, 25), ((), ()), 0.15, 0.1, names=("one",))
