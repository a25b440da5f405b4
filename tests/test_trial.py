import itertools

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
    PowerPriorPEB,
    PriorSpec,
    Scenario,
    apply_interims,
    build_weight_matrix,
    compute_metrics,
    final_analysis,
    posterior_params,
    prob_exceed,
    run_scenario,
)
import basketsim.trial as trial
import basketsim.weights as weights
from basketsim.posterior import block_posterior_params
from basketsim.simulate import draw_states, replicate_rng
from basketsim.trial import evaluate_q
from basketsim.weights import (
    _basket_codes,
    _block_keys,
    _entries,
    _solve_geb,
    class_table,
    clear_caches,
    similarity_classes,
)

import scalar_oracle
from conftest import BRAF_N, BRAF_NAMES, BRAF_Y

# calibrated cutoffs for the BRAF study design at alpha = 0.05
BRAF_Q_IM = (0.955, 0.849, 0.928, 0.915, 0.875, 0.943)
BRAF_Q_LOCAL = (0.933, 0.925, 0.942, 0.908, 0.928, 0.930)


def _sequence(n_total, responders_first):
    seq = np.zeros(n_total, dtype=int)
    seq[:responders_first] = 1
    return seq


def _one_trial(responses, design):
    """One trial's (B, width) responses after the interims, as ``BasketData``."""
    y, n, active = apply_interims(responses[None], design)
    return BasketData(y[0].tolist(), n[0].tolist(), active[0].tolist())


class TestApplyInterims:
    def test_stop_at_boundary(self, equal_design):
        # exactly one response in the first ten subjects triggers the stop
        rows = [np.concatenate([_sequence(10, 1), np.ones(15, dtype=int)]) for _ in range(5)]
        y, n, active = apply_interims(np.array([rows]), equal_design)
        assert active.tolist() == [[False] * 5]
        assert n.tolist() == [[10] * 5]
        assert y.tolist() == [[1] * 5]

    def test_continue_past_boundary(self, equal_design):
        rows = [np.concatenate([_sequence(10, 2), np.zeros(15, dtype=int)]) for _ in range(5)]
        y, n, active = apply_interims(np.array([rows]), equal_design)
        assert active.tolist() == [[True] * 5]
        assert n.tolist() == [[25] * 5]
        assert y.tolist() == [[2] * 5]

    def test_basket_without_looks_always_reaches_maximum(self):
        design = DesignSpec((8,), ((),), p0=0.15, alpha=0.1)
        y, n, active = apply_interims(np.zeros((1, 1, 8), dtype=int), design)
        assert active.tolist() == [[True]]
        assert n.tolist() == [[8]]
        assert y.tolist() == [[0]]

    def test_first_violated_look_wins(self):
        design = DesignSpec(
            (30,), ((Look(10, 0), Look(20, 5)),), p0=0.2, alpha=0.1
        )
        seq = np.concatenate([_sequence(10, 1), np.zeros(20, dtype=int)])
        y, n, _ = apply_interims(seq[None, None], design)
        assert n.tolist() == [[20]]
        assert y.tolist() == [[1]]

    def test_padded_rectangular_input(self, unequal_design):
        rng = np.random.default_rng(0)
        accrual = (rng.random((5, 26)) < 0.3).astype(int)
        y, n, active = apply_interims(accrual[None], unequal_design)
        assert y.shape == n.shape == active.shape == (1, 5)
        for i, nm in enumerate(unequal_design.n_max):
            assert n[0, i] <= nm

    def test_short_sequence_rejected(self, equal_design):
        with pytest.raises(ValueError, match="shorter"):
            apply_interims(np.ones((3, 5, 24), dtype=int), equal_design)

    def test_wrong_shape_rejected(self, equal_design):
        for shape in ((5, 25), (3, 4, 25), (1, 1, 5, 25)):
            with pytest.raises(ValueError, match="shape"):
                apply_interims(np.ones(shape, dtype=int), equal_design)

    def test_every_block_matches_oracle(self):
        # all 4,096 0/1 blocks of two baskets of width 6 in one call
        design = DesignSpec(
            (6, 5), ((Look(2, 0), Look(4, 1)), (Look(3, 0),)), p0=0.2, alpha=0.1
        )
        bits = (np.arange(2**12)[:, None] >> np.arange(12)) & 1
        accrual = bits.reshape(-1, 2, 6)
        y, n, active = apply_interims(accrual, design)
        for r, responses in enumerate(accrual):
            assert (
                tuple(y[r].tolist()), tuple(n[r].tolist()), tuple(active[r].tolist())
            ) == scalar_oracle.apply_interims(responses, design)
        # both looks of basket 1 and the look of basket 2 stop some trials,
        # in every combination, and some trials stop nowhere
        assert set(map(tuple, n.tolist())) == {(a, b) for a in (2, 4, 6) for b in (3, 5)}


class TestFinalAnalysis:
    def test_braf_independent_decisions(self, braf_prior):
        data = BasketData.all_active(BRAF_Y, BRAF_N)
        config = BorrowingConfig(IndependentModel(), braf_prior)
        q = final_analysis(data, config, 0.15)
        promising = q > BRAF_Q_IM
        assert q[0] == pytest.approx(0.997, abs=1e-3)
        assert q[4] == pytest.approx(0.991, abs=1e-3)
        assert {name for name, p in zip(BRAF_NAMES, promising) if p} == {"NSCLC", "ECD or LCH"}

    def test_braf_local_pp_atc_not_promising(self, braf_prior):
        data = BasketData.all_active(BRAF_Y, BRAF_N)
        config = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), braf_prior)
        q = final_analysis(data, config, 0.15)
        promising = q > BRAF_Q_LOCAL
        assert q[5] == pytest.approx(0.879, abs=0.01)
        assert not promising[5]
        assert {name for name, p in zip(BRAF_NAMES, promising) if p} == {"NSCLC", "ECD or LCH"}

    def test_all_stopped(self, one_subject_prior):
        data = BasketData((1,) * 5, (10,) * 5, (False,) * 5)
        config = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), one_subject_prior)
        q = final_analysis(data, config, 0.15)
        assert q.tolist() == [0.0] * 5
        assert (q > (0.5,) * 5).tolist() == [False] * 5
        # a stopped basket's posterior is still its own-data posterior
        weights = build_weight_matrix(config, data)
        assert posterior_params(data, config.prior, weights)[0][0] == pytest.approx(1.15)

    def test_independent_model_ignores_other_baskets(self, one_subject_prior):
        config = BorrowingConfig(IndependentModel(), one_subject_prior)
        a = BasketData.all_active((9, 2, 20, 5, 11), (25,) * 5)
        b = BasketData.all_active((9, 11, 5, 20, 2), (25,) * 5)
        qa = final_analysis(a, config, 0.15)
        qb = final_analysis(b, config, 0.15)
        assert qa[0] == qb[0]

    def test_borrowing_suppressed_equals_independent(self, one_subject_prior):
        data = BasketData.all_active((2, 9, 11, 13, 20), (25,) * 5)
        im = final_analysis(data, BorrowingConfig(IndependentModel(), one_subject_prior), 0.15)
        for method in (LocalPowerPrior("peb", 0.0, 0.4), LocalPowerPrior("peb", 1.0, 0.0)):
            lp = final_analysis(data, BorrowingConfig(method, one_subject_prior), 0.15)
            assert lp.tolist() == im.tolist()


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
            scenario = Scenario(name, orr)
            reps = run_scenario(scenario, design, config, m, seed)
            oracle_flags = []
            for r in range(m):
                responses = replicate_rng(seed, name, r).random((B, width)) < np.array(orr)[:, None]
                data = _one_trial(responses, design)
                assert (data.y, data.n, data.active) == scalar_oracle.apply_interims(
                    responses, design
                )
                weights = build_weight_matrix(config, data)
                shape1, shape2 = posterior_params(data, config.prior, weights)
                assert list(zip(shape1.tolist(), shape2.tolist())) == [
                    scalar_oracle.posterior_shapes(i, data, config.prior, weights)
                    for i in range(B)
                ]
                q = final_analysis(data, config, design.p0)
                expected_q, expected_promising = scalar_oracle.final_analysis(
                    data, config.prior, weights, cutoffs, design.p0
                )
                assert q.tolist() == expected_q
                assert (q > cutoffs).tolist() == expected_promising
                assert reps.q[r].tolist() == expected_q
                assert (reps.q[r] > cutoffs).tolist() == expected_promising
                assert reps.stopped[r].tolist() == [not a for a in data.active]
                oracle_flags.append(expected_promising)
                stopped_counts.add(B - sum(data.active))
                stop_sizes.update((i, n) for i, n in enumerate(data.n) if not data.active[i])
            # the stream's decisions are compute_metrics' to make
            row = compute_metrics(reps, scenario, design.p0, cutoffs)
            assert row.rejection_rate == tuple(np.array(oracle_flags).mean(axis=0).tolist())
        # the streams hold trials with no, some and (where every basket has a
        # look) all baskets stopped, and every look of the design stops some
        assert {0, 1, 2} <= stopped_counts
        if all(design.looks):
            assert B in stopped_counts
        looks = {(i, lk.size) for i, basket_looks in enumerate(design.looks) for lk in basket_looks}
        assert stop_sizes == looks


def _block(trials):
    # a list of trials as the (y, n, active) arrays of one block
    return tuple(np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))


def _oracle_q(config, trials, p0):
    # each trial's q from its own weight matrix and the scalar oracle
    return np.array([
        scalar_oracle.final_analysis(data, config.prior, build_weight_matrix(config, data), None, p0)[0]
        for data in trials
    ])


class TestExhaustiveSmallDesign:
    """Every outcome of three and four baskets of six with a look at 3 that stops on 0.

    Each test covers both sizes: 343 and 2,401 outcomes.
    """

    SIZES = (3, 4)
    METHODS = {
        "im": IndependentModel(),
        "pp-peb": PowerPriorPEB(),
        "pp-geb": PowerPriorGEB(),
        "local-pp-peb": LocalPowerPrior("peb", 0.35, 0.4),
        "local-pp-geb": LocalPowerPrior("geb", 0.35, 0.4),
        "jsd": JSDWeights(6.5, 0.5),
    }

    @pytest.fixture(scope="class")
    def outcomes(self):
        # B -> (design, prior, every trial), each basket's terminal states
        # taken from all 64 response sequences of one basket
        bits = (np.arange(2**6)[:, None] >> np.arange(6)) & 1
        tables = {}
        for b in self.SIZES:
            design = DesignSpec.equal(b, 6, [Look(3, 0)], p0=0.15, alpha=0.1)
            y, n, active = apply_interims(np.repeat(bits[:, None], b, axis=1), design)
            states = sorted(set(zip(y[:, 0].tolist(), n[:, 0].tolist(), active[:, 0].tolist())))
            assert len(states) == 7
            trials = [BasketData(*zip(*outcome)) for outcome in itertools.product(states, repeat=b)]
            assert len(set(trials)) == 7**b
            tables[b] = (design, PriorSpec.shared(0.15, 0.85, b), trials)
        return tables

    def test_geb_batch_matches_each_key_alone(self, outcomes):
        for b, (_, prior, trials) in outcomes.items():
            keys = [key for data in trials for _, _, key in _entries("geb", data, prior)]
            keys = list(dict.fromkeys(keys))
            assert {len(key[4]) for key in keys} == set(range(b))
            for key, together in zip(keys, _solve_geb(keys)):
                assert np.array_equal(_solve_geb([key])[0], together), key

    @pytest.mark.parametrize("name", METHODS)
    def test_final_analysis_matches_oracle(self, outcomes, name):
        method = self.METHODS[name]
        for b, (design, prior, trials) in outcomes.items():
            config = BorrowingConfig(method, prior)
            borrowed = 0
            for data in trials:
                weights = build_weight_matrix(config, data)
                if isinstance(method, LocalPowerPrior):
                    raw = PowerPriorPEB() if method.base == "peb" else PowerPriorGEB()
                    expected = scalar_oracle.three_component_adjust(
                        build_weight_matrix(BorrowingConfig(raw, prior), data),
                        data,
                        method.a,
                        method.delta,
                    )
                    assert np.array_equal(weights, expected), (b, data)
                expected_q, _ = scalar_oracle.final_analysis(data, prior, weights, None, design.p0)
                assert final_analysis(data, config, design.p0).tolist() == expected_q, (b, data)
                borrowed += np.any(weights != np.eye(b))
            # every method but the independent model borrows on some outcome
            assert (borrowed > 0) == (name != "im"), b

    @pytest.mark.parametrize("name", METHODS)
    def test_permuting_baskets_permutes_q(self, outcomes, name):
        # each outcome analysed alone on analyze's path (build_weight_matrix,
        # posterior_params, prob_exceed); the outcomes are the product of
        # seven states per basket, so every permutation of one is another
        for b, (design, prior, trials) in outcomes.items():
            config = BorrowingConfig(self.METHODS[name], prior)
            alone = []
            for data in trials:
                shape1, shape2 = posterior_params(data, prior, build_weight_matrix(config, data))
                alone.append(np.where(data.active, prob_exceed(shape1, shape2, design.p0), 0.0))
            alone = np.array(alone)
            states = np.array(list(itertools.product(range(7), repeat=b)))
            for perm in itertools.permutations(range(b)):
                rows = states[:, perm] @ 7 ** np.arange(b - 1, -1, -1)
                assert np.array_equal(alone[rows], alone[:, perm]), (b, perm)
            for data, q in zip(trials, alone.tolist()):
                assert final_analysis(data, config, design.p0).tolist() == q, (b, data)
            assert np.array_equal(evaluate_q(config, design.p0, *_block(trials)), alone), b

    @pytest.fixture(scope="class")
    def unequal_outcomes(self):
        # B -> (design, prior, every trial) on unequal n_max (6, 5, 4, 6) with
        # a look at 3 that stops on 0 and a prior of its own for each basket
        b1, b2 = (0.15, 0.3, 0.5, 0.2), (0.85, 0.7, 0.5, 0.8)
        tables = {}
        for b in self.SIZES:
            design = DesignSpec((6, 5, 4, 6)[:b], ((Look(3, 0),),) * b, p0=0.15, alpha=0.1)
            bits = (np.arange(2**6)[:, None] >> np.arange(6)) & 1
            y, n, active = apply_interims(np.repeat(bits[:, None], b, axis=1), design)
            states = [
                sorted(set(zip(y[:, i].tolist(), n[:, i].tolist(), active[:, i].tolist())))
                for i in range(b)
            ]
            assert [len(s) for s in states] == [7, 6, 5, 7][:b]
            trials = [BasketData(*zip(*outcome)) for outcome in itertools.product(*states)]
            tables[b] = (design, PriorSpec(b1[:b], b2[:b]), trials)
        return tables

    @pytest.mark.parametrize("name", METHODS)
    def test_block_matches_oracle(self, outcomes, unequal_outcomes, name):
        # every outcome of a design analysed in one evaluate_q call
        method = self.METHODS[name]
        for design, prior, trials in (*outcomes.values(), *unequal_outcomes.values()):
            config = BorrowingConfig(method, prior)
            y, n, active = (np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))
            q = evaluate_q(config, design.p0, y, n, active)
            assert q.shape == (len(trials), design.n_baskets)
            for data, row in zip(trials, q.tolist()):
                weights = build_weight_matrix(config, data)
                expected_q, _ = scalar_oracle.final_analysis(data, prior, weights, None, design.p0)
                assert row == expected_q, (design.n_max, data)

    @pytest.fixture(scope="class")
    def shared_row_outcomes(self, outcomes):
        # the equal designs' outcomes under a prior whose first and third
        # baskets share one row, and the second and fourth another
        b1, b2 = (0.15, 0.3, 0.15, 0.3), (0.85, 0.7, 0.85, 0.7)
        return {
            b: (design, PriorSpec(b1[:b], b2[:b]), trials)
            for b, (design, _, trials) in outcomes.items()
        }

    @pytest.fixture(scope="class")
    def colliding_outcomes(self):
        # every outcome of baskets of 6, 3 and 6, the outer two with a look at
        # 3 that stops on at most 1: their stopped states (0, 3) and (1, 3)
        # differ in y and are active states of the middle basket
        design = DesignSpec((6, 3, 6), ((Look(3, 1),), (), (Look(3, 1),)), p0=0.15, alpha=0.1)
        bits = (np.arange(2**6)[:, None] >> np.arange(6)) & 1
        y, n, active = apply_interims(np.repeat(bits[:, None], 3, axis=1), design)
        states = [
            sorted(set(zip(y[:, i].tolist(), n[:, i].tolist(), active[:, i].tolist())))
            for i in range(3)
        ]
        assert [len(s) for s in states] == [7, 4, 7]
        trials = [BasketData(*zip(*outcome)) for outcome in itertools.product(*states)]
        return (design, PriorSpec.shared(0.15, 0.85, 3), trials)

    @pytest.fixture(scope="class")
    def tables(self, outcomes, unequal_outcomes, shared_row_outcomes, colliding_outcomes):
        return (
            *outcomes.values(),
            *unequal_outcomes.values(),
            *shared_row_outcomes.values(),
            colliding_outcomes,
        )

    # each engine's untransformed method (weights.similarity_config)
    BARE = {
        "im": IndependentModel(),
        "peb": PowerPriorPEB(),
        "geb": PowerPriorGEB(),
        "jsd": JSDWeights(1.0, 0.0),
    }

    def test_one_class_per_multiset_of_states(self, tables, outcomes):
        # a basket's state is its prior row and counts if active, and one
        # state for every stopped basket
        for _, prior, trials in tables:
            multisets = {
                tuple(sorted(
                    (prior.b1[i], prior.b2[i], data.y[i], data.n[i]) if data.active[i] else ()
                    for i in range(data.n_baskets)
                ))
                for data in trials
            }
            assert len(similarity_classes(prior, *_block(trials))[1]) == len(multisets)
        # seven states per basket: one class per multiset of 3 or 4 of them
        classes = [len(similarity_classes(p, *_block(t))[1]) for _, p, t in outcomes.values()]
        assert classes == [84, 210]

    @pytest.mark.parametrize("engine", BARE)
    def test_class_gather_matches_each_trial(self, tables, engine):
        for design, prior, trials in tables:
            bare = BorrowingConfig(self.BARE[engine], prior)
            q = evaluate_q(bare, design.p0, *_block(trials))
            assert np.array_equal(q, _oracle_q(bare, trials, design.p0)), (design.n_max, prior)
        clear_caches()

    @pytest.mark.parametrize("engine", BARE)
    def test_class_gather_on_small_blocks(self, engine):
        prior = PriorSpec.shared(0.15, 0.85, 3)
        bare = BorrowingConfig(self.BARE[engine], prior)
        blocks = (
            # stopped baskets that differ in y
            [
                BasketData((0, 5, 1), (3, 6, 3), (False, True, False)),
                BasketData((1, 5, 0), (3, 6, 3), (False, True, False)),
                BasketData((1, 1, 5), (3, 3, 6), (False, False, True)),
            ],
            # every basket stopped: no keys
            [
                BasketData((0, 1, 1), (3, 3, 3), (False,) * 3),
                BasketData((1, 0, 0), (3, 3, 3), (False,) * 3),
            ],
            # one trial
            [BasketData((2, 5, 4), (6, 6, 6), (True,) * 3)],
        )
        clear_caches()
        for trials in blocks:
            block = _block(trials)
            assert len(similarity_classes(prior, *block)[1]) == 1
            assert np.array_equal(evaluate_q(bare, 0.15, *block), _oracle_q(bare, trials, 0.15)), trials
        assert evaluate_q(bare, 0.15, *_block(blocks[1])).tolist() == [[0.0] * 3] * 2
        clear_caches()

    @pytest.mark.parametrize("engine", ["peb", "geb", "jsd"])
    def test_block_keys_are_the_trials_keys(self, tables, engine):
        # equal as Python objects: repr tells 4 from 4.0 and from np.int64(4)
        for _, prior, trials in tables:
            keys = [repr(key) for key in _block_keys(engine, prior, *_block(trials))]
            assert len(keys) == len(set(keys))
            expected = {repr(key) for data in trials for _, _, key in _entries(engine, data, prior)}
            assert set(keys) == expected

    # configs that share an engine and a prior: every method, and caps and
    # thresholds that borrow nothing, everything or some
    SHARED_ENGINE = {
        "im": (IndependentModel(),),
        "peb": (
            PowerPriorPEB(),
            LocalPowerPrior("peb", 0.35, 0.4),
            LocalPowerPrior("peb", 0.0, 0.4),
            LocalPowerPrior("peb", 1.0, 0.0),
            LocalPowerPrior("peb", 4.0, 1.0),
        ),
        "geb": (PowerPriorGEB(), LocalPowerPrior("geb", 0.35, 0.4), LocalPowerPrior("geb", 1.0, 0.2)),
        "jsd": (JSDWeights(6.5, 0.5), JSDWeights(1.0, 0.0), JSDWeights(2.0, 0.9)),
    }

    @pytest.mark.parametrize("engine", SHARED_ENGINE)
    def test_configs_of_one_block_match_each_alone(self, outcomes, unequal_outcomes, engine):
        for design, prior, trials in (*outcomes.values(), *unequal_outcomes.values()):
            configs = [BorrowingConfig(method, prior) for method in self.SHARED_ENGINE[engine]]
            y, n, active = (np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))
            together = evaluate_q(configs, design.p0, y, n, active)
            assert together.shape == (len(configs), len(trials), design.n_baskets)
            for config, q in zip(configs, together):
                assert np.array_equal(q, evaluate_q(config, design.p0, y, n, active)), config

    @pytest.mark.parametrize("engine", SHARED_ENGINE)
    def test_one_posterior_call_matches_each_config(self, outcomes, unequal_outcomes, engine):
        # (K, R, B, B) weights sort the donors once and give each config's
        # shapes, bit for bit
        for design, prior, trials in (*outcomes.values(), *unequal_outcomes.values()):
            methods = self.SHARED_ENGINE[engine]
            y, n, active = _block(trials)
            bare = weights.similarity_config(BorrowingConfig(methods[0], prior))
            s = np.array([build_weight_matrix(bare, data) for data in trials])
            stacked = np.array([weights.transform_block(m, s, y, n, active) for m in methods])
            shape1, shape2 = block_posterior_params(y, n, active, prior, stacked)
            assert shape1.shape == shape2.shape == (len(methods), len(trials), design.n_baskets)
            for k, w in enumerate(stacked):
                one1, one2 = block_posterior_params(y, n, active, prior, w)
                assert np.array_equal(shape1[k], one1), methods[k]
                assert np.array_equal(shape2[k], one2), methods[k]
        clear_caches()

    def test_configs_must_share_engine_and_prior(self, outcomes):
        design, prior, trials = outcomes[3]
        y, n, active = (np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))
        other_prior = PriorSpec.shared(0.5, 0.5, 3)
        for configs in (
            [BorrowingConfig(PowerPriorPEB(), prior), BorrowingConfig(PowerPriorGEB(), prior)],
            [BorrowingConfig(PowerPriorPEB(), prior), BorrowingConfig(PowerPriorPEB(), other_prior)],
            [],
        ):
            with pytest.raises(ValueError, match="share one engine and prior"):
                evaluate_q(configs, design.p0, y, n, active)

    @pytest.mark.parametrize("name", METHODS)
    def test_block_of_no_trials(self, equal_design, one_subject_prior, name):
        y, n, active = draw_states(Scenario("null", (0.15,) * 5), equal_design, 3, 7, 7)
        assert y.shape == n.shape == active.shape == (0, 5)
        config = BorrowingConfig(self.METHODS[name], one_subject_prior)
        order, first, cls, keys = similarity_classes(one_subject_prior, y, n, active)
        assert order.shape == (0, 5) and len(first) == len(cls) == len(keys) == 0
        weights.prefill_weights(config, y, n, active)
        no_weights = np.zeros((0, 5, 5))
        shape1, shape2 = block_posterior_params(y, n, active, one_subject_prior, no_weights)
        assert shape1.shape == shape2.shape == (0, 5)
        assert evaluate_q(config, 0.15, y, n, active).shape == (0, 5)
        configs = [config, weights.similarity_config(config), config]
        assert evaluate_q(configs, 0.15, y, n, active).shape == (3, 0, 5)


class TestClassTable:
    """The process's class q (``weights.class_table``) serve every later block."""

    BARE = {"peb": PowerPriorPEB(), "geb": PowerPriorGEB(), "jsd": JSDWeights(1.0, 0.0)}

    @staticmethod
    def _counting_builds(monkeypatch):
        # every build_weight_matrix call evaluate_q makes, one per new class
        calls = []
        real = trial.build_weight_matrix

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(trial, "build_weight_matrix", counting)
        return calls

    @pytest.mark.parametrize("engine", BARE)
    def test_class_from_an_earlier_block_in_another_order(self, engine, monkeypatch):
        # the first block's trials have their codes out of order, and the
        # second block permutes them again, so only q kept in code order
        # gather right
        bare = BorrowingConfig(self.BARE[engine], PriorSpec.shared(0.15, 0.85, 3))
        first = [
            BasketData((5, 1, 3), (6, 6, 6), (True,) * 3),
            BasketData((4, 0, 2), (6, 3, 6), (True, False, True)),
        ]
        second = [
            BasketData((1, 3, 5), (6, 6, 6), (True,) * 3),
            BasketData((2, 4, 0), (6, 6, 3), (True, True, False)),
            BasketData((3, 5, 1), (6, 6, 6), (True,) * 3),
        ]
        expected = [_oracle_q(bare, trials, 0.15) for trials in (first, second)]
        clear_caches()
        calls = self._counting_builds(monkeypatch)
        assert np.array_equal(evaluate_q(bare, 0.15, *_block(first)), expected[0])
        assert len(calls) == 2
        size = len(class_table((bare,), 0.15))
        assert np.array_equal(evaluate_q(bare, 0.15, *_block(second)), expected[1])
        assert len(class_table((bare,), 0.15)) == size
        assert len(calls) == 2
        clear_caches()

    @pytest.mark.parametrize(
        "method",
        [LocalPowerPrior("peb", 0.35, 0.4), LocalPowerPrior("geb", 0.35, 0.4), JSDWeights(2.0, 0.3)],
        ids=["local-peb", "local-geb", "jsd"],
    )
    def test_repeated_block_builds_nothing(self, equal_design, one_subject_prior, method, monkeypatch):
        calls = self._counting_builds(monkeypatch)
        config = BorrowingConfig(method, one_subject_prior)
        block = draw_states(Scenario("S3", (0.15, 0.3, 0.3, 0.3, 0.3)), equal_design, 7, 0, 200)
        clear_caches()
        q = evaluate_q(config, equal_design.p0, *block)
        assert 0 < len(calls) < 200
        calls.clear()
        assert np.array_equal(evaluate_q(config, equal_design.p0, *block), q)
        assert calls == []
        clear_caches()

    @pytest.mark.parametrize("engine", BARE)
    def test_priors_with_equal_groups_do_not_share(self, engine):
        # every basket of either prior is in its group 0, so both give the
        # block the same codes and class keys
        trials = [
            BasketData((5, 1, 3), (6, 6, 6), (True,) * 3),
            BasketData((0, 6, 2), (6, 6, 3), (True, True, False)),
        ]
        configs = [
            BorrowingConfig(self.BARE[engine], PriorSpec.shared(b1, b2, 3))
            for b1, b2 in ((0.15, 0.85), (2.0, 3.0))
        ]
        keys = [similarity_classes(config.prior, *_block(trials))[3] for config in configs]
        assert keys[0] == keys[1]
        expected = [_oracle_q(config, trials, 0.15) for config in configs]
        assert not np.array_equal(*expected)
        clear_caches()
        for config, q in zip(configs, expected):
            assert np.array_equal(evaluate_q(config, 0.15, *_block(trials)), q), config
        clear_caches()

    @pytest.mark.parametrize("engine", BARE)
    def test_blocks_of_other_code_widths_do_not_share(self, engine):
        # the largest n sets the code width w: 27 in the first block and 22
        # in the second, where (0, 5) and (3, 6) have the codes that (2, 4)
        # and (0, 5) have in the first; both widths give keys of one type
        bare = BorrowingConfig(self.BARE[engine], PriorSpec.shared(0.15, 0.85, 3))
        blocks = (
            [BasketData((2, 0, 2), (4, 5, 4), (True,) * 3), BasketData((5, 5, 5), (25,) * 3, (True,) * 3)],
            [BasketData((0, 3, 0), (5, 6, 5), (True,) * 3), BasketData((5, 5, 5), (20,) * 3, (True,) * 3)],
        )
        codes = [_basket_codes(bare.prior, *_block(trials))[0][0].tolist() for trials in blocks]
        assert codes == [[111, 136, 111]] * 2
        keys = [similarity_classes(bare.prior, *_block(trials))[3] for trials in blocks]
        assert len(keys[0][0]) == len(keys[1][0]) and keys[0][0] != keys[1][0]
        clear_caches()
        for trials in blocks:
            assert np.array_equal(evaluate_q(bare, 0.15, *_block(trials)), _oracle_q(bare, trials, 0.15))
        clear_caches()

    def test_configs_and_null_rate_do_not_share(self, equal_design, one_subject_prior):
        # one block under configs of one engine and prior, alone and
        # together, at two null rates: each call reads only its own entries
        block = draw_states(Scenario("S3", (0.15, 0.3, 0.3, 0.3, 0.3)), equal_design, 7, 0, 60)
        trials = [BasketData(*row) for row in zip(*(v.tolist() for v in block))]
        methods = (LocalPowerPrior("peb", 0.35, 0.4), LocalPowerPrior("peb", 1.0, 0.2))
        configs = [BorrowingConfig(method, one_subject_prior) for method in methods]
        clear_caches()
        for p0 in (0.15, 0.3):
            expected = [_oracle_q(config, trials, p0) for config in configs]
            for config, q in zip(configs, expected):
                assert np.array_equal(evaluate_q(config, p0, *block), q), (config, p0)
            assert np.array_equal(evaluate_q(configs, p0, *block), expected), p0
            assert np.array_equal(evaluate_q(configs[::-1], p0, *block), expected[::-1]), p0
        assert not np.array_equal(_oracle_q(configs[0], trials, 0.15), _oracle_q(configs[0], trials, 0.3))
        clear_caches()

    def test_clear_caches_empties_the_table(self, equal_design, one_subject_prior):
        config = BorrowingConfig(LocalPowerPrior("peb", 0.35, 0.4), one_subject_prior)
        block = draw_states(Scenario("S1", (0.15,) * 5), equal_design, 7, 0, 50)
        clear_caches()
        evaluate_q(config, equal_design.p0, *block)
        assert len(class_table((config,), equal_design.p0)) > 0
        clear_caches()
        assert weights._CLASSES == {}


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
