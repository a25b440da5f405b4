import math
import time
from fractions import Fraction

import numpy as np
import pytest

from basketsim import (
    BasketData,
    BetaParams,
    BorrowingConfig,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    PowerPriorGEB,
    PowerPriorPEB,
    PriorSpec,
    Scenario,
    borrowing_factor,
    build_weight_matrix,
    geb_weights,
    jsd_weight,
    peb_weight,
    three_component_adjust,
)
from basketsim import weights
from basketsim.simulate import draw_states
from basketsim.weights import (
    _entries,
    _log_marginal_grid,
    _solve_geb,
    _solve_peb,
    transform_block,
)

import scalar_oracle
from conftest import FIVE_N, FIVE_Y, assert_matrix_close

# benchmark weight matrices for the worked five-basket dataset
# (2, 9, 11, 13, 20 responders of 25 each, Jeffreys prior)
PEB_FIVE = [
    [1.00, 0.04, 0.02, 0.00, 0.00],
    [0.06, 1.00, 1.00, 0.58, 0.02],
    [0.04, 1.00, 1.00, 1.00, 0.05],
    [0.02, 0.57, 1.00, 1.00, 0.10],
    [0.00, 0.02, 0.04, 0.09, 1.00],
]
GEB_FIVE = [
    [1.00, 0.04, 0.00, 0.00, 0.00],
    [1.00, 1.00, 1.00, 1.00, 0.12],
    [1.00, 1.00, 1.00, 1.00, 1.00],
    [0.12, 1.00, 1.00, 1.00, 1.00],
    [0.00, 0.00, 0.00, 0.09, 1.00],
]
ADJUSTED_FIVE = [
    [1.00, 0.01, 0.00, 0.00, 0.00],
    [0.25, 1.00, 0.25, 0.25, 0.00],
    [0.00, 0.25, 1.00, 0.25, 0.00],
    [0.00, 0.25, 0.25, 1.00, 0.25],
    [0.00, 0.00, 0.00, 0.02, 1.00],
]
# benchmark capped-and-thresholded weights for the BRAF study (a=1, delta=0.4)
BRAF_LOCAL_PP = [
    [1.00, 0.00, 0.00, 0.09, 0.29, 0.29],
    [0.00, 1.00, 0.03, 0.00, 0.00, 0.00],
    [0.01, 0.15, 1.00, 0.45, 0.02, 0.07],
    [0.01, 0.01, 0.11, 1.00, 0.01, 0.11],
    [0.20, 0.00, 0.00, 0.07, 1.00, 0.20],
    [0.09, 0.00, 0.00, 0.09, 0.09, 1.00],
]


def _peb_matrix(y, n, b1, b2):
    B = len(y)
    w = np.eye(B)
    for i in range(B):
        for j in range(B):
            if i != j:
                w[i, j] = peb_weight(y[i], n[i], y[j], n[j], b1, b2)
    return w


class TestPairwiseWeights:
    def test_five_basket_benchmark(self):
        start = time.perf_counter()
        w = _peb_matrix(FIVE_Y, FIVE_N, 0.5, 0.5)
        elapsed = time.perf_counter() - start
        assert_matrix_close(w, PEB_FIVE, atol=0.01)
        assert elapsed < 1.0

    def test_asymmetry(self):
        s12 = peb_weight(2, 25, 9, 25, 0.5, 0.5)
        s21 = peb_weight(9, 25, 2, 25, 0.5, 0.5)
        assert s12 != s21
        assert s12 == pytest.approx(0.04, abs=0.01)
        assert s21 == pytest.approx(0.06, abs=0.01)

    def test_identical_data_maximizer_is_one(self):
        for y, n in [(5, 20), (0, 10), (10, 10), (12, 25)]:
            assert peb_weight(y, n, y, n, 0.15, 0.85) == pytest.approx(1.0, abs=1e-4)

    def test_boundary_donors_are_finite(self):
        assert 0.0 <= peb_weight(5, 20, 0, 15, 0.5, 0.5) <= 1.0
        assert 0.0 <= peb_weight(5, 20, 15, 15, 0.5, 0.5) <= 1.0

    def test_matches_dense_grid_argmax(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(40):
            n_i, n_j = int(rng.integers(5, 50)), int(rng.integers(5, 50))
            y_i = int(rng.integers(0, n_i + 1))
            y_j = int(rng.integers(0, n_j + 1))
            mine = peb_weight(y_i, n_i, y_j, n_j, 0.15, 0.85)
            vals = _log_marginal_grid(grid, y_i, n_i, y_j, n_j, 0.15, 0.85)
            k = int(np.nonzero(vals >= vals.max() - 1e-12)[0][0])
            assert abs(grid[k] - mine) <= 2e-3

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            peb_weight(5, 4, 1, 10, 0.5, 0.5)
        with pytest.raises(ValueError):
            peb_weight(1, 10, -1, 10, 0.5, 0.5)


class TestGlobalWeights:
    def test_five_basket_benchmark(self, five_basket_data, jeffreys_prior):
        w = np.vstack([geb_weights(i, five_basket_data, jeffreys_prior) for i in range(5)])
        assert_matrix_close(w, GEB_FIVE, atol=0.02)

    def test_pooled_neighbors_can_mask_heterogeneity(self, five_basket_data, jeffreys_prior):
        # basket 3's neighbors pool to its own response rate, so the joint
        # maximizer borrows fully from everyone
        row = geb_weights(2, five_basket_data, jeffreys_prior)
        assert np.all(row >= 0.98)

    def test_two_baskets_reduce_to_pairwise(self):
        data = BasketData.all_active((3, 7), (15, 20))
        prior = PriorSpec.shared(0.5, 0.5, 2)
        row = geb_weights(0, data, prior)
        assert row[1] == pytest.approx(peb_weight(3, 15, 7, 20, 0.5, 0.5), abs=1e-4)

    def test_inactive_neighbors_excluded(self):
        data = BasketData((3, 7, 4), (15, 20, 15), (True, False, True))
        prior = PriorSpec.shared(0.5, 0.5, 3)
        row = geb_weights(0, data, prior)
        assert row[1] == 0.0
        two_active = BasketData.all_active((3, 4), (15, 15))
        pair = geb_weights(0, two_active, PriorSpec.shared(0.5, 0.5, 2))
        assert row[2] == pytest.approx(pair[1], abs=1e-6)


def _rate_groups(neighbours):
    # neighbour positions by exact response rate
    groups = {}
    for pos, (y, n) in enumerate(neighbours):
        g = math.gcd(y, n)
        groups.setdefault((y // g, n // g), []).append(pos)
    return groups


def _stream_trials(design, m=200, seed=11):
    # the trials of the S1/S3/S5 replicate streams, after their interim looks
    B = design.n_baskets
    for name, orr in (("S1", 0.15), ("S3", 0.30), ("S5", 0.45)):
        y, n, active = draw_states(Scenario(name, (0.15,) + (orr,) * (B - 1)), design, seed, 0, m)
        for row in zip(y.tolist(), n.tolist(), active.tolist()):
            yield BasketData(*row)


def _stream_keys(base, design, prior, m=200, seed=11):
    # every distinct similarity key the S1/S3/S5 replicate streams ask for
    keys = {}
    for data in _stream_trials(design, m, seed):
        for _, _, key in _entries(base, data, prior):
            keys[key] = None
    return list(keys)


def _edge_problems(y_i, n_i, b1, b2, neighbours):
    # the (y_i, n_i, y_j, n_j, b1, b2) problem of every edge of the key's
    # polygon: its rate groups filled in ascending and in descending order
    groups = {}
    for y, n in neighbours:
        total = groups.setdefault(Fraction(y, n), [0, 0])
        total[0] += y
        total[1] += n
    order = sorted(groups)
    problems = []
    for chain in (order, order[::-1]):
        fill_y = fill_n = 0
        for rate in chain:
            group_y, group_n = groups[rate]
            problems.append((y_i, n_i, group_y, group_n, b1 + fill_y, b2 + (fill_n - fill_y)))
            fill_y += group_y
            fill_n += group_n
    return set(problems)


def _spy_argmax_rows(monkeypatch):
    # records the rows of every _argmax_rows call as a (K, 6) array
    calls = []
    solve = weights._argmax_rows

    def spy(*args):
        calls.append(np.column_stack(args))
        return solve(*args)

    monkeypatch.setattr(weights, "_argmax_rows", spy)
    return calls


class TestBatchedSolvers:
    def test_pairwise_batch_matches_scalar_oracle(self, equal_design, one_subject_prior):
        keys = _stream_keys("peb", equal_design, one_subject_prior)
        batched = _solve_peb(keys)
        oracle = np.array([scalar_oracle.peb_weight(*key) for key in keys])
        assert np.max(np.abs(batched - oracle)) <= 1e-5

    def test_global_batch_matches_scalar_oracle(self, equal_design, one_subject_prior):
        # coordinate ascent splits an equal-rate group's borrowing by its sweep
        # path, so compare what the data identify: each group's average
        # similarity, and an objective no lower than the oracle's
        keys = _stream_keys("geb", equal_design, one_subject_prior)
        assert {len(key[4]) for key in keys} >= {1, 2, 3, 4}
        for key, row in zip(keys, _solve_geb(keys)):
            oracle = scalar_oracle.geb_similarities(*key)
            assert row.shape == oracle.shape
            n = np.array([nb[1] for nb in key[4]], dtype=float)
            for members in _rate_groups(key[4]).values():
                mine = np.dot(row[members], n[members]) / n[members].sum()
                theirs = np.dot(oracle[members], n[members]) / n[members].sum()
                assert abs(mine - theirs) <= 1e-5, key
            assert scalar_oracle.geb_objective(*key, row) >= (
                scalar_oracle.geb_objective(*key, oracle) - 1e-9
            ), key

    def test_tied_neighbours_share_bit_equal_weights(self, equal_design, one_subject_prior):
        keys = _stream_keys("geb", equal_design, one_subject_prior)
        tied = 0
        for key, row in zip(keys, _solve_geb(keys)):
            for members in _rate_groups(key[4]).values():
                assert np.all(row[members] == row[members[0]]), key
                tied += len(members) > 1
        assert tied > 100
        # coordinate ascent gives (1, 0.549, 0) here
        row = _solve_geb([(4, 25, 0.15, 0.85, ((5, 25), (6, 25), (6, 25)))])[0]
        assert row[0] == pytest.approx(1.0, abs=1e-5)
        assert row[1] == row[2] == pytest.approx(0.2744, abs=1e-4)
        # equal rates at unequal sizes form one group: the same 0.549 x 25
        # borrowed subjects, now spread over its 75
        row = _solve_geb([(4, 25, 0.15, 0.85, ((5, 25), (6, 25), (12, 50)))])[0]
        assert row[1] == row[2] == pytest.approx(0.5488 / 3, abs=1e-4)

    def test_tied_edges_go_to_the_smaller_borrowing(self, monkeypatch):
        # a flat objective ties every point of the polygon, so nothing is borrowed
        monkeypatch.setattr(
            weights, "_log_marginal_grid", lambda s, *args: np.zeros(np.broadcast(s, *args).shape)
        )
        row = _solve_geb([(4, 25, 0.15, 0.85, ((5, 25), (10, 25), (15, 25), (10, 25)))])[0]
        assert np.array_equal(row, np.zeros(4))

    def test_permuting_baskets_permutes_weights(self):
        # rate 1/5 at n=25 and n=15, and a pair at 6/25: coordinate ascent
        # splits basket 1's borrowing from that pair as (0.072, 0)
        data = BasketData.all_active((4, 5, 6, 6, 3, 10), (25, 25, 25, 25, 15, 25))
        prior = PriorSpec.shared(0.15, 0.85, 6)
        w = np.vstack([geb_weights(i, data, prior) for i in range(6)])
        rng = np.random.default_rng(4)
        for _ in range(10):
            perm = rng.permutation(6)
            permuted = BasketData.all_active(
                [data.y[k] for k in perm], [data.n[k] for k in perm]
            )
            wp = np.vstack([geb_weights(i, permuted, prior) for i in range(6)])
            assert np.array_equal(wp, w[np.ix_(perm, perm)])

    def test_permuted_trial_reuses_cached_rows(self):
        # keys name the neighbour multiset, so a permuted trial solves nothing
        # new; equal (y, n) neighbours map back to one shared weight
        data = BasketData.all_active((4, 5, 6, 6, 3, 10), (25, 25, 25, 25, 15, 25))
        config = BorrowingConfig(PowerPriorGEB(), PriorSpec.shared(0.15, 0.85, 6))
        weights.clear_caches()
        w = build_weight_matrix(config, data)
        size = len(weights._ENGINES["geb"][0])
        rng = np.random.default_rng(4)
        for _ in range(10):
            perm = rng.permutation(6)
            permuted = BasketData.all_active(
                [data.y[k] for k in perm], [data.n[k] for k in perm]
            )
            wp = build_weight_matrix(config, permuted)
            assert len(weights._ENGINES["geb"][0]) == size
            assert np.array_equal(wp, w[np.ix_(perm, perm)])

    def test_prefilled_jsd_trials_solve_nothing_new(
        self, equal_design, one_subject_prior, monkeypatch
    ):
        config = BorrowingConfig(JSDWeights(2.0, 0.3), one_subject_prior)
        trials = list(_stream_trials(equal_design, m=30))
        weights.clear_caches()
        cold = [build_weight_matrix(config, data) for data in trials]
        weights.clear_caches()
        y, n, active = (np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))
        weights.prefill_weights(config, y, n, active)
        cache, _ = weights._ENGINES["jsd"]
        size = len(cache)
        assert size > 0

        def no_solve(keys):
            raise AssertionError(f"solved {len(keys)} keys after prefill")

        monkeypatch.setitem(weights._ENGINES, "jsd", (cache, no_solve))
        for data, expected in zip(trials, cold):
            assert np.array_equal(build_weight_matrix(config, data), expected)
        assert len(cache) == size
        weights.clear_caches()

    def test_one_solve_per_batch_over_distinct_edges(
        self, equal_design, one_subject_prior, monkeypatch
    ):
        keys = _stream_keys("geb", equal_design, one_subject_prior, m=60)
        problems = {p for key in keys for p in _edge_problems(*key)}
        calls = _spy_argmax_rows(monkeypatch)
        _solve_geb(keys)
        assert len(calls) == 1
        rows = [tuple(row) for row in calls[0]]
        assert len(set(rows)) == len(rows) == len(problems)
        assert set(rows) == problems
        # keys share edges: the batch has fewer problems than its keys have edges
        assert len(problems) < sum(len(_edge_problems(*key)) for key in keys)

    @pytest.mark.parametrize(
        "neighbours",
        [[], [(), ()], [(), ((5, 25), (6, 25)), (), ((6, 25), (5, 25), (10, 25))]],
        ids=["empty", "no-neighbours", "mixed"],
    )
    def test_batch_edge_cases(self, neighbours, monkeypatch):
        keys = [(4 + k, 25, 0.15, 0.85, nb) for k, nb in enumerate(neighbours)]
        alone = [_solve_geb([key])[0] for key in keys]
        calls = _spy_argmax_rows(monkeypatch)
        together = _solve_geb(keys)
        assert [len(rows) for rows in calls] == [
            len({p for key in keys for p in _edge_problems(*key)})
        ]
        assert len(together) == len(keys)
        for key, row, expected in zip(keys, together, alone):
            assert row.shape == (len(key[4]),)
            assert np.array_equal(row, expected)

    def test_key_result_independent_of_batch(self, equal_design, one_subject_prior):
        for base, solve in (("peb", _solve_peb), ("geb", _solve_geb)):
            keys = _stream_keys(base, equal_design, one_subject_prior, m=60)
            together = solve(keys)
            reversed_batch = solve(keys[::-1])[::-1]
            for pos in range(0, len(keys), 7):
                alone = solve([keys[pos]])[0]
                assert np.array_equal(alone, together[pos])
                assert np.array_equal(alone, reversed_batch[pos])


class TestThreeComponentAdjust:
    def test_five_basket_benchmark(self, five_basket_data):
        adjusted = three_component_adjust(np.array(GEB_FIVE), five_basket_data, a=1.0, delta=0.3)
        assert_matrix_close(adjusted, ADJUSTED_FIVE, atol=0.005)

    def test_threshold_suppression_pattern(self, five_basket_data):
        # pairs whose observed rates differ by >= delta must be exactly zero
        adjusted = three_component_adjust(np.ones((5, 5)), five_basket_data, a=1.0, delta=0.3)
        phat = np.array(FIVE_Y) / np.array(FIVE_N)
        for i in range(5):
            for j in range(5):
                if i != j and abs(phat[i] - phat[j]) >= 0.3:
                    assert adjusted[i, j] == 0.0
                elif i != j:
                    assert adjusted[i, j] == pytest.approx(0.25)

    def test_zero_global_cap_kills_all_borrowing(self, five_basket_data):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, (5, 5))
        np.fill_diagonal(s, 1.0)
        adjusted = three_component_adjust(s, five_basket_data, a=0.0, delta=1.0)
        assert np.array_equal(adjusted, np.eye(5))

    def test_monotone_in_threshold(self, five_basket_data):
        s = np.ones((5, 5))
        prev = three_component_adjust(s, five_basket_data, a=1.0, delta=0.0)
        assert np.array_equal(prev, np.eye(5))  # strict inequality never met
        for delta in (0.1, 0.3, 0.5, 0.9):
            cur = three_component_adjust(s, five_basket_data, a=1.0, delta=delta)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_monotone_in_cap_until_saturation(self, five_basket_data):
        s = np.ones((5, 5))
        prev = None
        for a in (0.0, 0.5, 1.0, 2.0, 4.0):
            cur = three_component_adjust(s, five_basket_data, a=a, delta=1.0)
            if prev is not None:
                assert np.all(cur >= prev - 1e-15)
            prev = cur
        # n_i / n_-i = 1/4, so the cap saturates at a = 4
        saturated = three_component_adjust(s, five_basket_data, a=7.0, delta=1.0)
        assert_matrix_close(saturated, prev, atol=1e-12)

    @pytest.mark.parametrize("design_name", ["equal", "unequal"])
    def test_bit_identical_to_oracle(self, design_name, equal_design, unequal_design):
        design = {"equal": equal_design, "unequal": unequal_design}[design_name]
        B = design.n_baskets
        trials = list(_stream_trials(design, m=100, seed=13))
        # one active basket: its n_-i is 0, so it borrows nothing
        trials.append(BasketData((5, 0, 1, 1, 0), design.n_max, (True,) + (False,) * (B - 1)))
        stopped = {B - sum(data.active) for data in trials}
        assert {0, 1, 2, B - 1} <= stopped
        rng = np.random.default_rng(8)
        for data in trials:
            s = rng.uniform(0, 1, (B, B))
            np.fill_diagonal(s, 1.0)
            for a, delta in ((0.35, 0.4), (1.0, 0.2), (4.0, 1.0)):
                got = three_component_adjust(s, data, a, delta)
                assert np.array_equal(got, scalar_oracle.three_component_adjust(s, data, a, delta))

    @pytest.mark.parametrize("design_name", ["equal", "unequal"])
    def test_block_transform_matches_oracle(self, design_name, equal_design, unequal_design):
        # a whole block in one transform_block call, against the pair loop
        design = {"equal": equal_design, "unequal": unequal_design}[design_name]
        B = design.n_baskets
        trials = list(_stream_trials(design, m=100, seed=14))
        # one active basket: its n_-i is 0, so it borrows nothing
        trials.append(BasketData((5, 0, 1, 1, 0), design.n_max, (True,) + (False,) * (B - 1)))
        y, n, active = (np.array(v) for v in zip(*((t.y, t.n, t.active) for t in trials)))
        assert len({tuple(row) for row in n.tolist()}) > 1
        s = np.random.default_rng(9).uniform(0, 1, (len(trials), B, B))
        for a, delta in ((0.0, 0.4), (0.35, 0.0), (0.35, 1.0), (1.0, 0.2), (4.0, 0.4)):
            w = transform_block(LocalPowerPrior("peb", a, delta), s, y, n, active)
            assert w.shape == s.shape
            for r, data in enumerate(trials):
                expected = scalar_oracle.three_component_adjust(s[r], data, a, delta)
                assert np.array_equal(w[r], expected), (a, delta, data)
            borrowed = np.any(w != np.eye(B))
            assert borrowed == (a > 0.0 and delta > 0.0), (a, delta)

    def test_borrowing_factor_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            B = int(rng.integers(2, 6))
            n = tuple(int(v) for v in rng.integers(5, 60, size=B))
            y = tuple(int(rng.integers(0, ni + 1)) for ni in n)
            data = BasketData.all_active(y, n)
            s = rng.uniform(0, 1, (B, B))
            np.fill_diagonal(s, 1.0)
            a = float(rng.uniform(0, 5))
            delta = float(rng.uniform(0, 1))
            bf = borrowing_factor(data, three_component_adjust(s, data, a, delta))
            for i in range(B):
                n_other = sum(n) - n[i]
                bound = min(a, n_other / n[i])
                assert bf[i] <= bound + 1e-12


def _kl_oracle(a1, b1, a2, b2, n_points=100_001):
    # independent cross-check: composite Simpson on the divergence integrand
    from scipy.special import betaln

    x = np.linspace(1e-9, 1.0 - 1e-9, n_points)
    lf = (a1 - 1) * np.log(x) + (b1 - 1) * np.log1p(-x) - betaln(a1, b1)
    lg = (a2 - 1) * np.log(x) + (b2 - 1) * np.log1p(-x) - betaln(a2, b2)
    lm = np.logaddexp(lf, lg) - math.log(2.0)
    h = np.exp(lf) * (lf - lm)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((x[1] - x[0]) / 3.0 * np.sum(w * h))


# JS(f, g) for pairs of beta shapes (a1, b1, a2, b2), from mpmath at 50
# digits: tanh-sinh on the x integral, split at each density's mean +- k sd,
# with x = v**30 and 1 - x = v**30 near the endpoints.  mpmath is not a
# dependency, so the values are kept as literals.
JS_REFERENCE = {
    "random-pair-a": (
        (5.428452433265145, 28.073170297066245, 19.45014391663324, 4.616648335809327),
        0.692757164721489989844505970274,
    ),
    "random-pair-b": (
        (27.293256827407752, 1.5623738093400998, 0.4413490490443327, 10.659845839084861),
        0.693126530771361735516092615003,
    ),
    # two successive trapezoid sums agree within 1e-8 but miss by 1.2e-8
    "chance-agreement": (
        (10.159139605399847, 10.063225964052394, 1.6542194771869587, 30.377619044529542),
        0.685960339351397298630098564131,
    ),
    "shape-below-1": ((0.15, 10.85, 1.15, 25.85), 0.265941253469142544208394634848),
    "nearly-disjoint": ((300.0, 2.0, 2.0, 300.0), 0.693147180559945309417232121458),
    "n-1e6": ((612340.0, 387660.0, 615340.0, 384660.0), 0.690193876833976326983754735195),
}


class TestJSDWeight:
    @pytest.mark.parametrize("shapes, js", JS_REFERENCE.values(), ids=JS_REFERENCE.keys())
    def test_matches_mpmath(self, shapes, js):
        a1, b1, a2, b2 = shapes
        w_star = jsd_weight(BetaParams(a1, b1), BetaParams(a2, b2), 1.0, 0.0)
        assert abs(1.0 - w_star - js) <= weights.JSD_QUAD_TOL

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # no two sums differ by less than a negative tolerance; at 0 they can,
        # once every new node adds less than the last bit
        monkeypatch.setattr(weights, "JSD_QUAD_TOL", -1.0)
        with pytest.raises(weights.NumericError, match="did not converge"):
            jsd_weight(BetaParams(8.5, 17.5), BetaParams(9.5, 16.5), 1.0, 0.0)

    def test_node_cap_raises(self, monkeypatch):
        # an sd of 4.9e-4 needs a first level past 12; up to shape sums of
        # 1e6 no first level passes 15, so the real cap of 19 is not reached
        monkeypatch.setattr(weights, "_MAX_LEVEL", 12)
        with pytest.raises(weights.NumericError, match="did not converge"):
            jsd_weight(BetaParams(612340.0, 387660.0), BetaParams(615340.0, 384660.0), 1.0, 0.0)

    def test_shape_sums_past_1e6_raise(self):
        # betaln's own error breaks JSD_QUAD_TOL here: the JS came out 1.4e-8
        # above ln 2, which no two densities can reach
        with pytest.raises(weights.NumericError, match="past 1e6"):
            weights._js_divergence(6.1234e6, 3.8766e6, 6.1534e6, 3.8466e6)
        with pytest.raises(weights.NumericError, match="past 1e6"):
            jsd_weight(BetaParams(0.5, 0.5), BetaParams(1e6, 0.5), 1.0, 0.0)

    def test_identical_posteriors(self):
        p = BetaParams(3.5, 7.5)
        assert jsd_weight(p, p, 2.0, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert jsd_weight(p, p, 2.0, 0.99) == pytest.approx(1.0, abs=1e-9)

    def test_separated_posteriors_approach_floor(self):
        # natural-log divergence floors the similarity at 1 - ln 2
        floor = 1.0 - math.log(2.0)
        w = jsd_weight(BetaParams(300, 2), BetaParams(2, 300), 1.0, 0.0)
        assert w >= floor - 1e-9
        assert w == pytest.approx(floor, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        p, q = BetaParams(8.5, 17.5), BetaParams(9.5, 16.5)
        js = 0.5 * (_kl_oracle(8.5, 17.5, 9.5, 16.5) + _kl_oracle(9.5, 16.5, 8.5, 17.5))
        expected = (1.0 - js) ** 2
        got = jsd_weight(p, q, 2.0, 0.0)
        assert got == pytest.approx(expected, abs=1e-6)
        # frozen oracle value for this pair
        assert got == pytest.approx(0.95691113, abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = BetaParams(rng.uniform(0.5, 30), rng.uniform(0.5, 30))
            q = BetaParams(rng.uniform(0.5, 30), rng.uniform(0.5, 30))
            assert jsd_weight(p, q, 2.0, 0.0) == pytest.approx(
                jsd_weight(q, p, 2.0, 0.0), abs=1e-8
            )

    def test_power_and_threshold(self):
        p, q = BetaParams(8.5, 17.5), BetaParams(9.5, 16.5)
        base = jsd_weight(p, q, 1.0, 0.0)
        assert jsd_weight(p, q, 3.0, 0.0) == pytest.approx(base**3, abs=1e-9)
        powered = base**3
        assert jsd_weight(p, q, 3.0, powered + 1e-9) == 0.0
        # the threshold is strict: a value exactly at tau is suppressed
        assert jsd_weight(p, q, 3.0, powered) == 0.0

    def test_block_power_matches_each_entry(self):
        # one scalar ** per distinct similarity, as jsd_weight takes it per pair
        rng = np.random.default_rng(21)
        s = rng.choice(rng.uniform(1.0 - math.log(2.0), 1.0, 40), size=(30, 4, 4))
        active = rng.random((30, 4)) < 0.7
        s *= active[:, :, None] & active[:, None, :]
        for epsilon, tau in ((1.0, 0.0), (2.0, 0.5), (6.5, 0.3), (3.0, 1.0)):
            w = transform_block(JSDWeights(epsilon, tau), s, None, None, active)
            for r, i, j in np.ndindex(s.shape):
                if i == j:
                    assert w[r, i, j] == 1.0
                else:
                    powered = float(s[r, i, j]) ** epsilon
                    assert w[r, i, j] == (powered if powered > tau else 0.0)

    def test_singular_shapes_supported(self):
        # shape below one puts an integrable singularity at the endpoint
        w = jsd_weight(BetaParams(0.15, 10.85), BetaParams(1.15, 25.85), 2.0, 0.0)
        assert 0.0 <= w <= 1.0


class TestBuildWeightMatrix:
    def test_independent_model(self, five_basket_data, jeffreys_prior):
        w = build_weight_matrix(BorrowingConfig(IndependentModel(), jeffreys_prior), five_basket_data)
        assert np.array_equal(w, np.eye(5))

    def test_unadjusted_pairwise(self, five_basket_data, jeffreys_prior):
        w = build_weight_matrix(BorrowingConfig(PowerPriorPEB(), jeffreys_prior), five_basket_data)
        assert_matrix_close(w, PEB_FIVE, atol=0.01)

    def test_local_pp_geb_benchmark(self, five_basket_data, jeffreys_prior):
        cfg = BorrowingConfig(LocalPowerPrior("geb", 1.0, 0.3), jeffreys_prior)
        w = build_weight_matrix(cfg, five_basket_data)
        assert_matrix_close(w, ADJUSTED_FIVE, atol=0.01)

    def test_braf_local_pp_benchmark(self, braf_data, braf_prior):
        cfg = BorrowingConfig(LocalPowerPrior("peb", 1.0, 0.4), braf_prior)
        w = build_weight_matrix(cfg, braf_data)
        assert_matrix_close(w, BRAF_LOCAL_PP, atol=0.01)

    def test_jsd_matrix_symmetric_unit_diagonal(self, five_basket_data, one_subject_prior):
        cfg = BorrowingConfig(JSDWeights(2.0, 0.1), one_subject_prior)
        w = build_weight_matrix(cfg, five_basket_data)
        assert np.allclose(w, w.T, atol=1e-9)
        assert np.all(np.diag(w) == 1.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_stopped_baskets_isolated(self, jeffreys_prior):
        data = BasketData(FIVE_Y, FIVE_N, (True, True, False, True, True))
        for method in (
            PowerPriorPEB(),
            PowerPriorGEB(),
            LocalPowerPrior("peb", 1.0, 0.4),
            JSDWeights(2.0, 0.0),
        ):
            w = build_weight_matrix(BorrowingConfig(method, jeffreys_prior), data)
            assert np.all(w[2, [0, 1, 3, 4]] == 0.0)
            assert np.all(w[[0, 1, 3, 4], 2] == 0.0)
            assert w[2, 2] == 1.0

    def test_unknown_method(self, five_basket_data, jeffreys_prior):
        config = BorrowingConfig("peb", jeffreys_prior)
        with pytest.raises(TypeError, match="unknown borrowing method"):
            build_weight_matrix(config, five_basket_data)
        with pytest.raises(TypeError, match="unknown borrowing method"):
            weights.prefill_weights(
                config, [five_basket_data.y], [five_basket_data.n], [five_basket_data.active]
            )

    def test_weights_within_unit_interval(self, five_basket_data, jeffreys_prior):
        for method in (
            PowerPriorPEB(),
            PowerPriorGEB(),
            LocalPowerPrior("geb", 2.0, 0.5),
            JSDWeights(3.0, 0.2),
        ):
            w = build_weight_matrix(BorrowingConfig(method, jeffreys_prior), five_basket_data)
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert np.all(np.diag(w) == 1.0)


class TestMethodValidation:
    def test_local_pp_parameters(self):
        with pytest.raises(ValueError):
            LocalPowerPrior("peb", -0.1, 0.4)
        with pytest.raises(ValueError):
            LocalPowerPrior("peb", 1.0, 1.5)
        with pytest.raises(ValueError):
            LocalPowerPrior("other", 1.0, 0.4)

    def test_jsd_parameters(self):
        with pytest.raises(ValueError):
            JSDWeights(0.5, 0.5)
        with pytest.raises(ValueError):
            JSDWeights(2.0, -0.1)
