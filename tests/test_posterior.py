import math

import numpy as np
import pytest
from scipy.special import betaln

from basketsim import (
    BasketData,
    PriorSpec,
    borrowing_factor,
    posterior_params,
    prob_exceed,
    three_component_adjust,
)


def _tail_mass_quadrature(shape1: float, shape2: float, p0: float, n_points: int = 200_001) -> float:
    # independent check: composite Simpson on the density over [p0, 1]
    x = np.linspace(p0, 1.0 - 1e-12, n_points)
    logpdf = (
        (shape1 - 1.0) * np.log(x)
        + (shape2 - 1.0) * np.log1p(-x)
        - betaln(shape1, shape2)
    )
    f = np.exp(logpdf)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((x[1] - x[0]) / 3.0 * np.sum(w * f))


class TestProbExceed:
    def test_uniform(self):
        assert prob_exceed(1, 1, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_braf_single_basket_values(self):
        # 8/19 responders and 0/10 responders under the one-subject prior
        assert prob_exceed(0.15 + 8, 0.85 + 11, 0.15) == pytest.approx(0.997, abs=1e-3)
        assert prob_exceed(0.15 + 0, 0.85 + 10, 0.15) == pytest.approx(0.014, abs=1e-3)

    def test_strictly_decreasing_in_threshold(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [prob_exceed(6.15, 19.85, p) for p in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # strict away from the saturated far tail
        assert all(a > b for a, b in zip(vals, vals[1:]) if a > 1e-12)

    def test_matches_quadrature(self):
        # shapes >= 2 keep the dumb Simpson oracle itself convergent to 1e-8
        rng = np.random.default_rng(7)
        for _ in range(25):
            shape1, shape2 = rng.uniform(2.0, 60.0), rng.uniform(2.0, 60.0)
            p0 = float(rng.uniform(0.05, 0.95))
            assert prob_exceed(shape1, shape2, p0) == pytest.approx(
                _tail_mass_quadrature(shape1, shape2, p0), abs=1e-8
            )

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.2, 1.7])
    def test_threshold_domain_errors(self, p0):
        with pytest.raises(ValueError):
            prob_exceed(2, 3, p0)


class TestPosteriorParams:
    def test_single_basket_no_neighbors(self):
        data = BasketData.all_active((8,), (19,))
        prior = PriorSpec.shared(0.15, 0.85, 1)
        shape1, shape2 = posterior_params(data, prior, np.eye(1))
        assert shape1[0] == pytest.approx(8.15)
        assert shape2[0] == pytest.approx(11.85)

    def test_full_pooling_two_baskets(self):
        data = BasketData.all_active((2, 3), (10, 10))
        prior = PriorSpec.shared(1.0, 1.0, 2)
        w = np.ones((2, 2))
        shape1, shape2 = posterior_params(data, prior, w)
        for i in range(2):
            assert shape1[i] == pytest.approx(1 + 5)
            assert shape2[i] == pytest.approx(1 + 15)

    def test_weighted_sum_five_baskets(self, five_basket_data, jeffreys_prior):
        # hand-summed shapes under the capped-and-thresholded weight matrix
        # for this dataset (cap 0.25, two neighbors suppressed)
        w = np.array(
            [
                [1.00, 0.01, 0.00, 0.00, 0.00],
                [0.25, 1.00, 0.25, 0.25, 0.00],
                [0.00, 0.25, 1.00, 0.25, 0.00],
                [0.00, 0.25, 0.25, 1.00, 0.25],
                [0.00, 0.00, 0.00, 0.02, 1.00],
            ]
        )
        shape1, shape2 = posterior_params(five_basket_data, jeffreys_prior, w)
        assert shape1[1] == pytest.approx(16.0, abs=1e-12)
        assert shape2[1] == pytest.approx(28.75, abs=1e-12)

    def test_zero_weights_equal_no_borrowing_exactly(self, five_basket_data, jeffreys_prior):
        shape1, shape2 = posterior_params(five_basket_data, jeffreys_prior, np.eye(5))
        for i in range(5):
            assert shape1[i] == 0.5 + five_basket_data.y[i]
            assert shape2[i] == 0.5 + five_basket_data.n[i] - five_basket_data.y[i]

    def test_inactive_baskets_do_not_contribute(self):
        data = BasketData((5, 4, 3), (20, 20, 10), (True, False, True))
        prior = PriorSpec.shared(0.5, 0.5, 3)
        w = np.full((3, 3), 0.5)
        np.fill_diagonal(w, 1.0)
        shape1, shape2 = posterior_params(data, prior, w)
        # only basket 3 donates; the stopped basket 2 is skipped
        assert shape1[0] == pytest.approx(0.5 + 5 + 0.5 * 3)
        assert shape2[0] == pytest.approx(0.5 + 15 + 0.5 * 7)

    def test_stopped_basket_own_posterior(self):
        data = BasketData((1, 9), (10, 25), (False, True))
        prior = PriorSpec.shared(0.15, 0.85, 2)
        w = np.eye(2)
        shape1, shape2 = posterior_params(data, prior, w)
        assert shape1[0] == pytest.approx(1.15)
        assert shape2[0] == pytest.approx(9.85)

    def test_ess_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            B = int(rng.integers(2, 6))
            n = rng.integers(5, 40, size=B)
            y = np.array([rng.integers(0, ni + 1) for ni in n])
            data = BasketData.all_active(tuple(int(v) for v in y), tuple(int(v) for v in n))
            prior = PriorSpec.shared(0.15, 0.85, B)
            w = rng.uniform(0.0, 1.0, size=(B, B))
            np.fill_diagonal(w, 1.0)
            shape1, shape2 = posterior_params(data, prior, w)
            for i in range(B):
                expected_ess = 0.15 + 0.85 + n[i] + sum(
                    w[i, j] * n[j] for j in range(B) if j != i
                )
                assert shape1[i] + shape2[i] == pytest.approx(expected_ess, rel=1e-12)

    def test_nonpositive_shape_rejected(self):
        data = BasketData.all_active((1, 9), (10, 10))
        prior = PriorSpec.shared(0.5, 0.5, 2)
        with pytest.raises(ValueError, match="positive"):
            posterior_params(data, prior, np.array([[1.0, -1.0], [0.0, 1.0]]))


class TestBorrowingFactor:
    def test_no_borrowing(self, five_basket_data):
        assert borrowing_factor(five_basket_data, np.eye(5))[0] == 0.0

    def test_hand_computed_pair(self):
        data = BasketData.all_active((1, 3), (10, 30))
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert borrowing_factor(data, w)[0] == pytest.approx(1.5)

    def test_capped_borrowing_equivalent_subjects(self):
        # five baskets of 40, full similarity, cap a=0.5: each basket may
        # borrow at most 20 equivalent subjects
        data = BasketData.all_active((8,) * 5, (40,) * 5)
        w = three_component_adjust(np.ones((5, 5)), data, a=0.5, delta=1.0)
        for bf in borrowing_factor(data, w):
            assert bf == pytest.approx(0.5, abs=1e-12)
            assert bf * 40 == pytest.approx(20.0, abs=1e-9)


class TestValidation:
    def test_basket_data_bounds(self):
        with pytest.raises(ValueError):
            BasketData((5,), (4,), (True,))
        with pytest.raises(ValueError):
            BasketData((1, 2), (10,), (True,))

    def test_prior_positive(self):
        with pytest.raises(ValueError):
            PriorSpec((0.5, 0.0), (0.5, 0.5))
