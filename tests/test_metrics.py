"""Evaluation metrics: reference ordering, intersections, MR, SROCC, MSE, AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dado.errors import DegenerateInput, SizeMismatch, UnknownId
from dado.metrics import (
    auc,
    intersections,
    mean_rank,
    mse,
    normalize_mr,
    optimal_mean_rank,
    reference_order,
    srocc,
)
from dado.strategies import StrategyKind, select


class TestReferenceOrder:
    def test_norm_sorted_example(self):
        truths = [[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]
        assert reference_order(truths, StrategyKind.L2_SELECT) == [1, 2, 0]

    def test_single_candidate(self):
        assert reference_order([[0.5, 0.5]], StrategyKind.L2_SELECT) == [0]

    def test_reject_order_ranks_farthest_from_max_first(self):
        rng = np.random.default_rng(0)
        truths = rng.multivariate_normal([0, 0], [[1, 0.2], [0.2, 1]], size=400)
        order = reference_order(truths, StrategyKind.L2_REJECT)
        dists = np.linalg.norm(truths - truths.max(axis=0), axis=1)
        assert order[0] == int(np.argmax(dists))

    def test_reject_order_top_aq_equals_selection(self):
        rng = np.random.default_rng(1)
        truths = rng.normal(size=(50, 2))
        order = reference_order(truths, StrategyKind.L2_REJECT)
        for aq in (3, 10, 25):
            picked = select(StrategyKind.L2_REJECT, truths, aq)
            assert set(order[:aq]) == set(picked)


class TestIntersections:
    def test_identical_sets(self):
        assert intersections({1, 2, 3}, {1, 2, 3}, 3) == 1.0

    def test_partial_overlap(self):
        assert intersections({1, 2, 3}, {2, 3, 4}, 3) == pytest.approx(2 / 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            intersections({1, 2}, {1, 2, 3}, 3)

    def test_values_are_multiples_of_one_over_aq(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            aq = int(rng.integers(1, 10))
            universe = list(range(30))
            a = set(rng.choice(universe, aq, replace=False).tolist())
            b = set(rng.choice(universe, aq, replace=False).tolist())
            value = intersections(a, b, aq)
            assert value in {k / aq for k in range(aq + 1)}


class TestMeanRank:
    def test_true_top_set_is_optimal(self):
        order = list(range(10))
        assert mean_rank([0, 1, 2], order, 3) == 2.0
        assert optimal_mean_rank(3) == 2.0

    def test_worst_selection(self):
        order = list(range(10))
        assert mean_rank([8, 9], order, 2) == 9.5

    def test_permutation_invariant(self):
        order = list(range(20))
        assert mean_rank([4, 9, 12], order, 3) == mean_rank([12, 4, 9], order, 3)

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            mean_rank([99], list(range(5)), 1)

    def test_random_selection_expectation(self):
        # Uniform ranks have expectation (draw + 1) / 2 = 200.5 for draw 400.
        rng = np.random.default_rng(3)
        order = list(range(400))
        values = [
            mean_rank(rng.choice(400, 25, replace=False).tolist(), order, 25)
            for _ in range(1000)
        ]
        assert abs(float(np.mean(values)) - 200.5) < 3.0


class TestNormalizeMr:
    def test_optimum_maps_to_zero(self):
        assert normalize_mr(13.0, 13.0, 200.0) == 0.0

    def test_first_iteration_maps_to_one(self):
        assert normalize_mr(200.0, 13.0, 200.0) == 1.0

    def test_worse_than_first_clamps_to_one(self):
        assert normalize_mr(250.0, 13.0, 200.0) == 1.0

    def test_better_than_optimal_clamps_to_zero(self):
        assert normalize_mr(10.0, 13.0, 200.0) == 0.0

    def test_degenerate_anchor(self):
        assert normalize_mr(13.0, 13.0, 13.0) == 0.0

    def test_midpoint(self):
        assert normalize_mr(100.0, 0.0, 200.0) == pytest.approx(0.5)


class TestSrocc:
    def test_identical_ordering(self):
        order = list(range(10))
        assert srocc(order[:4], order, 4) == 1.0

    def test_reversed_ordering(self):
        true_order = list(range(10))
        pred_top = [3, 2, 1, 0]
        assert srocc(pred_top, true_order, 4) == -1.0

    def test_single_swap_example(self):
        # Selected candidates sit at true ranks (1, 3, 2):
        # rho = 1 - 6 * (0 + 1 + 1) / (3 * 8) = 0.5.
        true_order = [10, 12, 11, 13]
        pred_top = [10, 11, 12]
        assert srocc(pred_top, true_order, 3) == pytest.approx(0.5)

    def test_degenerate_aq(self):
        with pytest.raises(DegenerateInput):
            srocc([0], [0, 1], 1)

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            srocc([5, 6], [0, 1, 2], 2)

    @settings(max_examples=60)
    @given(st.permutations(list(range(8))), st.integers(min_value=2, max_value=8))
    def test_bounded_and_matches_scipy(self, true_order, aq):
        pred_top = list(range(aq))
        value = srocc(pred_top, true_order, aq)
        assert -1.0 <= value <= 1.0
        positions = [true_order.index(i) + 1 for i in pred_top]
        expected = stats.spearmanr(range(aq), positions).statistic
        assert value == pytest.approx(expected, abs=1e-12)


class TestMse:
    def test_identical(self):
        assert mse([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_unit_error(self):
        assert mse([[0.0, 0.0]], [[1.0, 1.0]]) == 1.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(13, 3))
        t = rng.normal(size=(13, 3))
        total = 0.0
        for i in range(13):
            for j in range(3):
                total += (p[i, j] - t[i, j]) ** 2
        assert mse(p, t) == pytest.approx(total / (13 * 3), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatch):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestAuc:
    def test_constant_curve(self):
        assert auc([0.5] * 16) == pytest.approx(0.5, abs=1e-15)

    def test_linear_ramp_any_length(self):
        for n in (2, 5, 16, 101):
            assert auc(np.linspace(0.0, 1.0, n)) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            auc([1.0])
