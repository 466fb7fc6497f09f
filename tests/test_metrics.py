"""Evaluation metrics: reference ordering, intersections, MR, SROCC, MSE, AUC."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dado.errors import DegenerateInput, SizeMismatch
from dado.metrics import (
    auc,
    intersections,
    mean_rank,
    mse,
    normalize_mr,
    optimal_mean_rank,
    rank_array,
    srocc,
)
from dado.strategies import StrategyKind, reference_order, select


class TestReferenceOrder:
    def test_norm_sorted_example(self):
        truths = [[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]
        assert reference_order(StrategyKind.L2_SELECT, truths).tolist() == [1, 2, 0]

    def test_single_candidate(self):
        assert reference_order(StrategyKind.L2_SELECT, [[0.5, 0.5]]).tolist() == [0]

    def test_reject_order_ranks_farthest_from_max_first(self):
        rng = np.random.default_rng(0)
        truths = rng.multivariate_normal([0, 0], [[1, 0.2], [0.2, 1]], size=400)
        order = reference_order(StrategyKind.L2_REJECT, truths)
        dists = np.linalg.norm(truths - truths.max(axis=0), axis=1)
        assert order[0] == int(np.argmax(dists))

    def test_reject_order_top_aq_equals_selection(self):
        rng = np.random.default_rng(1)
        truths = rng.normal(size=(50, 2))
        order = reference_order(StrategyKind.L2_REJECT, truths)
        dists = np.linalg.norm(truths - truths.max(axis=0), axis=1)
        rejection = sorted(range(50), key=lambda i: (dists[i], i))
        for aq in (3, 10, 25):
            assert set(order[:aq]) == set(range(50)) - set(rejection[: 50 - aq])


class TestIntersections:
    def test_identical_sets(self):
        # The true top 3 of the order [1, 2, 3, 0] is {1, 2, 3}.
        assert intersections([1, 2, 3], rank_array([1, 2, 3, 0]), 3) == 1.0

    def test_partial_overlap(self):
        assert intersections([1, 2, 3], rank_array([2, 3, 4, 0, 1]), 3) == pytest.approx(2 / 3)

    def test_values_are_multiples_of_one_over_aq(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            aq = int(rng.integers(1, 10))
            selected = rng.choice(30, aq, replace=False)
            value = intersections(selected, rank_array(rng.permutation(30)), aq)
            assert value in {k / aq for k in range(aq + 1)}


class TestMeanRank:
    def test_true_top_set_is_optimal(self):
        ranks = rank_array(list(range(10)))
        assert mean_rank([0, 1, 2], ranks, 3) == 2.0
        assert optimal_mean_rank(3) == 2.0

    def test_worst_selection(self):
        ranks = rank_array(list(range(10)))
        assert mean_rank([8, 9], ranks, 2) == 9.5

    def test_permutation_invariant(self):
        ranks = rank_array(list(range(20)))
        assert mean_rank([4, 9, 12], ranks, 3) == mean_rank([12, 4, 9], ranks, 3)

    def test_random_selection_expectation(self):
        # Uniform ranks have expectation (draw + 1) / 2 = 200.5 for draw 400.
        rng = np.random.default_rng(3)
        ranks = rank_array(list(range(400)))
        values = [
            mean_rank(rng.choice(400, 25, replace=False), ranks, 25)
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
        assert srocc(order[:4], rank_array(order), 4) == 1.0

    def test_reversed_ordering(self):
        true_order = list(range(10))
        pred_top = [3, 2, 1, 0]
        assert srocc(pred_top, rank_array(true_order), 4) == -1.0

    def test_single_swap_example(self):
        # Selected candidates sit at true ranks (1, 3, 2):
        # rho = 1 - 6 * (0 + 1 + 1) / (3 * 8) = 0.5.
        true_order = [0, 2, 1, 3]
        pred_top = [0, 1, 2]
        assert srocc(pred_top, rank_array(true_order), 3) == pytest.approx(0.5)

    def test_degenerate_aq(self):
        with pytest.raises(DegenerateInput):
            srocc([0], rank_array([0, 1]), 1)

    @settings(max_examples=60)
    @given(st.permutations(list(range(8))), st.integers(min_value=2, max_value=8))
    def test_bounded_and_matches_scipy(self, true_order, aq):
        pred_top = list(range(aq))
        value = srocc(pred_top, rank_array(true_order), aq)
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


# Objective values on a half-integer grid: every square, sum and difference is
# exact, so the brute-force scores equal numpy's bit for bit, and a grid this
# coarse makes ties common.
grid_values = st.integers(min_value=-4, max_value=4).map(lambda k: k / 2)


@st.composite
def scored_draws(draw):
    """A draw's predictions and truths, and an aq from 2 up to the draw size."""
    n = draw(st.integers(min_value=2, max_value=12))
    num_obj = draw(st.integers(min_value=1, max_value=3))
    rows = st.lists(st.lists(grid_values, min_size=num_obj, max_size=num_obj),
                    min_size=n, max_size=n)
    return draw(rows), draw(rows), draw(st.integers(min_value=2, max_value=n))


def brute_force_order(kind, ys):
    """Sorted-key best-first order: ascending score, ties to the lower position.

    L2-Reject's score is the distance to the componentwise maximum, and its
    best-first order is its rejection order reversed; the other two rank by norm.
    """
    if kind is StrategyKind.L2_REJECT:
        y_max = [max(column) for column in zip(*ys)]
        ys = [[v - m for v, m in zip(y, y_max)] for y in ys]
    score = [math.sqrt(sum(v * v for v in y)) for y in ys]
    order = sorted(range(len(ys)), key=lambda i: (score[i], i))
    return order[::-1] if kind is StrategyKind.L2_REJECT else order


class TestAgainstBruteForce:
    """The order, the selection and the rank-array metrics of one loop iteration,
    each against a brute-force reference."""

    @settings(max_examples=300)
    @given(st.sampled_from(list(StrategyKind)), scored_draws(),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_order_select_and_rank_metrics(self, kind, scored, seed):
        preds, truths, aq = scored
        pred_order = reference_order(kind, preds)
        true_order = brute_force_order(kind, truths)
        assert pred_order.tolist() == brute_force_order(kind, preds)
        assert reference_order(kind, truths).tolist() == true_order

        selected = select(kind, pred_order, aq, np.random.default_rng(seed))
        if kind is StrategyKind.RANDOM:
            expected = np.random.default_rng(seed).choice(len(preds), aq, replace=False).tolist()
        else:
            expected = brute_force_order(kind, preds)[:aq]
        assert selected.tolist() == expected

        ranks = rank_array(reference_order(kind, truths))
        positions = [true_order.index(i) + 1 for i in expected]
        assert intersections(selected, ranks, aq) == len(set(expected) & set(true_order[:aq])) / aq
        assert mean_rank(selected, ranks, aq) == sum(positions) / aq
        top_positions = [true_order.index(i) + 1 for i in brute_force_order(kind, preds)[:aq]]
        rho = stats.spearmanr(range(aq), top_positions).statistic
        assert srocc(pred_order, ranks, aq) == pytest.approx(rho, abs=1e-12)
