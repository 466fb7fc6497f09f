"""Scoring and subset selection for the three query strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dado.errors import ConfigError
from dado.strategies import StrategyKind, reference_order, select

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=5
)


def brute_force_smallest_norm(ys, aq):
    """Exhaustive-sort oracle for L2-Select."""
    norms = [float(np.linalg.norm(y)) for y in ys]
    order = sorted(range(len(ys)), key=lambda i: (norms[i], i))
    return set(order[:aq])


def brute_force_reject_complement(ys, aq):
    """Complement-of-rejected oracle for L2-Reject."""
    y_max = np.max(ys, axis=0)
    dists = [float(np.linalg.norm(y - y_max)) for y in ys]
    order = sorted(range(len(ys)), key=lambda i: (dists[i], i))
    rejected = set(order[: len(ys) - aq])
    return set(range(len(ys))) - rejected


def select_from(kind, ys, aq, rng=None):
    """`select` on the order the loop gives it: the predictions' reference order."""
    return select(kind, reference_order(kind, ys), aq, rng)


class TestScores:
    """The scores behind reference_order: L2-Select ranks by the norm of the
    prediction, L2-Reject by its distance to the componentwise maximum."""

    def test_l2s_origin(self):
        # The origin scores 0, so it ranks first wherever it sits in the draw.
        ys = [[0.5, 0.0], [0.0, -0.1], [0.0, 0.0]]
        assert reference_order(StrategyKind.L2_SELECT, ys)[0] == 2

    def test_l2s_pythagorean(self):
        # |(3, 4)| = 5 exactly: it ties (5, 0), and the tie goes to the lower position.
        ys = [[5.0, 0.0], [3.0, 4.0], [0.0, 5.0 + 1e-12], [0.0, 5.0 - 1e-12]]
        assert reference_order(StrategyKind.L2_SELECT, ys).tolist() == [3, 0, 1, 2]

    @given(finite_vec)
    def test_l2s_square_equals_dot(self, y):
        # The L2-Select order is ascending in y . y for every scaling of y.
        y_arr = np.asarray(y)
        ys = np.array([s * y_arr for s in (3.0, -1.0, 0.5, 2.0)])
        dots = np.einsum("ij,ij->i", ys, ys)
        order = reference_order(StrategyKind.L2_SELECT, ys)
        assert np.all(np.diff(dots[order]) >= -1e-9 * max(1.0, dots.max()))

    def test_component_max_not_necessarily_a_member(self):
        # The draw's maximum is (1, 1), no member of it: (0.6, 0.6) lies nearest
        # to it and is rejected first. Measured from a member, that member would be.
        ys = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]
        assert reference_order(StrategyKind.L2_REJECT, ys)[-1] == 2

    def test_component_max_singleton(self):
        # A one-row draw is its own maximum; its order is that row.
        assert reference_order(StrategyKind.L2_REJECT, [[2.5, -1.0]]).tolist() == [0]

    def test_component_max_matches_columnwise_scan(self):
        rng = np.random.default_rng(0)
        ys = rng.normal(size=(100, 3))
        y_max = [max(ys[i, j] for i in range(100)) for j in range(3)]
        dists = np.linalg.norm(ys - y_max, axis=1)
        expected = sorted(range(100), key=lambda i: (dists[i], i))[::-1]
        assert reference_order(StrategyKind.L2_REJECT, ys).tolist() == expected

    def test_l2r_at_the_maximum(self):
        # A prediction equal to the componentwise maximum scores 0: it is rejected first.
        ys = [[1.0, 1.0], [0.0, 1.0], [1.0, 0.5]]
        assert reference_order(StrategyKind.L2_REJECT, ys)[-1] == 0

    def test_l2r_unit_square_diagonal(self):
        # Distances to the maximum (1, 1) are 0, sqrt(2), 1 and sqrt(1.16).
        ys = [[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.6]]
        assert reference_order(StrategyKind.L2_REJECT, ys).tolist() == [1, 3, 2, 0]

    @given(finite_vec)
    def test_l2r_with_zero_origin_equals_l2s(self, y):
        # When the componentwise maximum is the origin, both scores are the
        # norm, so the L2-Reject order is the L2-Select order reversed.
        y_arr = -np.abs(np.asarray(y))
        ys = np.array([y_arr, np.zeros(len(y)), 0.5 * y_arr, y_arr[::-1]])
        np.testing.assert_array_equal(
            reference_order(StrategyKind.L2_REJECT, ys),
            reference_order(StrategyKind.L2_SELECT, ys)[::-1],
        )


class TestSelect:
    preds = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_l2s_hand_example_with_tie_break(self):
        # Norms are 0, 1, 1, sqrt(2); the tie between positions 1 and 2 goes
        # to the lower position.
        result = select_from(StrategyKind.L2_SELECT, self.preds, 2)
        assert result.tolist() == [0, 1]

    def test_l2r_hand_example(self):
        # Distances to y_max=(1,1): sqrt(2), 1, 1, 0. Reject the two smallest
        # (positions 3 and 1), keep positions 0 and 2.
        result = select_from(StrategyKind.L2_REJECT, self.preds, 2)
        assert set(result) == {0, 2}
        assert result[0] == 0  # farthest from the maximum first

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_aq_equals_draw_selects_everything(self, kind):
        result = select_from(kind, self.preds, 4, rng=np.random.default_rng(0))
        assert sorted(result) == [0, 1, 2, 3]

    def test_random_is_reproducible(self):
        a = select_from(StrategyKind.RANDOM, self.preds, 2, rng=np.random.default_rng(3))
        b = select_from(StrategyKind.RANDOM, self.preds, 2, rng=np.random.default_rng(3))
        assert a.tolist() == b.tolist()

    def test_random_selection_is_uniform(self):
        rng = np.random.default_rng(0)
        draw, aq, trials = 20, 5, 10000
        counts = np.zeros(draw)
        preds = np.zeros((draw, 2))
        for _ in range(trials):
            for i in select_from(StrategyKind.RANDOM, preds, aq, rng=rng):
                counts[i] += 1
        np.testing.assert_allclose(counts / trials, aq / draw, atol=0.02)

    def test_l2s_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            aq = int(rng.integers(1, n + 1))
            ys = rng.normal(size=(n, int(rng.integers(2, 4))))
            got = set(select_from(StrategyKind.L2_SELECT, ys, aq))
            assert got == brute_force_smallest_norm(ys, aq)

    def test_l2r_matches_reject_complement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            aq = int(rng.integers(1, n + 1))
            ys = rng.normal(size=(n, int(rng.integers(2, 4))))
            got = set(select_from(StrategyKind.L2_REJECT, ys, aq))
            assert got == brute_force_reject_complement(ys, aq)

    def test_l2r_tie_break_agrees_with_reject_semantics(self):
        # Duplicated score rows: rejection must pick the lowest positions,
        # therefore selection keeps the highest-position duplicates.
        ys = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        result = select_from(StrategyKind.L2_REJECT, ys, 2)
        assert set(result) == brute_force_reject_complement(ys, 2)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.01, max_value=100.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_positive_scaling_preserves_both_selections(self, aq, scale, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=(12, 2))
        for kind in (StrategyKind.L2_SELECT, StrategyKind.L2_REJECT):
            base = set(select_from(kind, ys, aq))
            scaled = set(select_from(kind, ys * scale, aq))
            assert base == scaled

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-20.0, max_value=20.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_translation_preserves_l2r_only(self, aq, shift, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=(12, 2))
        base = set(select_from(StrategyKind.L2_REJECT, ys, aq))
        moved = set(select_from(StrategyKind.L2_REJECT, ys + shift, aq))
        assert base == moved


class TestSelectionOrder:
    def test_l2s_first_aq_equals_selection_for_every_aq(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(size=(30, 2))
        order = reference_order(StrategyKind.L2_SELECT, ys)
        for aq in (1, 7, 30):
            assert set(order[:aq]) == brute_force_smallest_norm(ys, aq)

    def test_l2r_first_aq_equals_selection_for_every_aq(self):
        rng = np.random.default_rng(5)
        ys = rng.normal(size=(30, 2))
        order = reference_order(StrategyKind.L2_REJECT, ys)
        for aq in (1, 7, 30):
            assert set(order[:aq]) == brute_force_reject_complement(ys, aq)

    def test_random_reference_uses_the_norm_geometry(self):
        ys = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            reference_order(StrategyKind.RANDOM, ys),
            reference_order(StrategyKind.L2_SELECT, ys),
        )


class TestNames:
    def test_roundtrip(self):
        for kind in StrategyKind:
            assert StrategyKind.from_name(kind.value) is kind

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            StrategyKind.from_name("l3-select")
