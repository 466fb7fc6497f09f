"""Annotation lookup and synthetic pool generation."""

import numpy as np
import pytest

from dado.datapool import pool_from_arrays, save_pool
from dado.errors import ConfigError
from dado.oracle import annotate, gen_synthetic_pool


def indexed_pool(n=5):
    """Pool whose row i has objectives (i, -i)."""
    ids = np.arange(n, dtype=float)
    return pool_from_arrays(np.zeros((n, 2)), np.column_stack([ids, -ids]))


class TestAnnotate:
    def test_pool_backed_lookup_identity(self):
        pool = pool_from_arrays(np.zeros((2, 3)), np.array([[1.0, 2.0], [12.5, 0.3]]))
        np.testing.assert_array_equal(annotate(pool, [1]), [[12.5, 0.3]])

    def test_analytic_at_anchor(self):
        # The parameters do not depend on the anchors, so anchor a can be put
        # on row 0: f1 is 0 there and f2 is |a - b|^2.
        a = gen_synthetic_pool(3, 2, seed=4).params[0]
        b = np.array([0.9, 0.1])
        pool = gen_synthetic_pool(3, 2, seed=4, anchor_a=a, anchor_b=b)
        np.testing.assert_array_equal(pool.params[0], a)
        out = annotate(pool, [0])
        np.testing.assert_allclose(out, [[0.0, float(np.sum((a - b) ** 2))]], atol=1e-15)

    def test_analytic_hand_values(self):
        # Row 0 sits at offset (1, 0) from anchor a and (0, 1) from anchor b.
        p = gen_synthetic_pool(1, 2, seed=6).params[0]
        pool = gen_synthetic_pool(1, 2, seed=6, anchor_a=p - [1.0, 0.0], anchor_b=p - [0.0, 1.0])
        out = annotate(pool, [0])
        np.testing.assert_allclose(out, [[1.0, 1.0]], atol=1e-15)

    def test_order_preserving(self):
        out = annotate(indexed_pool(), np.array([4, 3, 2, 1, 0]))
        np.testing.assert_array_equal(out[:, 0], [4.0, 3.0, 2.0, 1.0, 0.0])

    def test_empty_candidate_list(self):
        out = annotate(indexed_pool(), np.empty(0, dtype=np.int64))
        assert out.shape == (0, 2)

    def test_annotate_is_deterministic(self):
        pool = gen_synthetic_pool(20, 4, seed=0)
        rows = np.array([7, 3, 19])
        np.testing.assert_array_equal(annotate(pool, rows), annotate(pool, rows))


class TestSyntheticPools:
    def test_params_in_unit_cube(self):
        pool = gen_synthetic_pool(200, 5, seed=0)
        params = pool.params
        assert params.min() >= 0.0
        assert params.max() <= 1.0

    def test_analytic_matches_direct_evaluation(self):
        pool = gen_synthetic_pool(100, 6, seed=9)
        a, b = np.full(6, 0.25), np.full(6, 0.75)
        recomputed = np.array([[np.sum((x - a) ** 2), np.sum((x - b) ** 2)] for x in pool.params])
        np.testing.assert_array_equal(pool.objectives, recomputed)

    def test_regeneration_serializes_identically(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_pool(gen_synthetic_pool(50, 4, seed=21), p1)
        save_pool(gen_synthetic_pool(50, 4, seed=21), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_equal_anchors_rejected(self):
        with pytest.raises(ConfigError):
            gen_synthetic_pool(10, 3, seed=0, anchor_a=np.ones(3), anchor_b=np.ones(3))

    def test_pool_starts_unconsumed_with_row_ids(self):
        pool = gen_synthetic_pool(25, 3, seed=1)
        assert pool.available == len(pool) == 25
        assert pool.consumed.shape == (25,) and not pool.consumed.any()
