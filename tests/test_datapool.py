"""Pool loading, saving, sampling, consumption, and normalizer behavior."""

import contextlib
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dado
from dado import datapool, native
from dado.datapool import (
    SAVE_CHUNK_ROWS,
    bootstrap_draw,
    consume,
    fit_normalizers,
    initial_sample,
    load_pool,
    pool_from_arrays,
    save_pool,
)
from dado.errors import (
    AlreadyConsumed,
    DegenerateInput,
    MissingFile,
    NonFiniteValue,
    PoolExhausted,
    SchemaMismatch,
    UnknownId,
)
from dado.native import csv_formatter, csv_reader, native_kernel, repr_rows
from dado.oracle import gen_synthetic_pool


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def small_pool(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return pool_from_arrays(rng.random((n, d)), rng.random((n, 2)))


class TestLoadPool:
    def test_minimal_well_formed_file(self, tmp_path):
        path = write_csv(
            tmp_path / "pool.csv",
            ["p0,p1,j0,j1", "0.1,0.2,1.0,2.0", "0.3,0.4,3.0,4.0", "0.5,0.6,5.0,6.0"],
        )
        pool = load_pool(path)
        assert len(pool) == 3
        assert pool.available == 3
        np.testing.assert_array_equal(pool.params[1], [0.3, 0.4])
        np.testing.assert_array_equal(pool.objectives[1], [3.0, 4.0])
        np.testing.assert_array_equal(pool.feature_bounds, [[0.1, 0.5], [0.2, 0.6]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_pool(tmp_path / "nope.csv")

    def test_nan_cell_names_the_row(self, tmp_path):
        path = write_csv(
            tmp_path / "pool.csv",
            ["p0,p1,j0,j1", "0.1,0.2,1.0,2.0", "0.3,NaN,3.0,4.0"],
        )
        with pytest.raises(NonFiniteValue, match="row 1"):
            load_pool(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", "0.1,oops"])
        with pytest.raises(SchemaMismatch):
            load_pool(path)

    @pytest.mark.parametrize(
        "rows", [["0.1,0.2", "0.3,oops"], ["0.1,0.2", "0.3"], ["0.1,0.2", "0.3,0.4,0.5"]]
    )
    def test_bad_row_is_named(self, tmp_path, rows):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", *rows])
        with pytest.raises(SchemaMismatch, match=r"row \d"):
            load_pool(path)

    def test_data_rows_wider_than_header(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", "0.1,0.2,0.3", "0.4,0.5,0.6"])
        with pytest.raises(SchemaMismatch, match="columns"):
            load_pool(path)

    def test_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0"])
        with pytest.raises(SchemaMismatch):
            load_pool(path)

    def test_ubend_shaped_file(self, tmp_path):
        # 28 parameter columns followed by 2 objective columns.
        pool = gen_synthetic_pool(20, 28, seed=5)
        path = tmp_path / "ubend_like.csv"
        save_pool(pool, path)
        loaded = load_pool(path)
        assert loaded.d == 28
        assert loaded.num_obj == 2
        assert len(loaded) == 20

    def test_roundtrip_is_exact(self, tmp_path):
        pool = small_pool(n=7)
        path = tmp_path / "pool.csv"
        save_pool(pool, path)
        loaded = load_pool(path)
        np.testing.assert_array_equal(pool.params, loaded.params)
        np.testing.assert_array_equal(pool.objectives, loaded.objectives)

    def test_infer_schema(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,p1,p2,j0,j1", "1,2,3,4,5"])
        pool = load_pool(path)
        assert (pool.d, pool.num_obj) == (3, 2)
        np.testing.assert_array_equal(pool.params, [[1, 2, 3]])

    def test_infer_schema_rejects_odd_headers(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["a,b,c", "1,2,3"])
        with pytest.raises(SchemaMismatch, match="convention"):
            load_pool(path)

    def test_pool_from_arrays_checks_shapes_and_values(self):
        with pytest.raises(SchemaMismatch):
            pool_from_arrays(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(SchemaMismatch):
            pool_from_arrays(np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(SchemaMismatch, match="^pool arrays: no data rows$"):
            pool_from_arrays(np.zeros((0, 2)), np.zeros((0, 2)))
        # The surrogate's input and output widths are the pool's column counts.
        for params, objectives in ((np.zeros((3, 0)), np.zeros((3, 2))),
                                   (np.zeros((3, 2)), np.zeros((3, 0)))):
            with pytest.raises(SchemaMismatch):
                pool_from_arrays(params, objectives)
        with pytest.raises(NonFiniteValue, match="^pool arrays: non-finite value in row 1$"):
            pool_from_arrays(np.zeros((3, 2)), np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]))


def spread_probe(probe):
    """A 20-row pool's arrays, with objectives x1e160 or x1e100, or p1 at +-1e308."""
    rng = np.random.default_rng(8)
    params, objectives = rng.random((20, 3)), rng.random((20, 2))
    if probe == "p1":
        params[:, 1] = np.where(params[:, 1] < 0.5, -1e308, 1e308)
    return params, objectives * {"j0": 1e160, "x1e100": 1e100}.get(probe, 1.0)


def probe_file(path, params, objectives):
    rows = np.hstack([params, objectives]).tolist()
    return write_csv(path, ["p0,p1,p2,j0,j1"] + [",".join(map(repr, row)) for row in rows])


class TestColumnSpread:
    """A pool is refused as it is built when the normalizers could not scale a column."""

    @pytest.mark.parametrize("column", ["j0", "p1"])
    def test_overflowing_spread_names_the_column(self, tmp_path, column):
        # Finite cells all: the std of the x1e160 objectives and the span of the +-1e308
        # parameter overflow.
        params, objectives = spread_probe(column)
        message = f"pool column {column} cannot be normalized"
        with pytest.raises(NonFiniteValue, match=message):
            pool_from_arrays(params, objectives)
        with pytest.raises(NonFiniteValue, match=message):
            load_pool(probe_file(tmp_path / "pool.csv", params, objectives))

    def test_objectives_x1e100_load(self, tmp_path):
        params, objectives = spread_probe("x1e100")
        for pool in (pool_from_arrays(params, objectives),
                     load_pool(probe_file(tmp_path / "pool.csv", params, objectives))):
            np.testing.assert_array_equal(pool.objectives, objectives)


class TestSampling:
    def test_initial_sample_exhaustive(self):
        pool = small_pool(n=5)
        picked = initial_sample(pool, 5, np.random.default_rng(0))
        assert sorted(picked.tolist()) == [0, 1, 2, 3, 4]
        assert pool.available == 0

    def test_initial_sample_consumes(self):
        pool = small_pool(n=10)
        picked = initial_sample(pool, 4, np.random.default_rng(0))
        assert pool.available == 6
        assert pool.consumed[picked].all()

    def test_initial_sample_deterministic(self):
        base = pool_from_arrays(
            np.random.default_rng(1).random((1000, 4)),
            np.random.default_rng(2).random((1000, 2)),
        )
        ids = []
        for _ in range(2):
            pool = base.copy()
            picked = initial_sample(pool, 100, np.random.default_rng(42))
            ids.append(set(picked.tolist()))
        assert ids[0] == ids[1]
        assert len(ids[0]) == 100

    def test_initial_sample_exhausted(self):
        pool = small_pool(n=3)
        with pytest.raises(PoolExhausted):
            initial_sample(pool, 4, np.random.default_rng(0))

    def test_bootstrap_draw_all_available(self):
        pool = small_pool(n=5)
        consume(pool, [0, 3])
        drawn = bootstrap_draw(pool, 3, np.random.default_rng(0))
        assert sorted(drawn.tolist()) == [1, 2, 4]

    def test_bootstrap_does_not_consume(self):
        pool = small_pool(n=10)
        bootstrap_draw(pool, 6, np.random.default_rng(0))
        assert pool.available == 10

    def test_bootstrap_deterministic_and_seed_sensitive(self):
        pool = small_pool(n=1000, seed=3)
        a = bootstrap_draw(pool, 100, np.random.default_rng(7))
        b = bootstrap_draw(pool, 100, np.random.default_rng(7))
        c = bootstrap_draw(pool, 100, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)
        assert set(a.tolist()) != set(c.tolist())

    def test_bootstrap_never_returns_consumed(self):
        pool = small_pool(n=40)
        consume(pool, list(range(20)))
        rng = np.random.default_rng(11)
        for _ in range(25):
            drawn = bootstrap_draw(pool, 10, rng)
            assert not pool.consumed[drawn].any()

    def test_bootstrap_exhausted(self):
        pool = small_pool(n=5)
        consume(pool, [0, 1, 2])
        with pytest.raises(PoolExhausted):
            bootstrap_draw(pool, 3, np.random.default_rng(0))

    def test_table_sized_draws(self):
        # The two experiment scenarios draw 400 and 2000 candidates per iteration.
        pool = pool_from_arrays(
            np.random.default_rng(0).random((2500, 2)),
            np.random.default_rng(1).random((2500, 2)),
        )
        assert len(bootstrap_draw(pool, 400, np.random.default_rng(0))) == 400
        assert len(bootstrap_draw(pool, 2000, np.random.default_rng(0))) == 2000

    def test_full_sequence_reproducible(self):
        base = small_pool(n=200, seed=9)
        sequences = []
        for _ in range(2):
            pool = base.copy()
            rng = np.random.default_rng(123)
            seq = initial_sample(pool, 30, rng).tolist()
            for _ in range(3):
                seq.extend(bootstrap_draw(pool, 50, rng).tolist())
            sequences.append(seq)
        assert sequences[0] == sequences[1]


class TestConsume:
    def test_consume_reduces_available(self):
        pool = small_pool(n=60)
        consume(pool, list(range(25)))
        assert pool.available == 35
        np.testing.assert_array_equal(np.flatnonzero(pool.consumed), np.arange(25))

    def test_consume_empty_is_noop(self):
        pool = small_pool()
        consume(pool, [])
        assert pool.available == len(pool)

    def test_consume_twice_raises(self):
        pool = small_pool()
        consume(pool, [1])
        with pytest.raises(AlreadyConsumed):
            consume(pool, [1])

    def test_consume_duplicate_in_one_call(self):
        pool = small_pool()
        with pytest.raises(AlreadyConsumed):
            consume(pool, [2, 2])

    def test_consume_unknown_id(self):
        pool = small_pool(n=5)
        with pytest.raises(UnknownId):
            consume(pool, [99])
        with pytest.raises(UnknownId):
            consume(pool, [5])
        with pytest.raises(UnknownId):  # must not wrap around to the last row
            consume(pool, [-1])
        assert pool.available == 5

    def test_consume_validates_before_mutating(self):
        pool = small_pool(n=5)
        with pytest.raises(UnknownId):
            consume(pool, [1, 99])
        with pytest.raises(AlreadyConsumed):
            consume(pool, [0, 3, 3])
        assert pool.available == 5


class TestNormalizers:
    def test_target_stats_example(self):
        pool = small_pool()
        _, tnorm = fit_normalizers(pool, np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(tnorm.mean, [1.0, 1.0])
        np.testing.assert_array_equal(tnorm.std, [1.0, 1.0])

    def test_constant_objective_column_maps_to_zero(self):
        pool = small_pool()
        targets = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        _, tnorm = fit_normalizers(pool, targets)
        z = tnorm.transform(targets)
        np.testing.assert_array_equal(z[:, 0], [0.0, 0.0, 0.0])

    def test_refit_matches_direct_summation(self):
        # Oracle: recompute mean and population std with explicit loops.
        pool = small_pool()
        rng = np.random.default_rng(5)
        targets = rng.normal(size=(4, 2))
        for _ in range(3):
            targets = np.vstack([targets, rng.normal(size=(3, 2))])
            _, tnorm = fit_normalizers(pool, targets)
            n = len(targets)
            for j in range(2):
                mean = sum(targets[i, j] for i in range(n)) / n
                var = sum((targets[i, j] - mean) ** 2 for i in range(n)) / n
                assert tnorm.mean[j] == pytest.approx(mean, abs=1e-12)
                assert tnorm.std[j] == pytest.approx(var**0.5, abs=1e-12)

    def test_empty_training_set_rejected(self):
        pool = small_pool()
        with pytest.raises(DegenerateInput):
            fit_normalizers(pool, np.empty((0, 2)))

    def test_features_map_into_unit_interval(self):
        pool = small_pool(n=50, d=6, seed=2)
        fnorm, _ = fit_normalizers(pool, np.zeros((1, 2)))
        scaled = fnorm.transform(pool.params)
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0
        # Bounds themselves map to the interval ends.
        assert np.any(scaled == 0.0)
        assert np.any(scaled == 1.0)

    def test_constant_feature_dimension_maps_to_half(self):
        params = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
        pool = pool_from_arrays(params, np.zeros((4, 2)))
        fnorm, _ = fit_normalizers(pool, np.zeros((1, 2)))
        scaled = fnorm.transform(params)
        np.testing.assert_array_equal(scaled[:, 0], [0.5, 0.5, 0.5, 0.5])

    def test_target_normalizer_roundtrip(self):
        pool = small_pool()
        targets = np.random.default_rng(0).normal(size=(10, 2)) * 7 + 3
        _, tnorm = fit_normalizers(pool, targets)
        np.testing.assert_allclose(tnorm.inverse(tnorm.transform(targets)), targets, atol=1e-12)

    def test_inverse_example(self):
        from dado.datapool import TargetNormalizer

        tnorm = TargetNormalizer(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(tnorm.inverse(np.array([0.0, 0.0])), [1.0, 1.0])


class TestPoolInvariants:
    def test_available_plus_consumed_is_size(self):
        pool = small_pool(n=30)
        rng = np.random.default_rng(0)
        initial_sample(pool, 10, rng)
        assert pool.available + np.count_nonzero(pool.consumed) == len(pool)
        consume(pool, bootstrap_draw(pool, 5, rng))
        assert pool.available + np.count_nonzero(pool.consumed) == len(pool)

    def test_copy_isolates_consumption(self):
        pool = small_pool(n=10)
        clone = pool.copy()
        consume(pool, [0, 1])
        assert clone.available == 10
        assert pool.available == 8
        assert clone.table is pool.table

    def test_table_arrays_are_read_only(self):
        params = np.zeros((3, 2))
        pool = pool_from_arrays(params, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            pool.objectives[0, 0] = 1.0
        params[0, 0] = 1.0  # the pool holds its own copy
        assert pool.params[0, 0] == 0.0

    def test_columns_are_views_of_one_read_only_table(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.csv"
        save_pool(small_pool(), path)
        pools = [small_pool(), gen_synthetic_pool(10, 3, seed=0), load_pool(path)]
        monkeypatch.setattr(datapool, "native_kernel", lambda: None)
        pools.append(load_pool(path))  # through np.loadtxt
        for pool in pools:
            assert pool.table.shape == (10, 5)
            assert (pool.params.shape, pool.objectives.shape) == ((10, 3), (10, 2))
            for view in (pool.params, pool.objectives):
                assert np.shares_memory(view, pool.table)
            for a in (pool.table, pool.params, pool.objectives, pool.feature_bounds):
                assert not a.flags.writeable
            assert pool.copy().table is pool.table


@pytest.fixture(scope="module")
def kernel():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler, so pools are written through repr only")
    k = native_kernel()
    assert k is not None, "the native library failed to build, load or pass its self-check"
    return k


def hard_floats(rng):
    """About 2e5 doubles over every path of the shortest-digit search and of repr's layout."""
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    edges = np.array([
        0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-5, 1e-4, 9.999999999999999e-5, 0.00010000000000000002, 9999999999999998.0, 1e16,
        1.0000000000000002e16, 1.2345678901234568e17, 1e100, 1.5e-100, 2.5e-300, 1e308,
    ])
    edges = np.concatenate([edges, 2.0 ** np.arange(-1074, 1024)])
    odd, shift = np.meshgrid(np.arange(1, 2**10, 2), np.arange(1, 81))
    return np.concatenate([
        bits[np.isfinite(bits)],
        rng.random(50_000),
        rng.random(20_000) * 10.0 ** rng.integers(-30, 31, 20_000),
        rng.integers(0, 10**17, 10_000).astype(np.float64),
        rng.integers(2**52, 2**55, 10_000).astype(np.float64),  # 17-digit integers
        rng.integers(1, 10**4, 10_000) * 10.0 ** rng.integers(0, 23, 10_000),  # exact decimals
        (odd * 2.0 ** -shift).ravel(),  # exact binary fractions, some 18-digit ties
        rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64),  # subnormals
        edges, -edges,
    ])


class TestPoolWriter:
    """The C formatter writes pool CSVs byte for byte as `repr` does."""

    def test_native_rows_are_repr_rows(self, kernel):
        values = hard_floats(np.random.default_rng(16))
        whole = len(values) // 30 * 30
        for table in (values[:whole].reshape(-1, 30), values[whole:].reshape(-1, 1)):
            got = csv_formatter(kernel, table.shape[1])(table)
            assert got.splitlines() == repr_rows(table).splitlines()

    @pytest.mark.parametrize("rows", [1, 2 * SAVE_CHUNK_ROWS + 3])
    def test_save_pool_writes_the_same_bytes_on_both_paths(self, kernel, tmp_path, monkeypatch,
                                                           rows):
        # On one thread and on several, each formatting chunks of 1,000 rows.
        pool = gen_synthetic_pool(rows, 5, seed=rows)
        expected = b"p0,p1,p2,p3,p4,j0,j1\r\n" + repr_rows(pool.table)
        monkeypatch.setattr(datapool, "SAVE_CHUNK_ROWS", 1000)
        formatter = datapool.csv_formatter
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DADO_THREADS", threads)
            chunks = []

            def counting(*args):
                run = formatter(*args)
                return lambda block: chunks.append(len(block)) or run(block)

            digest = hashlib.sha256()
            with monkeypatch.context() as patch:
                patch.setattr(datapool, "csv_formatter", counting)
                save_pool(pool, tmp_path / "native.csv", digest=digest)
            assert sum(chunks) == rows and len(chunks) == math.ceil(rows / 1000), threads
            with monkeypatch.context() as patch:
                patch.setattr(datapool, "native_kernel", lambda: None)
                save_pool(pool, tmp_path / "repr.csv")
            assert (tmp_path / "native.csv").read_bytes() == expected, threads
            assert (tmp_path / "repr.csv").read_bytes() == expected, threads
            assert digest.digest() == hashlib.sha256(expected).digest(), threads

    def test_chunks_are_written_in_order_when_the_first_finishes_last(self, kernel, tmp_path,
                                                                       monkeypatch):
        pool = gen_synthetic_pool(1000, 3, seed=5)
        expected = b"p0,p1,p2,j0,j1\r\n" + repr_rows(pool.table)
        monkeypatch.setattr(datapool, "SAVE_CHUNK_ROWS", 100)
        monkeypatch.setenv("DADO_THREADS", "3")
        formatter = datapool.csv_formatter
        third_done, finished, waited = threading.Event(), [], []

        def delaying(*args):
            run = formatter(*args)

            def text(block):
                chunk = int(np.flatnonzero(pool.table[:, 0] == block[0, 0])[0]) // 100
                if chunk == 0:
                    waited.append(third_done.wait(timeout=30))
                result = run(block)
                finished.append(chunk)
                if chunk == 2:
                    third_done.set()
                return result

            return text

        monkeypatch.setattr(datapool, "csv_formatter", delaying)
        digest = hashlib.sha256()
        save_pool(pool, tmp_path / "pool.csv", digest=digest)
        assert waited == [True] and finished.index(0) > finished.index(2)
        assert (tmp_path / "pool.csv").read_bytes() == expected
        assert digest.digest() == hashlib.sha256(expected).digest()

    def test_save_pool_writes_the_pools_own_table(self, kernel, tmp_path):
        # The rows go out from the pool's table, chunk by chunk, with no copy of the table.
        pool = pool_from_arrays(np.random.default_rng(4).random((100_000, 3)),
                                np.random.default_rng(5).random((100_000, 1)))
        tracemalloc.start()
        try:
            save_pool(pool, tmp_path / "pool.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool.table.nbytes / 2

    def test_formatter_writes_within_its_slack(self, kernel):
        # Rows of 24-byte cells fill the stated capacity exactly; the last cell's 16-byte
        # copies reach furthest past its own end. No byte past the slack may change.
        cells = np.full((64, 3), -1.2345678901234567e-308)
        cells[-1, -1] = -1234567890123456.8
        assert [len(repr(float(c))) for c in cells[-1]] == [24, 24, 19]
        capacity = len(cells) * (3 * 25 + 1) + native.FORMAT_SLACK
        buffer = np.full(capacity + 64, 0xA5, dtype=np.uint8)
        n = kernel.format_rows(native._address(buffer), 3, native._address(cells), len(cells))
        assert buffer[:n].tobytes() == repr_rows(cells)
        assert (buffer[capacity:] == 0xA5).all()

    def test_formatter_checks_its_block(self, kernel):
        run = csv_formatter(kernel, 3)
        for block in (np.zeros((4, 2)), np.zeros((4, 6))[:, ::2],
                      np.zeros((4, 3), dtype=np.float32)):
            with pytest.raises(ValueError):
                run(block)
        assert csv_formatter(None, 3) is None

    def test_mutant_formatter_fails_the_self_check(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = native._SOURCE.read_text()
        check = native._format_check
        mutations = [
            ('return put(p, ".0", 2);', "return p;"),  # integral values lose their ".0"
            ("decpt <= 16) {", "decpt <= 17) {"),  # 1e16 written positionally
            ("decpt > -4 &&", "decpt > -5 &&"),  # 1e-05 written positionally
        ]
        for i, (old, new) in enumerate(mutations):
            assert source.count(old) == 1, old
            wrong = tmp_path / f"wrong-{i}.c"
            wrong.write_text(source.replace(old, new))
            monkeypatch.setattr(native, "_SOURCE", wrong)
            monkeypatch.setattr(native, "_format_check", check)
            assert native.load_kernel() is None, new
            # The source builds and loads: the formatter check is what refuses it.
            monkeypatch.setattr(native, "_format_check", lambda kernel: True)
            assert native.load_kernel() is not None, new

    def test_no_undefined_behaviour(self, kernel, tmp_path):
        # Ryu's shifts and 128-bit products, built with UBSan at -O3 and run on random bits,
        # through the formatter and through the reader; the reader also on fuzzed decimals
        # and on tokens cut short at the end of the readable memory.
        sanitize = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
        probe = tmp_path / "probe.c"
        probe.write_text("int probe(int x) { return x + 1; }\n")
        built = subprocess.run([shutil.which("cc"), *native._CFLAGS, *sanitize, str(probe),
                                "-o", str(tmp_path / "probe.so")], capture_output=True)
        if built.returncode != 0:
            pytest.skip("no UBSan runtime")
        tokens = [(b"0.12", 0.12), (b"1e", None), (b"-", None), (b"1.5e+", None), (b"1.", None),
                  (b"1e+308", 1e308), (b"2.2250738585072012e-308", 2.2250738585072014e-308),
                  (b"1\r", None), (b"1,", None), (b"12345678901234567", 12345678901234567.0)]
        cells = tmp_path / "cells.txt"
        cells.write_text("\n".join(fuzzed_decimals(np.random.default_rng(1), 20_000)))
        script = f"""
import ctypes
import mmap
import sys
import numpy as np
from dado import native
native._CFLAGS += {sanitize!r}
kernel = native.load_kernel()
if kernel is None:
    sys.exit("the sanitized library failed to build, load or pass its self-check")
table = np.random.default_rng(0).integers(0, 2**64, 100_000, dtype=np.uint64)
table = table.view(np.float64).reshape(-1, 25)
if native.csv_formatter(kernel, 25)(table) != native.repr_rows(table):
    sys.exit("the sanitized formatter differs from repr")
read = native.csv_reader(kernel)
finite = table.ravel()[np.isfinite(table.ravel())]
finite = finite[:len(finite) // 25 * 25].reshape(-1, 25)
got = np.empty_like(finite)
text = open({str(cells)!r}, "rb").read()
column = np.empty((text.count(b"\\n") + 1, 1))
if (read(native.repr_rows(finite), got[:-1]) != len(finite)
        or read(native.repr_rows(finite), got) != len(finite)
        or got.tobytes() != finite.tobytes()
        or read(text, column) != len(column)
        or column.ravel().tolist() != list(map(float, text.split()))):
    sys.exit("the sanitized reader differs from float")
# Each token ends the last readable page, so a read past its end faults.
page = mmap.PAGESIZE
memory = mmap.mmap(-1, 2 * page)
base = ctypes.addressof(ctypes.c_char.from_buffer(memory))
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
if libc.mprotect(base + page, page, 0) != 0:  # PROT_NONE
    sys.exit("mprotect failed")
out = (ctypes.c_double * 4)()
for token, expected in {tokens!r}:
    memory[page - len(token):page] = token
    n = kernel.parse_rows(base + page - len(token), len(token), 1, out, len(out))
    if (out[0] if n == 1 else None) != expected:
        sys.exit(f"{{token}}: read {{n}} rows")
"""
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": str(Path(dado.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "runtime error" not in done.stderr


def fuzzed_decimals(rng, n):
    """n decimals of the writer's form: 1 to 17 digits, some with a point and some with an
    exponent from -345 to 312, half of them negative."""
    lengths = rng.integers(1, 18, n)
    mantissas = rng.integers(0, 10**lengths)
    points = rng.integers(0, 18, n) % lengths  # 0: no point
    exponents = rng.integers(-345, 313, n)
    exponents[rng.random(n) < 0.3] = 0x7FFF  # no exponent
    signs = np.where(rng.random(n) < 0.5, "-", "")
    cells = []
    for sign, length, mantissa, point, exponent in zip(
            signs.tolist(), lengths.tolist(), mantissas.tolist(), points.tolist(),
            exponents.tolist()):
        digits = "%0*d" % (length, mantissa)
        if point:
            digits = f"{digits[:point]}.{digits[point:]}"
        cells.append(sign + digits + ("" if exponent == 0x7FFF else "e%+d" % exponent))
    return cells


def test_native_kernels_under_address_sanitizer(kernel, tmp_path):
    # Every C kernel built with ASan, in a process that preloads its runtime: the train
    # step at odd shapes and batch sizes that do not divide the rows, a pool through the
    # writer and the reader, the fuzzed decimals, and tokens that end the readable memory.
    # PYTHONMALLOC=malloc gives each Python object, such as a block of text, its own
    # redzones.
    found = subprocess.run([shutil.which("cc"), "-print-file-name=libasan.so"],
                           capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(found):
        pytest.skip("no ASan runtime")
    tokens = [(b"0.12", 0.12), (b"1e", None), (b"-", None), (b"1.5e+", None), (b"1.", None),
              (b"1e+308", 1e308), (b"2.2250738585072012e-308", 2.2250738585072014e-308),
              (b"1\r", None), (b"1,", None), (b"12345678901234567", 12345678901234567.0)]
    cells = tmp_path / "cells.txt"
    cells.write_text("\n".join(fuzzed_decimals(np.random.default_rng(1), 20_000)))
    script = f"""
import ctypes
import itertools
import mmap
import sys
import numpy as np
from dado import datapool, native, surrogate
from dado.oracle import gen_synthetic_pool
from dado.surrogate import MlpConfig, TrainConfig, init_model, predict_batch, train
native._CFLAGS += ("-fsanitize=address", "-fno-omit-frame-pointer")
kernel = native.native_kernel()
if kernel is None:
    sys.exit("the sanitized library failed to build, load or pass its self-check")
rng = np.random.default_rng(0)
for hidden, (d, out, batch, rows) in itertools.product(
        [(8, 4), (200, 100), (3,), (64, 64, 64)],
        [(28, 2, 4, 37), (3, 1, 1, 5), (5, 3, 7, 50)]):
    x, t = rng.random((rows, d)), rng.normal(size=(rows, out))
    model = init_model(MlpConfig(hidden=hidden), d, out, seed=1)
    cfg = TrainConfig(batch_size=batch, max_epochs=2)
    thetas = []
    for path in (native.native_kernel, lambda: None):
        surrogate.native_kernel = path
        trained, _ = train(model, x, t, cfg, np.random.default_rng(2))
        thetas.append(trained.theta.tobytes())
    surrogate.native_kernel = native.native_kernel
    if thetas[0] != thetas[1] or predict_batch(trained, x).shape != (rows, out):
        sys.exit(f"the sanitized train step is not numpy's at {{hidden, d, out, batch, rows}}")
pool = gen_synthetic_pool(20_000, 5, seed=3)
datapool.save_pool(pool, {str(tmp_path / "pool.csv")!r})
if datapool.load_pool({str(tmp_path / "pool.csv")!r}).table.tobytes() != pool.table.tobytes():
    sys.exit("the sanitized pool did not read back")
read = native.csv_reader(kernel)
text = open({str(cells)!r}, "rb").read()
column = np.empty((text.count(b"\\n") + 1, 1))
if read(text, column) != len(column) or column.ravel().tolist() != list(map(float, text.split())):
    sys.exit("the sanitized reader differs from float")
if read(text, np.empty((len(column) - 1, 1))) != len(column):  # the last row is only counted
    sys.exit("the sanitized reader miscounts rows past its table")
# Each token ends the last readable page, so a read past its end faults.
page = mmap.PAGESIZE
memory = mmap.mmap(-1, 2 * page)
base = ctypes.addressof(ctypes.c_char.from_buffer(memory))
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
if libc.mprotect(base + page, page, 0) != 0:  # PROT_NONE
    sys.exit("mprotect failed")
out = (ctypes.c_double * 4)()
for token, expected in {tokens!r}:
    memory[page - len(token):page] = token
    n = kernel.parse_rows(base + page - len(token), len(token), 1, out, len(out))
    if (out[0] if n == 1 else None) != expected:
        sys.exit(f"{{token}}: read {{n}} rows")
"""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "DADO_THREADS": "2",
           "PYTHONPATH": str(Path(dado.__file__).parents[1]), "LD_PRELOAD": found,
           "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "AddressSanitizer" not in done.stderr


def whole_file_outcome(path):
    """What a pool file loads to through one np.loadtxt call over the whole file, the
    reader that the block reader replaced, with the schema its p*,...,j* header names:
    the pool's arrays, or the error's class and message."""
    p = Path(path)
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except UnicodeDecodeError:
        return SchemaMismatch, f"{p}: not UTF-8 text"
    if not header:
        return SchemaMismatch, f"{p}: empty file, expected a header row"
    d = next((i for i, name in enumerate(header) if not name.startswith("p")), len(header))
    num_obj = len(header) - d
    if d == 0 or num_obj == 0 or not all(name.startswith("j") for name in header[d:]):
        return SchemaMismatch, f"{p}: header does not follow the p*,...,j* convention"
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(p, dtype=float, delimiter=",", skiprows=1, ndmin=2,
                              comments=None, encoding="utf-8")
    except ValueError as exc:
        return SchemaMismatch, f"{p}: {exc}"
    if data.shape[0] == 0:
        return SchemaMismatch, f"{p}: no data rows"
    if data.shape[1] != d + num_obj:
        return SchemaMismatch, f"{p}: data rows have {data.shape[1]} columns, expected {d + num_obj}"
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        return NonFiniteValue, f"{p}: non-finite value in row {np.flatnonzero(~finite)[0]}"
    params, objectives = data[:, :d], data[:, d:]
    bounds = np.column_stack([params.min(axis=0), params.max(axis=0)])
    return tuple(a.tobytes() for a in (params, objectives, bounds)) + (data.shape,)


def outcome(path):
    """`load_pool`'s result in `whole_file_outcome`'s terms."""
    try:
        pool = load_pool(path)
    except (SchemaMismatch, NonFiniteValue) as exc:
        return type(exc), str(exc)
    arrays = (pool.params, pool.objectives, pool.feature_bounds)
    return tuple(a.tobytes() for a in arrays) + ((len(pool), pool.d + pool.num_obj),)


def both_readers(monkeypatch, path):
    """`load_pool`'s outcomes through the C reader and through np.loadtxt alone."""
    native = outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(datapool, "native_kernel", lambda: None)
        return native, outcome(path)


ODD_FILES = {
    # Every TestLoadPool file.
    "minimal": "p0,p1,j0,j1\n0.1,0.2,1.0,2.0\n0.3,0.4,3.0,4.0\n0.5,0.6,5.0,6.0\n",
    "nan-cell": "p0,p1,j0,j1\n0.1,0.2,1.0,2.0\n0.3,NaN,3.0,4.0\n",
    "non-numeric": "p0,j0\n0.1,oops\n",
    "bad-row-cell": "p0,j0\n0.1,0.2\n0.3,oops\n",
    "short-row": "p0,j0\n0.1,0.2\n0.3\n",
    "long-row": "p0,j0\n0.1,0.2\n0.3,0.4,0.5\n",
    "wider-than-header": "p0,j0\n0.1,0.2,0.3\n0.4,0.5,0.6\n",
    "no-data-rows": "p0,j0\n",
    "missing-header": "",
    "infer-schema": "p0,p1,p2,j0,j1\n1,2,3,4,5\n",
    "odd-header": "a,b,c\n1,2,3\n",
    # Line endings and blank lines.
    "crlf": "p0,j0\r\n0.1,0.2\r\n0.3,0.4\r\n",
    "cr": "p0,j0\r0.1,0.2\r0.3,0.4\r",
    "no-final-newline": "p0,j0\r\n0.1,0.2\r\n0.3,0.4",
    "header-only-no-newline": "p0,j0",
    "trailing-blank-line": "p0,j0\n0.1,0.2\n\n",
    "inner-blank-lines": "p0,j0\r\n0.1,0.2\r\n\r\n\n0.3,0.4\r\n",
    "blank-line-then-short-row": "p0,j0\n0.1,0.2\n\n0.3\n",
    "whitespace-line": "p0,j0\n0.1,0.2\n  \n",
    # Cells outside the writer's form.
    "whitespace": "p0,j0\n 0.1 ,0.2\t\n",
    "plus": "p0,j0\n+1,2\n",
    "leading-point": "p0,j0\n.5,2\n",
    "trailing-point": "p0,j0\n1.,2\n",
    "nan": "p0,j0\n1,2\nNaN,3\n",
    "overflow": "p0,j0\n1,2\n1e400,3\n",
    "twenty-digits": "p0,j0\n12345678901234567890,0.12345678901234567890\n",
    "exponent-forms": "p0,j0\n1e5,1E+5\n1e-0005,-0\n",
    "empty-cell": "p0,j0\n1,\n",
    "non-utf8-cell": b"p0,j0\n1,2\n3,\xff\n",
}


class TestPoolReader:
    """The C reader and np.loadtxt read every pool file alike, as the whole-file load did."""

    @pytest.fixture(scope="class")
    def desk_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("desk") / "pool.csv"
        save_pool(gen_synthetic_pool(10_000, 28, seed=2024), path)
        return path

    def test_desk_pool_reads_alike(self, kernel, desk_file, monkeypatch):
        native, loadtxt = both_readers(monkeypatch, desk_file)
        assert native == loadtxt == whole_file_outcome(desk_file)
        assert native[-1] == (10_000, 30)

    def test_fuzzed_decimals_read_as_float(self, kernel):
        cells = fuzzed_decimals(np.random.default_rng(17), 1_000_000)
        got = np.empty((len(cells), 1))
        assert csv_reader(kernel)("\n".join(cells).encode(), got) == len(cells)
        expected = np.array([float(c) for c in cells])
        wrong = np.flatnonzero(got.ravel().view(np.uint64) != expected.view(np.uint64))
        assert [cells[i] for i in wrong[:5]] == []

    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_files_read_alike(self, kernel, tmp_path, monkeypatch, name):
        # In blocks of the default size, and in blocks shorter than a line.
        text = ODD_FILES[name]
        path = tmp_path / "pool.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        for block_bytes in (datapool.LOAD_BLOCK_BYTES, 8, 1):
            monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", block_bytes)
            native, loadtxt = both_readers(monkeypatch, path)
            assert native == loadtxt == whole_file_outcome(path), block_bytes
            digest = hashlib.sha256()
            with contextlib.suppress(SchemaMismatch, NonFiniteValue):
                load_pool(path, digest=digest)
            if name != "odd-header":  # a refused header ends the read before the data
                assert digest.digest() == hashlib.sha256(path.read_bytes()).digest(), block_bytes

    @pytest.mark.parametrize("row, cell, error", [
        (100, "oops", "at row 100,"), (100, "0.5,0.5", "at row 101;"), (100, "NaN", "in row 100"),
        (100, "1e400", "in row 100"), (100, "0.5\n", "at row 101;"), (0, "0.5,0.5", "at row 2;"),
        (100, " 0.5", None), (199, "+1", None),
    ])
    def test_late_block_names_its_file_row(self, kernel, tmp_path, monkeypatch, row, cell, error):
        # 64-byte blocks of 8-byte rows: row 100 sits in the 13th block, past blank lines.
        monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 64)
        lines = ["p0,j0"] + [f"0.{i % 10},0.{i % 7}" for i in range(200)]
        lines[1 + row] = f"{cell},0.25"
        lines[40:40] = ["", "\r"]
        path = tmp_path / "pool.csv"
        path.write_text("\n".join(lines) + "\n")
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DADO_THREADS", threads)
            native, loadtxt = both_readers(monkeypatch, path)
            assert native == loadtxt == whole_file_outcome(path), threads
            if error is None:
                assert native[-1] == (200, 2)
            else:
                assert error in native[1]

    def test_refused_cell_in_a_late_full_block(self, kernel, desk_file, tmp_path, monkeypatch):
        lines = desk_file.read_bytes().split(b"\r\n")
        lines[1 + 9_000] = b"oops," + lines[1 + 9_000].split(b",", 1)[1]
        path = tmp_path / "pool.csv"
        path.write_bytes(b"\r\n".join(lines))
        monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 1 << 16)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DADO_THREADS", threads)
            native, loadtxt = both_readers(monkeypatch, path)
            assert native == loadtxt == whole_file_outcome(path), threads
            assert "at row 9000," in native[1]

    def test_file_is_read_in_blocks(self, kernel, desk_file, monkeypatch):
        # The header line is read alone. Each block of whole lines after it ends at the
        # first LF at or after LOAD_BLOCK_BYTES, and is parsed once, in its own slice of
        # the table: the rows its LFs foretell are where they go.
        data = desk_file.read_bytes()
        monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 1 << 16)
        blocks, start = [], data.index(b"\r\n") + 2
        while start < len(data):
            end = data.find(b"\n", start + datapool.LOAD_BLOCK_BYTES) + 1 or len(data)
            blocks.append(end - start)
            start = end
        reader = datapool.csv_reader
        expected = whole_file_outcome(desk_file)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DADO_THREADS", threads)
            texts = []

            def recording(k):
                read = reader(k)
                return lambda text, table: texts.append(len(text)) or read(text, table)

            with monkeypatch.context() as patch:
                patch.setattr(datapool, "csv_reader", recording)
                digest = hashlib.sha256()
                pool = load_pool(desk_file, digest=digest)
            assert sorted(texts) == sorted(blocks) and len(blocks) > 80, threads
            arrays = (pool.params, pool.objectives, pool.feature_bounds)
            assert tuple(a.tobytes() for a in arrays) == expected[:3]
            assert digest.digest() == hashlib.sha256(data).digest()

    def test_one_parse_at_a_time(self, kernel, desk_file, monkeypatch):
        # Whatever DADO_THREADS says, one worker parses: no two blocks are in flight.
        monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 1 << 16)
        monkeypatch.setenv("DADO_THREADS", "3")
        reader = datapool.csv_reader
        lock, active, most = threading.Lock(), 0, 0

        def recording(k):
            read = reader(k)

            def parse(text, table):
                nonlocal active, most
                with lock:
                    active += 1
                    most = max(most, active)
                time.sleep(0.002)
                try:
                    return read(text, table)
                finally:
                    with lock:
                        active -= 1

            return parse

        monkeypatch.setattr(datapool, "csv_reader", recording)
        digest = hashlib.sha256()
        pool = load_pool(desk_file, digest=digest)
        assert most == 1
        arrays = (pool.params, pool.objectives, pool.feature_bounds)
        assert tuple(a.tobytes() for a in arrays) == whole_file_outcome(desk_file)[:3]
        assert digest.digest() == hashlib.sha256(desk_file.read_bytes()).digest()

    def test_byte_order_mark_before_the_header(self, kernel, tmp_path, monkeypatch):
        # Spreadsheet "CSV UTF-8" exports start with one; anywhere else it is a bad cell.
        plain, marked, inner = (tmp_path / f"{name}.csv" for name in ("plain", "marked", "inner"))
        plain.write_bytes(b"p0,p1,j0\r\n0.1,0.2,0.3\r\n0.4,0.5,0.6\r\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        inner.write_bytes(plain.read_bytes() + b"\xef\xbb\xbf0.7,0.8,0.9\r\n")
        assert both_readers(monkeypatch, marked) == both_readers(monkeypatch, plain)
        assert outcome(plain)[-1] == (2, 3)
        for error in both_readers(monkeypatch, inner):
            assert error[0] is SchemaMismatch and "row 2" in error[1]

    @pytest.mark.parametrize("text", [b"p0,j0\n1 ,2\n", b"p0,j0\n1,oops\n"],
                             ids=["read", "refused"])
    def test_fallback_leaves_the_handle_open(self, tmp_path, text):
        # The handle belongs to load_pool's `with`; np.loadtxt's wrapper must not close it.
        path = tmp_path / "pool.csv"
        path.write_bytes(text)
        with open(path, "rb") as fh:
            with contextlib.suppress(SchemaMismatch):
                datapool._loadtxt_pool(path, fh, 2)
            assert not fh.closed
            fh.seek(0)
            assert fh.read() == text

    def test_reader_checks_its_tables(self, kernel):
        assert csv_reader(None) is None
        read = csv_reader(kernel)
        assert read(b"1,2\r\n3,4\n", np.empty((1, 2))) == 2
        assert read(b"1,2\n3", np.empty((2, 2))) is None
        read_only = np.empty((2, 2))
        read_only.setflags(write=False)
        for table in (np.empty((2, 0)), np.empty((2, 4))[:, :2], np.empty(4),
                      np.empty((2, 2), dtype=np.float32), read_only):
            with pytest.raises(ValueError):
                read(b"1,2\n", table)

    def test_mutant_reader_fails_the_self_check(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = native._SOURCE.read_text()
        check = native._parse_check
        mutations = [
            # The rounding carry out of the largest subnormal is lost.
            ("        ++exponent;", "        ;"),
            # Ties round up instead of to even.
            ("(!trailing_zeros || ((m2 >> shift) & 1))", "1"),
        ]
        for i, (old, new) in enumerate(mutations):
            assert source.count(old) == 1, old
            wrong = tmp_path / f"wrong-{i}.c"
            wrong.write_text(source.replace(old, new))
            monkeypatch.setattr(native, "_SOURCE", wrong)
            monkeypatch.setattr(native, "_parse_check", check)
            assert native.load_kernel() is None, new
            # The source builds and loads: the reader check is what refuses it.
            monkeypatch.setattr(native, "_parse_check", lambda kernel: True)
            assert native.load_kernel() is not None, new
