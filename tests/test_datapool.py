"""Pool loading, saving, sampling, consumption, and normalizer behavior."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dado
from dado import adam, datapool
from dado.adam import csv_formatter, native_kernel, repr_rows
from dado.datapool import (
    SAVE_CHUNK_ROWS,
    bootstrap_draw,
    consume,
    fit_normalizers,
    infer_pool_schema,
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
        pool = load_pool(path, d=2, num_obj=2)
        assert len(pool) == 3
        assert pool.available == 3
        np.testing.assert_array_equal(pool.params[1], [0.3, 0.4])
        np.testing.assert_array_equal(pool.objectives[1], [3.0, 4.0])
        np.testing.assert_array_equal(pool.feature_bounds, [[0.1, 0.5], [0.2, 0.6]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_pool(tmp_path / "nope.csv", d=2, num_obj=2)

    def test_wrong_column_count(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,p1,j0", "0.1,0.2,1.0"])
        with pytest.raises(SchemaMismatch):
            load_pool(path, d=2, num_obj=2)

    def test_nan_cell_names_the_row(self, tmp_path):
        path = write_csv(
            tmp_path / "pool.csv",
            ["p0,p1,j0,j1", "0.1,0.2,1.0,2.0", "0.3,NaN,3.0,4.0"],
        )
        with pytest.raises(NonFiniteValue, match="row 1"):
            load_pool(path, d=2, num_obj=2)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", "0.1,oops"])
        with pytest.raises(SchemaMismatch):
            load_pool(path, d=1, num_obj=1)

    @pytest.mark.parametrize(
        "rows", [["0.1,0.2", "0.3,oops"], ["0.1,0.2", "0.3"], ["0.1,0.2", "0.3,0.4,0.5"]]
    )
    def test_bad_row_is_named(self, tmp_path, rows):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", *rows])
        with pytest.raises(SchemaMismatch, match=r"row \d"):
            load_pool(path, d=1, num_obj=1)

    def test_data_rows_wider_than_header(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0", "0.1,0.2,0.3", "0.4,0.5,0.6"])
        with pytest.raises(SchemaMismatch, match="columns"):
            load_pool(path, d=1, num_obj=1)

    def test_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,j0"])
        with pytest.raises(SchemaMismatch):
            load_pool(path, d=1, num_obj=1)

    def test_ubend_shaped_file(self, tmp_path):
        # 28 parameter columns followed by 2 objective columns.
        pool = gen_synthetic_pool(20, 28, seed=5)
        path = tmp_path / "ubend_like.csv"
        save_pool(pool, path)
        loaded = load_pool(path, d=28, num_obj=2)
        assert loaded.d == 28
        assert loaded.num_obj == 2
        assert len(loaded) == 20

    def test_roundtrip_is_exact(self, tmp_path):
        pool = small_pool(n=7)
        path = tmp_path / "pool.csv"
        save_pool(pool, path)
        loaded = load_pool(path, d=pool.d, num_obj=pool.num_obj)
        np.testing.assert_array_equal(pool.params, loaded.params)
        np.testing.assert_array_equal(pool.objectives, loaded.objectives)

    def test_infer_schema(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["p0,p1,p2,j0,j1", "1,2,3,4,5"])
        assert infer_pool_schema(path) == (3, 2)

    def test_infer_schema_rejects_odd_headers(self, tmp_path):
        path = write_csv(tmp_path / "pool.csv", ["a,b,c", "1,2,3"])
        with pytest.raises(SchemaMismatch):
            infer_pool_schema(path)

    def test_pool_from_arrays_checks_shapes_and_values(self):
        with pytest.raises(SchemaMismatch):
            pool_from_arrays(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(SchemaMismatch):
            pool_from_arrays(np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(SchemaMismatch):
            pool_from_arrays(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(NonFiniteValue):
            pool_from_arrays(np.zeros((3, 2)), np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]))


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
        assert clone.params is pool.params and clone.objectives is pool.objectives

    def test_table_arrays_are_read_only(self):
        params = np.zeros((3, 2))
        pool = pool_from_arrays(params, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            pool.objectives[0, 0] = 1.0
        params[0, 0] = 1.0  # the pool holds its own copy
        assert pool.params[0, 0] == 0.0


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


def table_of(pool):
    return np.hstack([pool.params, pool.objectives])


class TestPoolWriter:
    """The C formatter writes pool CSVs byte for byte as `repr` does."""

    def test_native_rows_are_repr_rows(self, kernel):
        values = hard_floats(np.random.default_rng(16))
        whole = len(values) // 30 * 30
        for table in (values[:whole].reshape(-1, 30), values[whole:].reshape(-1, 1)):
            got = csv_formatter(kernel, table.shape[1], len(table))(table)
            assert got.splitlines() == repr_rows(table).splitlines()

    @pytest.mark.parametrize("rows", [1, 2 * SAVE_CHUNK_ROWS + 3])
    def test_save_pool_writes_the_same_bytes_on_both_paths(self, kernel, tmp_path, monkeypatch,
                                                           rows):
        pool = gen_synthetic_pool(rows, 5, seed=rows)
        chunks = []
        formatter = datapool.csv_formatter

        def counting(*args):
            run = formatter(*args)
            return lambda block: chunks.append(len(block)) or run(block)

        monkeypatch.setattr(datapool, "csv_formatter", counting)
        save_pool(pool, tmp_path / "native.csv")
        assert sum(chunks) == rows and len(chunks) == math.ceil(rows / SAVE_CHUNK_ROWS)
        monkeypatch.setattr(datapool, "csv_formatter", formatter)
        monkeypatch.setattr(datapool, "native_kernel", lambda: None)
        save_pool(pool, tmp_path / "repr.csv")
        native = (tmp_path / "native.csv").read_bytes()
        assert native == (tmp_path / "repr.csv").read_bytes()
        assert native == b"p0,p1,p2,p3,p4,j0,j1\r\n" + repr_rows(table_of(pool))

    def test_formatter_checks_its_block(self, kernel):
        run = csv_formatter(kernel, 3, 4)
        for block in (np.zeros((5, 3)), np.zeros((4, 2)), np.zeros((4, 6))[:, ::2],
                      np.zeros((4, 3), dtype=np.float32)):
            with pytest.raises(ValueError):
                run(block)
        assert csv_formatter(None, 3, 4) is None

    def test_mutant_formatter_fails_the_self_check(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = adam._SOURCE.read_text()
        check = adam._format_check
        mutations = [
            ('return put(p, ".0", 2);', "return p;"),  # integral values lose their ".0"
            ("decpt <= 16) {", "decpt <= 17) {"),  # 1e16 written positionally
            ("decpt > -4 &&", "decpt > -5 &&"),  # 1e-05 written positionally
        ]
        for i, (old, new) in enumerate(mutations):
            assert source.count(old) == 1, old
            wrong = tmp_path / f"wrong-{i}.c"
            wrong.write_text(source.replace(old, new))
            monkeypatch.setattr(adam, "_SOURCE", wrong)
            monkeypatch.setattr(adam, "_format_check", check)
            assert adam.load_kernel() is None, new
            # The source builds and loads: the formatter check is what refuses it.
            monkeypatch.setattr(adam, "_format_check", lambda kernel: True)
            assert adam.load_kernel() is not None, new

    def test_no_undefined_behaviour(self, kernel, tmp_path):
        # Ryu's shifts and 128-bit products, built with UBSan at -O3 and run on random bits.
        sanitize = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
        probe = tmp_path / "probe.c"
        probe.write_text("int probe(int x) { return x + 1; }\n")
        built = subprocess.run([shutil.which("cc"), *adam._CFLAGS, *sanitize, str(probe),
                                "-o", str(tmp_path / "probe.so")], capture_output=True)
        if built.returncode != 0:
            pytest.skip("no UBSan runtime")
        script = f"""
import sys
import numpy as np
from dado import adam
adam._CFLAGS += {sanitize!r}
kernel = adam.load_kernel()
if kernel is None:
    sys.exit("the sanitized library failed to build, load or pass its self-check")
table = np.random.default_rng(0).integers(0, 2**64, 100_000, dtype=np.uint64)
table = table.view(np.float64).reshape(-1, 25)
sys.exit(adam.csv_formatter(kernel, 25, len(table))(table) != adam.repr_rows(table))
"""
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": str(Path(dado.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "runtime error" not in done.stderr
