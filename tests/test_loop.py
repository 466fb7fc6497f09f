"""Experiment loop orchestration, determinism, and sweep aggregation."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dado import loop
from dado.errors import ConfigError, PoolExhausted
from dado.loop import (
    ScenarioConfig,
    _sweep_workers,
    derive_rng,
    derive_seed,
    run_experiment,
    run_sweep,
    stderr_of,
)
from dado.datapool import consume, initial_sample, pool_from_arrays
from dado.oracle import annotate, gen_synthetic_pool
from dado.strategies import StrategyKind
from dado.surrogate import MlpConfig, TrainConfig

FAST_MLP = MlpConfig(hidden=(8, 4))
FAST_TRAIN = TrainConfig(max_epochs=2)


def fast_scenario(strategy=StrategyKind.L2_SELECT, seed=0, name="fast", **kwargs):
    params = dict(initial_size=20, draw_size=40, aq_size=10, budget=40)
    params.update(kwargs)
    return ScenarioConfig(
        name=name, strategy=strategy, seed=seed, mlp=FAST_MLP, train=FAST_TRAIN, **params
    )


@pytest.fixture
def pool():
    return gen_synthetic_pool(300, 3, seed=17)


@pytest.fixture
def taken_ids(monkeypatch):
    """The ids each `run_experiment` call takes, one (initial ids, [acquired ids per
    iteration]) pair per call, recorded by spies on the names `dado.loop` calls."""
    runs = []

    def initial_spy(pool, size, rng):
        picked = initial_sample(pool, size, rng)
        runs.append((picked.tolist(), []))
        return picked

    def consume_spy(pool, ids):
        consume(pool, ids)
        runs[-1][1].append(np.asarray(ids).tolist())

    monkeypatch.setattr(loop, "initial_sample", initial_spy)
    monkeypatch.setattr(loop, "consume", consume_spy)
    return runs


class TestScenarioConfig:
    def test_low_budget_scenario_iterates_16_times(self):
        cfg = fast_scenario(initial_size=100, draw_size=400, aq_size=25, budget=500)
        assert cfg.n_iter == 16

    def test_high_budget_scenario_iterates_20_times(self):
        cfg = fast_scenario(initial_size=500, draw_size=2000, aq_size=50, budget=1500)
        assert cfg.n_iter == 20

    def test_budget_must_divide(self):
        with pytest.raises(ConfigError):
            fast_scenario(initial_size=100, draw_size=400, aq_size=30, budget=500)

    def test_aq_cannot_exceed_draw(self):
        with pytest.raises(ConfigError):
            fast_scenario(draw_size=10, aq_size=20, budget=60)

    def test_aq_below_two_is_rejected(self):
        # srocc over the top aq_size candidates needs at least two of them.
        with pytest.raises(ConfigError, match="aq_size"):
            fast_scenario(initial_size=20, draw_size=40, aq_size=1, budget=40)

    def test_name_with_path_separator_is_rejected(self):
        # A sweep writes each run under a directory named after its scenario.
        with pytest.raises(ConfigError, match="path separator"):
            fast_scenario(name="../../escape")

    @pytest.mark.parametrize("name", ["", "-aq10"])
    def test_empty_or_option_like_name_is_rejected(self, name):
        # Run directories named "" or "-..." are lost, or read as options by shells.
        with pytest.raises(ConfigError, match="must not be empty or start with '-'"):
            fast_scenario(name=name)

    def test_budget_must_exceed_initial(self):
        with pytest.raises(ConfigError):
            fast_scenario(initial_size=50, budget=50)


class TestRunExperiment:
    def test_structure_and_budget_accounting(self, pool, taken_ids):
        cfg = fast_scenario(initial_size=20, aq_size=10, budget=60)
        result = run_experiment(pool, cfg)
        [(initial_ids, acquired_ids)] = taken_ids
        assert len(result.records) == cfg.n_iter == 4
        for i, rec in enumerate(result.records):
            assert rec.iteration == i
            assert rec.train_set_size == cfg.initial_size + i * cfg.aq_size
            assert len(acquired_ids[i]) == cfg.aq_size
        assert np.count_nonzero(pool.consumed) == cfg.budget
        # No candidate enters the training set twice.
        all_ids = initial_ids + [i for batch in acquired_ids for i in batch]
        assert len(all_ids) == len(set(all_ids)) == cfg.budget

    def test_summary_final_matches_last_record(self, pool):
        result = run_experiment(pool, fast_scenario())
        last = result.records[-1]
        assert result.summary["intersections"]["final"] == last.intersections
        assert result.summary["rnd_mse"]["final"] == last.rnd_mse

    def test_mr_norm_is_one_at_iteration_zero(self, pool):
        result = run_experiment(pool, fast_scenario(seed=5))
        first = result.records[0]
        if first.mr_raw > (fast_scenario().aq_size + 1) / 2:
            assert first.mr_norm == 1.0

    @pytest.mark.parametrize("kind", [StrategyKind.L2_SELECT, StrategyKind.L2_REJECT])
    def test_perfect_predictor_maxes_the_metrics(self, pool, kind):
        def perfect(draw, fnorm, tnorm):
            return tnorm.transform(annotate(pool, draw))

        cfg = fast_scenario(strategy=kind, initial_size=20, aq_size=10, budget=60)
        result = run_experiment(pool, cfg, predict_override=perfect)
        for rec in result.records:
            assert rec.intersections == 1.0
            assert rec.srocc == 1.0
            assert rec.best_mse == 0.0
            assert rec.rnd_mse == 0.0

    def test_deterministic_across_runs(self, pool, taken_ids):
        cfg = fast_scenario(seed=9)
        r1 = run_experiment(pool.copy(), cfg)
        r2 = run_experiment(pool.copy(), cfg)
        [(initial1, acquired1), (initial2, acquired2)] = taken_ids
        assert acquired1 == acquired2
        assert initial1 == initial2
        for a, b in zip(r1.records, r2.records):
            assert a == b

    def test_seed_changes_the_run(self, pool, taken_ids):
        run_experiment(pool.copy(), fast_scenario(seed=1))
        run_experiment(pool.copy(), fast_scenario(seed=2))
        [(initial1, _), (initial2, _)] = taken_ids
        assert initial1 != initial2

    def test_draw_truths_never_reach_training(self, pool, taken_ids):
        """Perturbing objectives of never-acquired candidates leaves the whole
        acquisition trajectory unchanged; those truths feed metrics only."""
        cfg = fast_scenario(seed=3)
        run_experiment(pool.copy(), cfg)
        [(initial_ids, acquired_ids)] = taken_ids
        used = set(initial_ids) | {i for batch in acquired_ids for i in batch}
        unused = np.ones(len(pool), dtype=bool)
        unused[list(used)] = False
        objectives = pool.objectives.copy()
        objectives[unused] += 100.0
        run_experiment(pool_from_arrays(pool.params, objectives), cfg)
        [_, (rerun_initial, rerun_acquired)] = taken_ids
        assert rerun_initial == initial_ids
        assert rerun_acquired == acquired_ids

    def test_pool_too_small_fails_before_running(self):
        pool = gen_synthetic_pool(50, 3, seed=0)
        with pytest.raises(PoolExhausted):
            run_experiment(pool, fast_scenario())

    def test_high_budget_shape_runs_20_iterations(self):
        # 500 initial, draws of 2000, 50 acquired per loop, budget 1500.
        pool = gen_synthetic_pool(4000, 3, seed=2)
        cfg = fast_scenario(
            name="s2", initial_size=500, draw_size=2000, aq_size=50, budget=1500,
            strategy=StrategyKind.RANDOM,
        )
        cfg = ScenarioConfig(
            name=cfg.name, initial_size=cfg.initial_size, draw_size=cfg.draw_size,
            aq_size=cfg.aq_size, budget=cfg.budget, strategy=cfg.strategy,
            seed=cfg.seed, mlp=MlpConfig(hidden=(4, 2)), train=TrainConfig(max_epochs=1),
        )
        result = run_experiment(pool, cfg)
        assert len(result.records) == 20


class TestSeedDerivation:
    def test_stable_values(self):
        assert derive_seed(0, "draw", 1) == derive_seed(0, "draw", 1)

    def test_streams_are_separated(self):
        seen = {
            derive_seed(7, label, it) for label in ("draw", "train", "select") for it in range(4)
        }
        assert len(seen) == 12

    def test_rng_reproducible(self):
        a = derive_rng(3, "x").random(4)
        b = derive_rng(3, "x").random(4)
        np.testing.assert_array_equal(a, b)


class TestRunSweep:
    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        """Run sweeps serially unless a test sets more workers."""
        monkeypatch.setenv("DADO_THREADS", "1")

    def test_grid_shape_and_aggregates(self, pool):
        scenarios = [fast_scenario(name="grid")]
        strategies = list(StrategyKind)
        seeds = [0, 1]
        summary = run_sweep(pool, scenarios, strategies, seeds)
        assert len(summary.runs) == 6
        assert all(r.result is not None for r in summary.runs)
        # 3 strategies x 6 metrics.
        assert len(summary.table) == 18
        # Aggregate means equal hand-averaged per-run values.
        for row in summary.table:
            members = [
                r.result.summary[row.metric]
                for r in summary.runs
                if r.strategy == row.strategy
            ]
            assert row.auc_mean == pytest.approx(
                np.mean([m["auc"] for m in members]), abs=1e-12
            )
            assert row.final_mean == pytest.approx(
                np.mean([m["final"] for m in members]), abs=1e-12
            )

    def test_single_seed_has_zero_stderr(self, pool):
        summary = run_sweep(pool, [fast_scenario()], [StrategyKind.RANDOM], [3])
        assert all(row.auc_stderr == 0.0 for row in summary.table)

    def test_parallel_matches_serial(self, pool, monkeypatch):
        scenarios = [fast_scenario(name="par")]
        strategies = [StrategyKind.L2_SELECT, StrategyKind.RANDOM]
        serial = run_sweep(pool, scenarios, strategies, [0, 1])
        monkeypatch.setenv("DADO_THREADS", "2")
        parallel = run_sweep(pool, scenarios, strategies, [0, 1])
        for a, b in zip(serial.table, parallel.table):
            assert a == b

    def test_failures_are_recorded_not_raised(self, pool):
        bad = fast_scenario(name="too-big", initial_size=290, draw_size=40, aq_size=10, budget=330)
        summary = run_sweep(pool, [bad], [StrategyKind.RANDOM], [0])
        assert summary.runs[0].result is None
        assert "PoolExhausted" in summary.runs[0].error
        assert summary.table == []

    def test_sweep_needs_nonempty_grid(self, pool):
        with pytest.raises(ConfigError):
            run_sweep(pool, [], [StrategyKind.RANDOM], [0])

    def test_duplicate_scenario_names_rejected(self, pool):
        with pytest.raises(ConfigError):
            run_sweep(
                pool,
                [fast_scenario(name="dup"), fast_scenario(name="dup")],
                [StrategyKind.RANDOM],
                [0],
            )

    def test_fresh_pool_per_run(self, pool):
        before = pool.available
        run_sweep(pool, [fast_scenario()], [StrategyKind.RANDOM], [0, 1])
        assert pool.available == before


# Runs one grid serially and on two workers under the start method in argv[1],
# on a pool of argv[2] rows, and prints whether the tables are equal, the bytes
# the main process wrote to worker pipes during the parallel sweep (counted on
# `Connection.send_bytes`, as perfbench/tracer.py counts them), and the size
# of one pickled copy of the pool.
START_METHOD_SWEEP = """
import multiprocessing, os, pickle, sys
from multiprocessing.connection import Connection

from dado.loop import ScenarioConfig, run_sweep
from dado.oracle import gen_synthetic_pool
from dado.strategies import StrategyKind
from dado.surrogate import MlpConfig, TrainConfig

main_pid = os.getpid()
shipped = 0
send_bytes = Connection.send_bytes

def counting_send_bytes(self, buf, offset=0, size=None):
    global shipped
    if os.getpid() == main_pid:
        shipped += memoryview(buf).nbytes - offset if size is None else size
    return send_bytes(self, buf, offset, size)

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    Connection.send_bytes = counting_send_bytes
    pool = gen_synthetic_pool(int(sys.argv[2]), 3, seed=17)
    cfg = ScenarioConfig(name="start", initial_size=20, draw_size=40, aq_size=10, budget=40,
                         strategy=StrategyKind.RANDOM, seed=0, mlp=MlpConfig(hidden=(8, 4)),
                         train=TrainConfig(max_epochs=2))
    grid = ([cfg], [StrategyKind.L2_SELECT, StrategyKind.RANDOM], [0, 1])
    os.environ["DADO_THREADS"] = "1"
    serial = run_sweep(pool, *grid)
    os.environ["DADO_THREADS"] = "2"
    shipped = 0
    parallel = run_sweep(pool, *grid)
    print(parallel.table == serial.table, shipped, len(pickle.dumps(pool)))
"""


def sweep_under(method: str, rows: int) -> tuple[bool, int, int]:
    """(tables equal, bytes shipped, pickled pool bytes) of START_METHOD_SWEEP."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", START_METHOD_SWEEP, method, str(rows)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    equal, shipped, pickled = out.stdout.split()
    return equal == "True", int(shipped), int(pickled)


class TestSweepStartMethods:
    """Each worker gets the pool once, whatever the start method; jobs carry configs only."""

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_parallel_matches_serial(self, method):
        equal, _, _ = sweep_under(method, 300)
        assert equal

    def test_fork_ships_less_than_one_pool(self):
        equal, shipped, pickled = sweep_under("fork", 20_000)
        assert equal
        assert 0 < shipped < pickled


class TestSweepWorkers:
    """Without `DADO_THREADS`, a sweep starts one worker per CPU it may run on."""

    def test_default_is_the_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("DADO_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _sweep_workers() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("DADO_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _sweep_workers() == 3


class TestStderr:
    def test_single_value_is_zero(self):
        assert stderr_of([1.5]) == 0.0

    def test_matches_manual_formula(self):
        vals = [1.0, 2.0, 4.0]
        manual = np.std(vals, ddof=1) / np.sqrt(3)
        assert stderr_of(vals) == pytest.approx(manual, abs=1e-15)
