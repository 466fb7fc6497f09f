"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 are property-based and fast. Criteria 6-9 evaluate a desk-scale
reproduction study (synthetic pool, n=10,000, d=28, the low-budget scenario
shape, 5 seeds) that runs once as a shared fixture; it is marked `slow`.
Criterion 10 runs only when a real U-Bend pool CSV is supplied via the
DADO_UBEND_POOL environment variable.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dado.cli import main as cli_main
from dado.datapool import load_pool
from dado.loop import ScenarioConfig, run_experiment, run_sweep
from dado.metrics import (
    auc,
    intersections,
    mean_rank,
    optimal_mean_rank,
    srocc,
)
from dado.oracle import annotate, gen_synthetic_pool
from dado.strategies import StrategyKind, select
from dado.surrogate import MlpConfig, TrainConfig, init_model
from gradcheck import grad_check

# Desk-study configuration. The anchor layout gives the pool ten dimensions of
# shared descent, six genuine trade-off dimensions, and twelve inert ones, so
# the objectives are dominated by structure the surrogate can learn at
# low-budget sample sizes. Strategies score in raw target space: both
# objectives are nonnegative quantities minimized toward zero, which anchors
# the norm ball at the true best point.
DESK_POOL_N = 10_000
DESK_POOL_D = 28
DESK_POOL_SEED = 2024
DESK_SEEDS = [0, 1, 2, 3, 4]
DESK_TRAIN = TrainConfig(max_epochs=70)
DESK_SPACE = "raw"


def desk_anchors():
    a = np.full(DESK_POOL_D, 0.5)
    b = np.full(DESK_POOL_D, 0.5)
    a[:10] = 0.0
    b[:10] = 0.0
    a[10:16] = 0.0
    b[10:16] = 1.0
    return a, b


def report(cid, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


class TestCriterion1:
    def test_strategy_brute_force_equivalence(self):
        """select() must equal exhaustive-sort oracles exactly, at scale."""
        rng = np.random.default_rng(11)
        start = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(2, 2001))
            aq = int(rng.integers(1, n + 1))
            num_obj = int(rng.integers(2, 4))
            ys = rng.normal(size=(n, num_obj))

            norms = np.linalg.norm(ys, axis=1)
            order = sorted(range(n), key=lambda i: (norms[i], i))
            expected_l2s = set(order[:aq])
            got_l2s = set(select(StrategyKind.L2_SELECT, ys, aq))
            assert got_l2s == expected_l2s

            dists = np.linalg.norm(ys - ys.max(axis=0), axis=1)
            order = sorted(range(n), key=lambda i: (dists[i], i))
            expected_l2r = set(range(n)) - set(order[: n - aq])
            got_l2r = set(select(StrategyKind.L2_REJECT, ys, aq))
            assert got_l2r == expected_l2r
        elapsed = time.monotonic() - start
        report(1, elapsed < 10.0, f"100 draws exactly matched both oracles in {elapsed:.2f}s")


class TestCriterion2:
    def test_gradient_check(self):
        """Backprop vs central differences over 10 random model/sample pairs."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(10):
            input_dim, output_dim = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            cfg = MlpConfig(hidden=(int(rng.integers(3, 10)), int(rng.integers(2, 7))))
            model = init_model(cfg, input_dim, output_dim, seed=1000 + trial)
            sample = (rng.random(input_dim), rng.normal(size=output_dim))
            worst = max(worst, grad_check(model, sample, eps=1e-5))
        report(2, worst < 1e-4, f"max relative gradient error {worst:.3e} < 1e-4")


class TestCriterion3:
    def test_metric_unit_suite(self):
        tol = 1e-12
        checks = []
        checks.append(abs(intersections({1, 2, 3}, {1, 2, 3}, 3) - 1.0) <= tol)
        order = list(range(40))
        checks.append(abs(mean_rank(order[:5], order, 5) - optimal_mean_rank(5)) <= tol)
        checks.append(abs(srocc(order[:6], order, 6) - 1.0) <= tol)
        checks.append(abs(srocc(list(reversed(order[:6])), order, 6) + 1.0) <= tol)
        swapped = [10, 12, 11, 13]  # selected true ranks (1, 3, 2)
        checks.append(abs(srocc([10, 11, 12], swapped, 3) - 0.5) <= tol)
        checks.append(abs(auc([0.25] * 16) - 0.25) <= tol)
        report(3, all(checks), f"{sum(checks)}/{len(checks)} metric identities exact")


class TestCriterion4:
    @pytest.mark.parametrize("kind", [StrategyKind.L2_SELECT, StrategyKind.L2_REJECT])
    def test_perfect_surrogate_end_to_end(self, kind):
        pool = gen_synthetic_pool(1200, 6, seed=33)

        def perfect(draw, fnorm, tnorm):
            return tnorm.transform(annotate(pool, draw))

        cfg = ScenarioConfig(
            "perfect",
            initial_size=100,
            draw_size=400,
            aq_size=25,
            budget=500,
            strategy=kind,
            seed=5,
        )
        result = run_experiment(pool, cfg, predict_override=perfect)
        records = result.records
        ok = all(
            r.intersections == 1.0 and r.srocc == 1.0 and r.best_mse == 0.0 and r.rnd_mse == 0.0
            for r in records
        )
        report(
            4,
            ok,
            f"{kind.value}: intersections=srocc=1 and both MSEs=0 at all {len(records)} iterations",
        )


class TestCriterion5:
    def test_run_command_is_byte_deterministic(self, tmp_path):
        pool_path = tmp_path / "pool.csv"
        assert (
            cli_main(
                ["gen-pool", "--kind", "analytic", "--n", "400", "--d", "4",
                 "--seed", "3", "--out", str(pool_path)]
            )
            == 0
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "strategy = l2-select\ninitial_size = 30\ndraw_size = 60\n"
            "aq_size = 10\nbudget = 60\nseed = 9\nhidden = 8,4\nmax_epochs = 3\n"
        )
        outputs = []
        for run_dir in (tmp_path / "r1", tmp_path / "r2"):
            assert (
                cli_main(
                    ["run", "--pool", str(pool_path), "--config", str(cfg),
                     "--out-dir", str(run_dir)]
                )
                == 0
            )
            outputs.append((run_dir / "iterations.csv").read_bytes())
        report(5, outputs[0] == outputs[1], "two runs produced identical iterations.csv bytes")


@pytest.fixture(scope="module")
def desk_study():
    """The 25-run reproduction study shared by criteria 6 through 9."""
    a, b = desk_anchors()
    pool = gen_synthetic_pool(DESK_POOL_N, DESK_POOL_D, seed=DESK_POOL_SEED,
                              anchor_a=a, anchor_b=b)

    def scenario(aq):
        return ScenarioConfig(
            f"s1-aq{aq}",
            initial_size=100,
            draw_size=400,
            aq_size=aq,
            budget=500,
            strategy=StrategyKind.RANDOM,
            seed=0,
            train=DESK_TRAIN,
            target_space=DESK_SPACE,
        )

    random_sweep = run_sweep(
        pool, [scenario(10), scenario(50)], [StrategyKind.RANDOM], DESK_SEEDS
    )
    tri_sweep = run_sweep(pool, [scenario(25)], list(StrategyKind), DESK_SEEDS)
    failed = [r for r in (random_sweep.runs + tri_sweep.runs) if r.result is None]
    assert not failed, f"desk-study runs failed: {[r.error for r in failed]}"
    return {"random": random_sweep, "tri": tri_sweep}


def _auc_mean(sweep, scenario, strategy, metric):
    for row in sweep.table:
        if row.scenario == scenario and row.strategy == strategy and row.metric == metric:
            return row.auc_mean
    raise KeyError((scenario, strategy, metric))


def _curve_point_mean(sweep, strategy, metric, position):
    values = [
        getattr(r.result.records[position], metric)
        for r in sweep.runs
        if r.strategy == strategy and r.result is not None
    ]
    return float(np.mean(values))


@pytest.mark.slow
class TestDeskScaleReproduction:
    def test_criterion_6_random_baseline_calibration(self, desk_study):
        details = []
        ok = True
        for aq, sweep in ((10, desk_study["random"]), (25, desk_study["tri"]),
                          (50, desk_study["random"])):
            got = _auc_mean(sweep, f"s1-aq{aq}", "random", "intersections")
            expected = aq / 400
            ok = ok and abs(got - expected) <= 0.03
            details.append(f"aq{aq}: {got:.3f} vs {expected:.4f}")
        report(6, ok, "random intersections AUC within 0.03 of aq/draw (" + "; ".join(details) + ")")

    def test_criterion_7_strategy_ordering(self, desk_study):
        sweep = desk_study["tri"]
        details = []
        ok = True
        for metric in ("intersections", "srocc"):
            l2s = _auc_mean(sweep, "s1-aq25", "l2-select", metric)
            l2r = _auc_mean(sweep, "s1-aq25", "l2-reject", metric)
            rnd = _auc_mean(sweep, "s1-aq25", "random", metric)
            ok = ok and l2s > rnd and l2r > rnd and l2s >= l2r - 0.02
            details.append(f"{metric}: L2S={l2s:.3f} L2R={l2r:.3f} random={rnd:.3f}")
        report(7, ok, "L2S >= L2R - 0.02 and both above random (" + "; ".join(details) + ")")

    def test_criterion_8_mse_bias_pattern(self, desk_study):
        sweep = desk_study["tri"]
        rnd_mses = {
            st: _auc_mean(sweep, "s1-aq25", st, "rnd_mse")
            for st in ("l2-select", "l2-reject", "random")
        }
        best_mses = {
            st: _auc_mean(sweep, "s1-aq25", st, "best_mse")
            for st in ("l2-select", "l2-reject", "random")
        }
        random_generalizes_best = (
            rnd_mses["random"] < rnd_mses["l2-select"]
            and rnd_mses["random"] < rnd_mses["l2-reject"]
        )
        strategies_predict_their_picks_best = (
            best_mses["l2-select"] < best_mses["random"]
            and best_mses["l2-reject"] < best_mses["random"]
        )
        detail = (
            f"rnd_MSE AUC: random={rnd_mses['random']:.3f} L2S={rnd_mses['l2-select']:.3f} "
            f"L2R={rnd_mses['l2-reject']:.3f}; best_MSE AUC: random={best_mses['random']:.3f} "
            f"L2S={best_mses['l2-select']:.3f} L2R={best_mses['l2-reject']:.3f}"
        )
        report(8, random_generalizes_best and strategies_predict_their_picks_best, detail)

    def test_criterion_9_learning_curve_direction(self, desk_study):
        sweep = desk_study["tri"]
        details = []
        ok = True
        for st in ("l2-select", "l2-reject"):
            inter_up = _curve_point_mean(sweep, st, "intersections", -1) > _curve_point_mean(
                sweep, st, "intersections", 0
            )
            srocc_up = _curve_point_mean(sweep, st, "srocc", -1) > _curve_point_mean(
                sweep, st, "srocc", 0
            )
            mse_down = _curve_point_mean(sweep, st, "best_mse", -1) < _curve_point_mean(
                sweep, st, "best_mse", 0
            )
            ok = ok and inter_up and srocc_up and mse_down
            details.append(
                f"{st}: intersections{'+' if inter_up else '-'} "
                f"srocc{'+' if srocc_up else '-'} best_mse{'+' if mse_down else '-'}"
            )
        report(9, ok, "; ".join(details))


UBEND_POOL = os.environ.get("DADO_UBEND_POOL", "")


@pytest.mark.slow
@pytest.mark.skipif(
    not UBEND_POOL,
    reason="set DADO_UBEND_POOL to a U-Bend pool CSV with a p*,...,j* header to enable",
)
class TestConditionalUBend:
    def test_low_budget_final_values(self):
        pool_template = load_pool(UBEND_POOL)
        scenario = ScenarioConfig(
            "ubend-aq25",
            initial_size=100,
            draw_size=400,
            aq_size=25,
            budget=500,
            strategy=StrategyKind.L2_SELECT,
            seed=0,
            train=TrainConfig(),
        )
        sweep = run_sweep(pool_template, [scenario], [StrategyKind.L2_SELECT], DESK_SEEDS)
        finals_inter = [
            r.result.summary["intersections"]["final"] for r in sweep.runs if r.result
        ]
        finals_srocc = [r.result.summary["srocc"]["final"] for r in sweep.runs if r.result]
        inter = float(np.mean(finals_inter))
        rho = float(np.mean(finals_srocc))
        ok = abs(inter - 0.592) <= 0.15 and abs(rho - 0.668) <= 0.15
        report("ubend", ok, f"final intersections={inter:.3f} (0.592 +/- 0.15), srocc={rho:.3f} (0.668 +/- 0.15)")
