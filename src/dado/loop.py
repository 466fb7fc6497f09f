"""The iterative self-optimization loop and multi-run sweeps.

One experiment repeats: bootstrap a draw from the remaining pool, retrain the
surrogate from scratch on everything annotated so far, predict, let the
query strategy pick the acquisition batch, annotate it, score the iteration,
and fold the batch into the training set. The truths of the full draw are
looked up for metrics only and never reach the surrogate.
"""

from __future__ import annotations

import hashlib
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .datapool import CandidatePool, TargetNormalizer, bootstrap_draw, consume, initial_sample
from .errors import ConfigError, PoolExhausted
from .metrics import (
    METRIC_FIELDS,
    IterationRecord,
    auc,
    intersections,
    mean_rank,
    mse,
    normalize_mr,
    optimal_mean_rank,
    rank_array,
    srocc,
)
from .oracle import annotate
from .strategies import StrategyKind, reference_order, select
from .surrogate import MlpConfig, TrainConfig, init_model, predict_batch, train


def derive_seed(master_seed: int, label: str, iteration: int = 0) -> int:
    """Stable 64-bit sub-seed for one named random stream of one iteration."""
    digest = hashlib.sha256(f"{master_seed}:{label}:{iteration}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master_seed: int, label: str, iteration: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, label, iteration))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment's knobs: sampling sizes, budget, strategy, seed, surrogate.

    `name` is part of a sweep's run directory names, so it may not be empty,
    start with "-" (an option to a shell command) or contain a path separator
    or a NUL byte.

    `target_space` picks the space the strategies and rank metrics score in:
    "normalized" uses the z-scored targets; "raw" uses original units, which
    keeps the norm ball anchored at the true zero point and suits objectives
    that are positive quantities minimized toward zero.
    """

    name: str
    initial_size: int
    draw_size: int
    aq_size: int
    budget: int
    strategy: StrategyKind
    seed: int
    mlp: MlpConfig = MlpConfig()
    train: TrainConfig = TrainConfig()
    target_space: str = "normalized"

    def __post_init__(self):
        if not isinstance(self.strategy, StrategyKind):
            raise ConfigError(f"strategy must be a StrategyKind, got {self.strategy!r}")
        if min(self.initial_size, self.draw_size) < 1:
            raise ConfigError("initial_size and draw_size must be positive")
        if self.aq_size < 2:
            raise ConfigError("aq_size must be at least 2: srocc ranks the top aq_size candidates")
        if self.aq_size > self.draw_size:
            raise ConfigError("aq_size cannot exceed draw_size")
        if self.budget <= self.initial_size:
            raise ConfigError("budget must exceed initial_size")
        if (self.budget - self.initial_size) % self.aq_size != 0:
            raise ConfigError("budget - initial_size must be a multiple of aq_size")
        if "/" in self.name or os.sep in self.name or "\0" in self.name:
            raise ConfigError(
                f"scenario name {self.name!r} must not contain a path separator or a NUL byte")
        if not self.name or self.name.startswith("-"):
            raise ConfigError(f"scenario name {self.name!r} must not be empty or start with '-'")
        if self.target_space not in ("normalized", "raw"):
            raise ConfigError("target_space must be 'normalized' or 'raw'")

    @property
    def n_iter(self) -> int:
        return (self.budget - self.initial_size) // self.aq_size


@dataclass
class ExperimentResult:
    """One run's per-iteration records plus their AUC/final summary."""

    scenario: ScenarioConfig
    records: list[IterationRecord]
    summary: dict[str, dict[str, float]]


def _summarize(records: list[IterationRecord]) -> dict[str, dict[str, float]]:
    out = {}
    for metric in METRIC_FIELDS:
        series = [getattr(rec, metric) for rec in records]
        # A one-iteration curve has no area; its value stands in, matching the
        # normalized convention that a constant curve scores its own value.
        out[metric] = {
            "auc": auc(series) if len(series) > 1 else series[-1],
            "final": series[-1],
        }
    return out


def run_experiment(
    pool: CandidatePool,
    cfg: ScenarioConfig,
    predict_override=None,
) -> ExperimentResult:
    """Run the full loop on one pool; mutates the pool's consumption state.

    All stochastic streams (initial sample, weight init, training shuffles and
    dropout, draws, random selection) derive from the scenario seed via labeled
    sub-seeds, so a run is reproducible bit for bit.

    `predict_override(draw, tnorm) -> (n, num_obj) normalized predictions`,
    where `draw` holds the drawn pool row ids, replaces training and prediction
    entirely; it exists so tests can wire a perfect or broken predictor into an
    otherwise unchanged loop.
    """
    n_iter = cfg.n_iter
    needed = cfg.initial_size + (n_iter - 1) * cfg.aq_size + cfg.draw_size
    if needed > pool.available:
        raise PoolExhausted(
            f"scenario {cfg.name!r} needs {needed} available candidates at its last "
            f"draw, pool has {pool.available}"
        )

    train_rows = initial_sample(pool, cfg.initial_size, derive_rng(cfg.seed, "initial-sample"))
    train_targets = annotate(pool, train_rows)
    records: list[IterationRecord] = []
    mr_first = 0.0

    for i in range(n_iter):
        tnorm = TargetNormalizer.fit(train_targets)
        draw = bootstrap_draw(pool, cfg.draw_size, derive_rng(cfg.seed, "draw", i))
        if predict_override is None:
            model = init_model(cfg.mlp, pool.d, pool.num_obj, derive_seed(cfg.seed, "model-init", i))
            model, _ = train(model, pool.features(train_rows), tnorm.transform(train_targets),
                             cfg.train, derive_rng(cfg.seed, "train", i))
            preds = predict_batch(model, pool.features(draw))
        else:
            preds = np.asarray(predict_override(draw, tnorm), dtype=float)

        truths_raw = annotate(pool, draw)  # metric bookkeeping only
        truths = tnorm.transform(truths_raw)
        # Strategies and rank metrics score predictions and truths in the same
        # space; the MSE metrics always stay in the normalized space.
        if cfg.target_space == "raw":
            score_preds, score_truths = tnorm.inverse(preds), truths_raw
        else:
            score_preds, score_truths = preds, truths

        pred_order = reference_order(cfg.strategy, score_preds)
        sel_idx = select(cfg.strategy, pred_order, cfg.aq_size, derive_rng(cfg.seed, "select", i))
        ranks = rank_array(reference_order(cfg.strategy, score_truths))

        raw_mr = mean_rank(sel_idx, ranks, cfg.aq_size)
        if i == 0:
            mr_first = raw_mr
        records.append(
            IterationRecord(
                iteration=i,
                train_set_size=len(train_rows),
                intersections=intersections(sel_idx, ranks, cfg.aq_size),
                mr_raw=raw_mr,
                mr_norm=normalize_mr(raw_mr, optimal_mean_rank(cfg.aq_size), mr_first),
                srocc=srocc(pred_order, ranks, cfg.aq_size),
                best_mse=mse(preds[sel_idx], truths[sel_idx]),
                rnd_mse=mse(preds, truths),
            )
        )

        acquired = draw[sel_idx]
        consume(pool, acquired)
        train_rows = np.concatenate([train_rows, acquired])
        train_targets = np.vstack([train_targets, truths_raw[sel_idx]])

    return ExperimentResult(cfg, records, _summarize(records))


@dataclass
class AggregateRow:
    scenario: str
    aq_size: int
    strategy: str
    metric: str
    auc_mean: float
    auc_stderr: float
    final_mean: float
    final_stderr: float


# The pool a sweep's jobs run on: set once per worker process by the executor's
# initializer, so each job ships only its ScenarioConfig.
_sweep_pool: CandidatePool | None = None


def _set_sweep_pool(pool: CandidatePool) -> None:
    global _sweep_pool
    _sweep_pool = pool


def _execute_run(cfg: ScenarioConfig):
    try:
        return run_experiment(_sweep_pool.copy(), cfg), None
    except Exception as exc:  # noqa: BLE001 - a sweep isolates per-run failures
        name = type(exc).__name__
        return None, f"{name}: {exc}" if str(exc) else name


def stderr_of(values) -> float:
    """Standard error of the mean across seeds; 0 by convention for one value."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(v.std(ddof=1) / np.sqrt(v.size))


def thread_count() -> int:
    """The number of worker processes a sweep may run on.

    It is `DADO_THREADS`, a positive integer, or when that is unset or empty
    the CPUs this process may run on. Any other value raises ConfigError.
    """
    raw = os.environ.get("DADO_THREADS", "")
    if not raw:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"DADO_THREADS must be a positive integer, got {raw!r}")
    return threads


def run_sweep(pool: CandidatePool, jobs: list[ScenarioConfig]) -> list[tuple]:
    """`(result, None)` or `(None, error)` per job, in job order, each run on its own pool copy.

    A failed run does not stop the others. The jobs run on up to `DADO_THREADS`
    worker processes (default: the CPUs this process may run on), each of which
    receives the pool once and each job only its ScenarioConfig.
    """
    if not jobs:
        return []
    # Under fork the workers inherit the pool; under spawn and forkserver it is
    # pickled once per worker, never once per job. `futures` loads the process pool
    # module here, at first use, so commands that run no sweep start without it.
    with futures.ProcessPoolExecutor(min(thread_count(), len(jobs)),
                                     initializer=_set_sweep_pool, initargs=(pool,)) as executor:
        return list(executor.map(_execute_run, jobs))


def sweep_table(results) -> list[AggregateRow]:
    """Mean and standard error across seeds of each metric's AUC and final value, one row
    per scenario, strategy and metric in the order the results first name them."""
    groups: dict[tuple[str, int, str], list[dict]] = {}
    for result in results:
        sc = result.scenario
        groups.setdefault((sc.name, sc.aq_size, sc.strategy.value), []).append(result.summary)
    table: list[AggregateRow] = []
    for key, summaries in groups.items():
        for metric in METRIC_FIELDS:
            aucs, finals = ([s[metric][k] for s in summaries] for k in ("auc", "final"))
            table.append(AggregateRow(*key, metric, float(np.mean(aucs)), stderr_of(aucs),
                                      float(np.mean(finals)), stderr_of(finals)))
    return table
