"""The iterative self-optimization loop and multi-run sweeps.

One experiment repeats: retrain the surrogate from scratch on everything
annotated so far, bootstrap a draw from the remaining pool, predict, let the
query strategy pick the acquisition batch, annotate it, score the iteration,
and fold the batch into the training set. The truths of the full draw are
looked up for metrics only and never reach the surrogate.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datapool import (
    CandidatePool,
    bootstrap_draw,
    consume,
    fit_normalizers,
    initial_sample,
)
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
    reference_order,
    srocc,
)
from .oracle import annotate
from .strategies import StrategyKind, select
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
    start with "-" (an option to a shell command) or contain a path separator.

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
        if "/" in self.name or os.sep in self.name:
            raise ConfigError(f"scenario name {self.name!r} must not contain a path separator")
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

    `predict_override(draw, fnorm, tnorm) -> (n, num_obj) normalized predictions`,
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
        fnorm, tnorm = fit_normalizers(pool, train_targets)
        if predict_override is None:
            model = init_model(cfg.mlp, pool.d, pool.num_obj, derive_seed(cfg.seed, "model-init", i))
            model, _ = train(
                model,
                fnorm.transform(pool.params[train_rows]),
                tnorm.transform(train_targets),
                cfg.train,
                derive_rng(cfg.seed, "train", i),
            )

        draw = bootstrap_draw(pool, cfg.draw_size, derive_rng(cfg.seed, "draw", i))
        if predict_override is None:
            preds = predict_batch(model, fnorm.transform(pool.params[draw]))
        else:
            preds = np.asarray(predict_override(draw, fnorm, tnorm), dtype=float)

        truths_raw = annotate(pool, draw)  # metric bookkeeping only
        truths = tnorm.transform(truths_raw)
        # Strategies and rank metrics score predictions and truths in the same
        # space; the MSE metrics always stay in the normalized space.
        if cfg.target_space == "raw":
            score_preds, score_truths = tnorm.inverse(preds), truths_raw
        else:
            score_preds, score_truths = preds, truths

        sel_idx = select(cfg.strategy, score_preds, cfg.aq_size, derive_rng(cfg.seed, "select", i))

        true_order = reference_order(score_truths, cfg.strategy)
        pred_order = reference_order(score_preds, cfg.strategy)

        raw_mr = mean_rank(sel_idx, true_order, cfg.aq_size)
        if i == 0:
            mr_first = raw_mr
        records.append(
            IterationRecord(
                iteration=i,
                train_set_size=len(train_rows),
                intersections=intersections(
                    sel_idx, true_order[: cfg.aq_size], cfg.aq_size
                ),
                mr_raw=raw_mr,
                mr_norm=normalize_mr(raw_mr, optimal_mean_rank(cfg.aq_size), mr_first),
                srocc=srocc(pred_order[: cfg.aq_size], true_order, cfg.aq_size),
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
class RunRecord:
    """One sweep cell: either a finished result or the error that stopped it."""

    scenario: str
    aq_size: int
    strategy: str
    seed: int
    result: ExperimentResult | None = None
    error: str | None = None


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


@dataclass
class SweepSummary:
    runs: list[RunRecord]
    table: list[AggregateRow] = field(default_factory=list)


# The pool a sweep's jobs run on: set once per worker process by the executor's
# initializer, so each job ships only its ScenarioConfig, and around the serial
# loop in the sweep's own process.
_sweep_pool: CandidatePool | None = None


def _set_sweep_pool(pool: CandidatePool | None) -> None:
    global _sweep_pool
    _sweep_pool = pool


def _execute_run(cfg: ScenarioConfig):
    try:
        return run_experiment(_sweep_pool.copy(), cfg), None
    except Exception as exc:  # noqa: BLE001 - a sweep isolates per-run failures
        return None, f"{type(exc).__name__}: {exc}"


def stderr_of(values) -> float:
    """Standard error of the mean across seeds; 0 by convention for one value."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(v.std(ddof=1) / np.sqrt(v.size))


def _sweep_workers() -> int:
    raw = os.environ.get("DADO_THREADS", "")
    if not raw:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"DADO_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_sweep(pool: CandidatePool, scenarios, strategies, seeds) -> SweepSummary:
    """Run the scenario x strategy x seed grid, each on a fresh pool copy.

    The runs spread over `DADO_THREADS` worker processes (default: the CPUs
    this process may run on), each of which receives the pool once and each
    job only its ScenarioConfig. Failures are recorded per run and excluded from
    aggregation instead of aborting the sweep. Aggregates are the mean and
    standard error across seeds, per scenario, strategy, and metric, for both
    AUC and final value.
    """
    scenarios = list(scenarios)
    strategies = list(strategies)
    seeds = list(seeds)
    if not scenarios or not strategies or not seeds:
        raise ConfigError("sweep needs at least one scenario, strategy, and seed")
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique within a sweep")
    for what, values in (("strategies", strategies), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{what} must be unique within a sweep")

    jobs = [
        replace(sc, strategy=st, seed=sd)
        for sc in scenarios
        for st in strategies
        for sd in seeds
    ]
    workers = _sweep_workers()
    if workers > 1 and len(jobs) > 1:
        # Under fork the workers inherit the pool; under spawn and forkserver
        # it is pickled once per worker, never once per job.
        with ProcessPoolExecutor(min(workers, len(jobs)), initializer=_set_sweep_pool,
                                 initargs=(pool,)) as executor:
            outcomes = list(executor.map(_execute_run, jobs))
    else:
        _set_sweep_pool(pool)
        try:
            outcomes = [_execute_run(cfg) for cfg in jobs]
        finally:
            _set_sweep_pool(None)

    runs = [
        RunRecord(cfg.name, cfg.aq_size, cfg.strategy.value, cfg.seed, result, error)
        for cfg, (result, error) in zip(jobs, outcomes)
    ]

    # Runs are in grid order, so the groups, and with them the table rows, are too.
    groups: dict[tuple[str, int, str], list[dict]] = {}
    for r in runs:
        if r.result is not None:
            groups.setdefault((r.scenario, r.aq_size, r.strategy), []).append(r.result.summary)
    table: list[AggregateRow] = []
    for (scenario, aq_size, strategy), summaries in groups.items():
        for metric in METRIC_FIELDS:
            aucs = [s[metric]["auc"] for s in summaries]
            finals = [s[metric]["final"] for s in summaries]
            table.append(
                AggregateRow(scenario, aq_size, strategy, metric, float(np.mean(aucs)),
                             stderr_of(aucs), float(np.mean(finals)), stderr_of(finals))
            )
    return SweepSummary(runs, table)
