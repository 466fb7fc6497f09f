"""Command-line front end: pool generation, single runs, sweeps, report emission.

Exit codes: 0 on success, 1 on runtime failure (I/O, exhausted pool, diverged
training), 2 on usage or configuration errors. All result files are plain CSV
or JSON and are byte-identical across reruns with the same inputs; wall-clock
timestamps live only in manifests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .adam import native_kernel
from .datapool import infer_pool_schema, load_pool, save_pool
from .errors import ConfigError, DadoError, MissingFile, SchemaMismatch, SizeMismatch
from .loop import ScenarioConfig, run_experiment, run_sweep, stderr_of
from .metrics import METRIC_FIELDS, LearningCurve
from .oracle import SyntheticPoolSpec, gen_synthetic_pool
from .strategies import StrategyKind
from .surrogate import MlpConfig, TrainConfig

ITERATIONS_HEADER = ("iter", "train_size") + METRIC_FIELDS

_TRAIN_KEYS = ("learning_rate", "batch_size", "patience", "max_epochs")
_MLP_KEYS = ("hidden", "dropout_rate", "leaky_slope")
_RUN_KEYS = (
    "name",
    "strategy",
    "initial_size",
    "draw_size",
    "aq_size",
    "budget",
    "seed",
    "target_space",
)
_SWEEP_KEYS = (
    "pool",
    "name",
    "initial_size",
    "draw_size",
    "budget",
    "aq_sizes",
    "strategies",
    "seeds",
    "target_space",
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_iterations(path, curve: LearningCurve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ITERATIONS_HEADER)
        for rec in curve.records:
            writer.writerow(
                [
                    rec.iteration,
                    rec.train_set_size,
                    _fmt(rec.intersections),
                    _fmt(rec.mr_raw),
                    _fmt(rec.mr_norm),
                    _fmt(rec.srocc),
                    _fmt(rec.best_mse),
                    _fmt(rec.rnd_mse),
                ]
            )


def read_iterations(path) -> dict[str, list[float]]:
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"iterations file not found: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != ITERATIONS_HEADER:
            raise SizeMismatch(f"{p}: unexpected iterations.csv header")
        columns: dict[str, list[float]] = {name: [] for name in ITERATIONS_HEADER}
        for row in reader:
            if not row:
                continue
            if len(row) != len(ITERATIONS_HEADER):
                raise SchemaMismatch(
                    f"{p}:{reader.line_num}: expected {len(ITERATIONS_HEADER)} cells, got {len(row)}"
                )
            for name, cell in zip(ITERATIONS_HEADER, row):
                try:
                    columns[name].append(float(cell))
                except ValueError:
                    raise SchemaMismatch(
                        f"{p}:{reader.line_num}: {name} is not a number: {cell!r}"
                    ) from None
    return columns


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = {
        "name": cfg.name,
        "strategy": cfg.strategy.value,
        "initial_size": cfg.initial_size,
        "draw_size": cfg.draw_size,
        "aq_size": cfg.aq_size,
        "budget": cfg.budget,
        "seed": cfg.seed,
        "n_iter": cfg.n_iter,
        "target_space": cfg.target_space,
        "train": asdict(cfg.train),
        "mlp": {**asdict(cfg.mlp), "hidden": list(cfg.mlp.hidden)},
    }
    return out


def parse_kv_file(path) -> dict[str, str]:
    """Parse a flat `key = value` config file; # starts a comment."""
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"config file not found: {p}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_int(kv: dict, key: str) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be an integer, got {kv[key]!r}") from None


def _parse_float(kv: dict, key: str) -> float:
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a number, got {kv[key]!r}") from None


def _parse_int_list(kv: dict, key: str) -> list[int]:
    try:
        return [int(v.strip()) for v in kv[key].split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"config key {key!r} must be comma-separated integers") from None


def _train_config_from(kv: dict) -> TrainConfig:
    kwargs = {}
    if "learning_rate" in kv:
        kwargs["learning_rate"] = _parse_float(kv, "learning_rate")
    for key in ("batch_size", "patience", "max_epochs"):
        if key in kv:
            kwargs[key] = _parse_int(kv, key)
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _mlp_config_from(kv: dict) -> MlpConfig:
    kwargs = {}
    if "hidden" in kv:
        kwargs["hidden"] = tuple(_parse_int_list(kv, "hidden"))
    if "dropout_rate" in kv:
        kwargs["dropout_rate"] = _parse_float(kv, "dropout_rate")
    if "leaky_slope" in kv:
        kwargs["leaky_slope"] = _parse_float(kv, "leaky_slope")
    try:
        return MlpConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_keys(kv: dict, allowed, what: str) -> None:
    unknown = sorted(set(kv) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {', '.join(unknown)}")


def scenario_from_mapping(kv: dict) -> ScenarioConfig:
    _check_keys(kv, _RUN_KEYS + _TRAIN_KEYS + _MLP_KEYS, "run")
    for key in ("strategy", "initial_size", "draw_size", "aq_size", "budget"):
        if key not in kv:
            raise ConfigError(f"run config is missing required key {key!r}")
    return ScenarioConfig(
        name=kv.get("name", "run"),
        initial_size=_parse_int(kv, "initial_size"),
        draw_size=_parse_int(kv, "draw_size"),
        aq_size=_parse_int(kv, "aq_size"),
        budget=_parse_int(kv, "budget"),
        strategy=StrategyKind.from_name(kv["strategy"]),
        seed=_parse_int(kv, "seed") if "seed" in kv else 0,
        mlp=_mlp_config_from(kv),
        train=_train_config_from(kv),
        target_space=kv.get("target_space", "normalized"),
    )


def _load_pool_auto(path):
    """Load a pool CSV whose schema comes from its header.

    Returns the pool and its manifest entry; the file is hashed once, right
    after it is read, so every manifest of the command names the bytes loaded.
    """
    d, num_obj = infer_pool_schema(path)
    pool = load_pool(path, d, num_obj)
    return pool, {"path": str(path), "sha256": _sha256(path), "d": d, "num_obj": num_obj}


def _write_run_outputs(out_dir: Path, pool_entry: dict, result) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_iterations(out_dir / "iterations.csv", result.curve)
    _write_json(out_dir / "summary.json", result.summary)
    manifest = {
        "tool": "dado",
        "version": __version__,
        "created_utc": _utc_now(),
        "pool": pool_entry,
        "config": scenario_to_dict(result.scenario),
        "adam": "numpy" if native_kernel() is None else "native",
        "outputs": {"iterations": "iterations.csv", "summary": "summary.json"},
    }
    _write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_pool(args) -> int:
    if args.kind == "gaussian":
        mean = np.asarray(args.mean if args.mean is not None else [0.0, 0.0])
        if args.cov is not None:
            k = len(mean)
            if len(args.cov) != k * k:
                raise ConfigError(f"--cov needs {k * k} row-major entries for {k} objectives")
            cov = np.asarray(args.cov).reshape(k, k)
        else:
            cov = None
        spec = SyntheticPoolSpec.gaussian(args.n, args.d, args.seed, mean=mean, cov=cov)
    else:
        for flag, vec in (("--anchor-a", args.anchor_a), ("--anchor-b", args.anchor_b)):
            if vec is not None and len(vec) != args.d:
                raise ConfigError(f"{flag} needs exactly {args.d} entries")
        spec = SyntheticPoolSpec.analytic(
            args.n, args.d, args.seed, anchor_a=args.anchor_a, anchor_b=args.anchor_b
        )
    pool = gen_synthetic_pool(spec)
    save_pool(pool, args.out)
    print(
        f"wrote {args.out}: n={len(pool)} d={pool.d} num_obj={pool.num_obj} "
        f"sha256={_sha256(args.out)}"
    )
    return 0


def cmd_run(args) -> int:
    if args.config:
        kv = parse_kv_file(args.config)
        if args.max_epochs is not None:
            kv["max_epochs"] = str(args.max_epochs)
        cfg = scenario_from_mapping(kv)
    else:
        missing = [
            flag
            for flag, value in (
                ("--strategy", args.strategy),
                ("--initial", args.initial),
                ("--draw", args.draw),
                ("--aq", args.aq),
                ("--budget", args.budget),
            )
            if value is None
        ]
        if missing:
            raise ConfigError(f"without --config these flags are required: {', '.join(missing)}")
        kv = {}
        if args.max_epochs is not None:
            kv["max_epochs"] = str(args.max_epochs)
        cfg = ScenarioConfig(
            name=args.name,
            initial_size=args.initial,
            draw_size=args.draw,
            aq_size=args.aq,
            budget=args.budget,
            strategy=StrategyKind.from_name(args.strategy),
            seed=args.seed,
            train=_train_config_from(kv),
        )
    pool, pool_entry = _load_pool_auto(args.pool)
    result = run_experiment(pool, cfg)
    _write_run_outputs(Path(args.out_dir), pool_entry, result)
    print(f"run {cfg.name!r} complete: {cfg.n_iter} iterations, outputs in {args.out_dir}")
    return 0


def _sweep_plan(kv: dict, config_dir: Path, pool_flag):
    _check_keys(kv, _SWEEP_KEYS + _TRAIN_KEYS + _MLP_KEYS, "sweep")
    for key in ("initial_size", "draw_size", "budget", "aq_sizes", "strategies", "seeds"):
        if key not in kv:
            raise ConfigError(f"sweep config is missing required key {key!r}")
    if pool_flag:
        pool_path = Path(pool_flag)
    elif "pool" in kv:
        raw = Path(kv["pool"])
        pool_path = raw if raw.is_absolute() else config_dir / raw
    else:
        raise ConfigError("sweep needs a pool: pass --pool or set 'pool' in the config")
    strategies = [StrategyKind.from_name(s.strip()) for s in kv["strategies"].split(",") if s.strip()]
    seeds = _parse_int_list(kv, "seeds")
    aq_sizes = _parse_int_list(kv, "aq_sizes")
    if not strategies or not seeds or not aq_sizes:
        raise ConfigError("aq_sizes, strategies, and seeds must all be non-empty")
    base_name = kv.get("name", "scenario")
    train_cfg = _train_config_from(kv)
    mlp_cfg = _mlp_config_from(kv)
    scenarios = [
        ScenarioConfig(
            name=f"{base_name}-aq{aq}",
            initial_size=_parse_int(kv, "initial_size"),
            draw_size=_parse_int(kv, "draw_size"),
            aq_size=aq,
            budget=_parse_int(kv, "budget"),
            strategy=strategies[0],
            seed=seeds[0],
            mlp=mlp_cfg,
            train=train_cfg,
            target_space=kv.get("target_space", "normalized"),
        )
        for aq in aq_sizes
    ]
    return pool_path, scenarios, strategies, seeds


def write_table(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "scenario",
                "aq_size",
                "strategy",
                "metric",
                "auc_mean",
                "auc_stderr",
                "final_mean",
                "final_stderr",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.scenario,
                    row.aq_size,
                    row.strategy,
                    row.metric,
                    _fmt(row.auc_mean),
                    _fmt(row.auc_stderr),
                    _fmt(row.final_mean),
                    _fmt(row.final_stderr),
                ]
            )


def cmd_sweep(args) -> int:
    kv = parse_kv_file(args.config)
    pool_path, scenarios, strategies, seeds = _sweep_plan(
        kv, Path(args.config).parent, args.pool
    )
    pool, pool_entry = _load_pool_auto(pool_path)
    summary = run_sweep(pool, scenarios, strategies, seeds)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs = []
    failures = []
    for record in summary.runs:
        run_name = f"{record.scenario}-{record.strategy}-seed{record.seed}"
        if record.result is None:
            failures.append({"run": run_name, "error": record.error})
            continue
        run_dir = out_dir / "runs" / run_name
        _write_run_outputs(run_dir, pool_entry, record.result)
        run_dirs.append(str(run_dir.relative_to(out_dir)))
    write_table(out_dir / "table.csv", summary.table)
    _write_json(
        out_dir / "manifest.json",
        {
            "tool": "dado",
            "version": __version__,
            "created_utc": _utc_now(),
            "pool": {"path": pool_entry["path"], "sha256": pool_entry["sha256"]},
            "grid": {
                "scenarios": [scenario_to_dict(sc) for sc in scenarios],
                "strategies": [st.value for st in strategies],
                "seeds": seeds,
            },
            "outputs": {"table": "table.csv", "runs": run_dirs},
            "failures": failures,
        },
    )
    for failure in failures:
        print(f"run failed: {failure['run']}: {failure['error']}", file=sys.stderr)
    print(
        f"sweep complete: {len(run_dirs)} runs ok, {len(failures)} failed, "
        f"table in {out_dir / 'table.csv'}"
    )
    return 0 if run_dirs else 1


def cmd_report(args) -> int:
    metric = args.metric
    by_strategy: dict[str, list[list[float]]] = {}
    n_iter = None
    for run_dir in args.runs:
        run_path = Path(run_dir)
        manifest_path = run_path / "manifest.json"
        if not manifest_path.is_file():
            raise MissingFile(f"no manifest.json under {run_path}")
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                strategy = json.load(fh)["config"]["strategy"]
        except (ValueError, KeyError, TypeError):
            raise SchemaMismatch(f"{manifest_path}: not a run manifest with config.strategy") from None
        columns = read_iterations(run_path / "iterations.csv")
        series = columns[metric]
        if n_iter is None:
            n_iter = len(series)
        elif len(series) != n_iter:
            raise SizeMismatch(
                f"{run_path}: has {len(series)} iterations, other runs have {n_iter}"
            )
        by_strategy.setdefault(strategy, []).append(series)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "strategy", "mean", "stderr"])
        for strategy in sorted(by_strategy):
            stacked = np.asarray(by_strategy[strategy])
            for i in range(n_iter):
                writer.writerow(
                    [
                        i,
                        strategy,
                        _fmt(float(stacked[:, i].mean())),
                        _fmt(stderr_of(stacked[:, i])),
                    ]
                )
    print(f"report for {metric!r}: {len(by_strategy)} strategies x {n_iter} iterations -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma-separated numbers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dado",
        description="Pool-based active-learning experiments for multi-objective design optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-pool", help="write a synthetic annotated pool CSV")
    gen.add_argument("--kind", choices=["gaussian", "analytic"], required=True)
    gen.add_argument("--n", type=_positive_int, required=True, help="number of candidates")
    gen.add_argument("--d", type=_positive_int, required=True, help="parameter dimensions")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--mean", type=_float_list, help="gaussian objective means (default 0,0)")
    gen.add_argument("--cov", type=_float_list, help="row-major covariance entries (default identity)")
    gen.add_argument("--anchor-a", type=_float_list, help="first analytic anchor (default 0.25,...)")
    gen.add_argument("--anchor-b", type=_float_list, help="second analytic anchor (default 0.75,...)")
    gen.set_defaults(func=cmd_gen_pool)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("--pool", required=True)
    run.add_argument("--config", help="key = value run config file")
    run.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    run.add_argument("--initial", type=_positive_int)
    run.add_argument("--draw", type=_positive_int)
    run.add_argument("--aq", type=_positive_int)
    run.add_argument("--budget", type=_positive_int)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--name", default="run")
    run.add_argument("--max-epochs", type=_positive_int, help="override the training epoch cap")
    run.add_argument("--out-dir", required=True)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a scenario x strategy x seed grid")
    sweep.add_argument("--config", required=True, help="sweep config file")
    sweep.add_argument("--pool", help="pool CSV (overrides the config's pool entry)")
    sweep.add_argument("--out-dir", required=True)
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="aggregate learning curves into plot-ready CSV")
    report.add_argument("--runs", nargs="+", required=True, help="run output directories")
    report.add_argument("--metric", required=True, choices=list(METRIC_FIELDS))
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DadoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
