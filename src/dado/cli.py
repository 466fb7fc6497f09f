"""Command-line front end: pool generation, single runs, sweeps, report emission.

Exit codes: 0 on success, 1 on runtime failure (I/O, exhausted pool, diverged
training), 2 on usage or configuration errors. All result files are plain CSV
or JSON and are byte-identical across reruns with the same inputs; wall-clock
timestamps live only in manifests.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import hashlib
import itertools
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import MISSING, asdict, astuple, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .datapool import load_pool, save_pool
from .errors import ConfigError, DadoError, MissingFile, SchemaMismatch, SizeMismatch
from .loop import (AggregateRow, ScenarioConfig, run_experiment, run_sweep, stderr_of,
                   sweep_table, thread_count)
from .metrics import METRIC_FIELDS
from .native import native_kernel
from .oracle import gen_synthetic_pool
from .strategies import StrategyKind
from .surrogate import layer_widths

ITERATIONS_HEADER = ("iter", "train_size") + METRIC_FIELDS

# Sweep list keys, each naming the scenario field it varies across the grid.
_SWEEP_AXES = {"aq_sizes": "aq_size", "strategies": "strategy", "seeds": "seed"}
# Values for the scenario fields that have no default in ScenarioConfig.
_RUN_DEFAULTS = {"name": "run", "seed": 0}


def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# The nested configs of a scenario (mlp, train); their fields are flat config keys.
_SUBCONFIGS = {name: tp for name, tp in _field_types(ScenarioConfig).items() if is_dataclass(tp)}


def _config_keys() -> dict:
    """Config key -> (the sub-config field holding it, or None; the field's type)."""
    keys = {}
    for name, tp in _field_types(ScenarioConfig).items():
        if name in _SUBCONFIGS:
            keys.update((key, (name, key_tp)) for key, key_tp in _field_types(tp).items())
        else:
            keys[name] = (None, tp)
    return keys


_CONFIG_KEYS = _config_keys()
RUN_KEYS = frozenset(_CONFIG_KEYS)
SWEEP_KEYS = RUN_KEYS.difference(_SWEEP_AXES.values()).union(_SWEEP_AXES, ["pool"])
_RUN_REQUIRED = {f.name for f in fields(ScenarioConfig) if f.default is MISSING}.difference(
    _RUN_DEFAULTS
)
_SWEEP_REQUIRED = _RUN_REQUIRED.difference(_SWEEP_AXES.values()).union(_SWEEP_AXES)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _sha256():
    """A new sha256 digest for the pool's bytes, fed as the pool is written or read."""
    return hashlib.sha256()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_csv(path, header, rows) -> None:
    """Write a result table: numbers through `_fmt`, strings as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def _read_lines(path: Path, error: type[DadoError]) -> list[str]:
    """The lines of a UTF-8 text file, less any byte-order mark; another encoding raises `error`."""
    try:
        return path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def read_iterations(path) -> dict[str, list[float]]:
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"iterations file not found: {p}")
    reader = csv.reader(_read_lines(p, SchemaMismatch))
    header = next(reader, None)
    if header is None or tuple(header) != ITERATIONS_HEADER:
        raise SchemaMismatch(f"{p}: unexpected iterations.csv header")
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
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise SchemaMismatch(
                    f"{p}:{reader.line_num}: {name} is not a finite number: {cell!r}")
            columns[name].append(value)
    if not columns["iter"]:
        raise SchemaMismatch(f"{p}: no iteration rows")
    return columns


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {**asdict(cfg), "strategy": cfg.strategy.value, "n_iter": cfg.n_iter}


def parse_kv_file(path) -> dict[str, str]:
    """Parse a flat `key = value` config file; # starts a comment; keys appear once."""
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"config file not found: {p}")
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(p, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{p}:{lineno}: key {key!r} repeats line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def _split(key: str, text: str) -> list[str]:
    items = [item.strip() for item in text.split(",")]
    if "" in items:
        raise ConfigError(f"{key!r} has an empty item in {text!r}")
    return items


def _convert(key: str, tp, text: str):
    if tp is StrategyKind:
        return StrategyKind.from_name(text)
    try:
        return tp(text)
    except ValueError:
        kind = "an integer" if tp is int else "a number"
        raise ConfigError(f"{key!r} must be {kind}, got {text!r}") from None


def _list(key: str, tp, text: str) -> list:
    return [_convert(key, tp, item) for item in _split(key, text)]


def _parse_value(key: str, text: str):
    """Parse one config value by the type of the field it sets.

    Comma lists give a tuple[int, ...] field and each sweep list key.
    """
    if key == "pool":
        return text
    tp = _CONFIG_KEYS[_SWEEP_AXES.get(key, key)][1]
    if key in _SWEEP_AXES:
        return _list(key, tp, text)
    if tp == tuple[int, ...]:
        return tuple(_list(key, int, text))
    return _convert(key, tp, text)


def _parse_config(kv: dict[str, str], keys, required, what: str) -> dict:
    unknown = sorted(set(kv) - keys)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {', '.join(unknown)}")
    missing = sorted(required - set(kv))
    if missing:
        raise ConfigError(f"{what} config is missing required keys: {', '.join(missing)}")
    return {key: _parse_value(key, text) for key, text in kv.items()}


def _scenario(values: dict) -> ScenarioConfig:
    """Build a scenario from parsed run config values, nesting the sub-config keys."""
    top = dict(_RUN_DEFAULTS)
    nested = {section: {} for section in _SUBCONFIGS}
    for key, value in values.items():
        section = _CONFIG_KEYS[key][0]
        (nested[section] if section else top)[key] = value
    return ScenarioConfig(
        **top, **{section: cls(**nested[section]) for section, cls in _SUBCONFIGS.items()}
    )


def _load_pool_auto(path):
    """Load a pool CSV whose schema comes from its header.

    Returns the pool and its manifest entry. The file is opened once and
    hashed as it is read, so every manifest of the command names the bytes
    loaded.
    """
    digest = _sha256()
    pool = load_pool(path, digest=digest)
    return pool, {"path": str(path), "sha256": digest.hexdigest(), "d": pool.d,
                  "num_obj": pool.num_obj}


def _blas() -> dict:
    """The BLAS numpy was built with, and the kernel OpenBLAS picked for this CPU;
    "unknown" for what this numpy does not say."""
    built = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (AttributeError, OSError):
        core = "unknown"
    return {"name": built.get("name", "unknown"), "version": built.get("version", "unknown"),
            "core": core}


def _write_run_outputs(out_dir: Path, pool_entry: dict, result) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "iterations.csv", ITERATIONS_HEADER, map(astuple, result.records))
    _write_json(out_dir / "summary.json", result.summary)
    manifest = {
        "tool": "dado",
        "version": __version__,
        "created_utc": _utc_now(),
        "pool": pool_entry,
        "config": scenario_to_dict(result.scenario),
        "train_step": "numpy" if native_kernel() is None else "native",
        "numpy": np.__version__,
        "blas": _blas(),
        "outputs": {"iterations": "iterations.csv", "summary": "summary.json"},
    }
    _write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_pool(args) -> int:
    anchors = [None if text is None else _list(f"anchor-{ab}", float, text)
               for ab, text in (("a", args.anchor_a), ("b", args.anchor_b))]
    pool = gen_synthetic_pool(args.n, args.d, args.seed, *anchors)
    digest = _sha256()
    save_pool(pool, args.out, digest=digest)
    print(
        f"wrote {args.out}: n={len(pool)} d={pool.d} num_obj={pool.num_obj} "
        f"sha256={digest.hexdigest()}"
    )
    return 0


def _check_out_dir(path: Path) -> None:
    """Raise the OSError that creating directory `path` would raise when it, or its
    nearest existing ancestor, is not a directory; create nothing."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(path))


def cmd_run(args) -> int:
    cfg = _scenario(_parse_config(parse_kv_file(args.config), RUN_KEYS, _RUN_REQUIRED, "run"))
    _check_out_dir(Path(args.out_dir))
    pool, pool_entry = _load_pool_auto(args.pool)
    result = run_experiment(pool, cfg)
    _write_run_outputs(Path(args.out_dir), pool_entry, result)
    print(f"run {cfg.name!r} complete: {cfg.n_iter} iterations, outputs in {args.out_dir}")
    return 0


def _run_name(cfg: ScenarioConfig) -> str:
    """A sweep job's run directory name."""
    return f"{cfg.name}-{cfg.strategy.value}-seed{cfg.seed}"


def _sweep_plan(kv: dict, config_dir: Path, pool_flag) -> tuple[Path, list[ScenarioConfig]]:
    """The pool path and every job of the aq size x strategy x seed grid, in that order."""
    values = _parse_config(kv, SWEEP_KEYS, _SWEEP_REQUIRED, "sweep")
    if pool_flag:
        pool_path = Path(pool_flag)
    elif "pool" in values:
        raw = Path(values["pool"])
        pool_path = raw if raw.is_absolute() else config_dir / raw
    else:
        raise ConfigError("sweep needs a pool: pass --pool or set 'pool' in the config")
    values.pop("pool", None)
    axes = [values.pop(key) for key in _SWEEP_AXES]
    for key, axis in zip(_SWEEP_AXES, axes):
        if len(set(axis)) != len(axis):
            raise ConfigError(f"{key} must be unique within a sweep")
    base_name = values.pop("name", "scenario")
    jobs = [_scenario({**values, "name": f"{base_name}-aq{aq}", "aq_size": aq, "strategy": st,
                       "seed": sd}) for aq, st, sd in itertools.product(*axes)]
    for name in map(_run_name, jobs):
        if len(name.encode("utf-8")) > 255:
            raise ConfigError(f"run directory name {name!r} is longer than 255 UTF-8 bytes")
    return pool_path, jobs


def cmd_sweep(args) -> int:
    thread_count()  # a bad DADO_THREADS exits before any file is opened
    kv = parse_kv_file(args.config)
    pool_path, jobs = _sweep_plan(kv, Path(args.config).parent, args.pool)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir)
    pool, pool_entry = _load_pool_auto(pool_path)
    # init_model's check of the sweep's one mlp, made before any job runs rather than in each
    layer_widths(jobs[0].mlp, pool.d, pool.num_obj)
    outcomes = run_sweep(pool, jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs, failures = [], []
    for cfg, (result, error) in zip(jobs, outcomes):
        if result is None:
            failures.append({"run": _run_name(cfg), "error": error})
            continue
        run_dir = out_dir / "runs" / _run_name(cfg)
        _write_run_outputs(run_dir, pool_entry, result)
        run_dirs.append(str(run_dir.relative_to(out_dir)))
    _write_csv(out_dir / "table.csv", [f.name for f in fields(AggregateRow)],
               map(astuple, sweep_table(r for r, _ in outcomes if r is not None)))
    # The grid's axes hold no repeats, so each is its values in first-seen job order.
    scenarios = {cfg.aq_size: {k: v for k, v in scenario_to_dict(cfg).items()
                               if k not in ("strategy", "seed")} for cfg in jobs}
    _write_json(
        out_dir / "manifest.json",
        {
            "tool": "dado",
            "version": __version__,
            "created_utc": _utc_now(),
            "pool": {"path": pool_entry["path"], "sha256": pool_entry["sha256"]},
            "grid": {
                "scenarios": list(scenarios.values()),
                "strategies": list(dict.fromkeys(cfg.strategy.value for cfg in jobs)),
                "seeds": list(dict.fromkeys(cfg.seed for cfg in jobs)),
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
            with open(manifest_path, encoding="utf-8-sig") as fh:
                strategy = json.load(fh)["config"]["strategy"]
            if not isinstance(strategy, str):
                raise TypeError(strategy)
        except (ValueError, KeyError, TypeError):
            raise SchemaMismatch(
                f"{manifest_path}: not a run manifest with a config.strategy name") from None
        columns = read_iterations(run_path / "iterations.csv")
        series = columns[metric]
        if n_iter is None:
            n_iter = len(series)
        elif len(series) != n_iter:
            raise SizeMismatch(
                f"{run_path}: has {len(series)} iterations, other runs have {n_iter}"
            )
        by_strategy.setdefault(strategy, []).append(series)

    rows = []
    for strategy in sorted(by_strategy):
        stacked = np.asarray(by_strategy[strategy])
        rows += [(i, strategy, col.mean(), stderr_of(col)) for i, col in enumerate(stacked.T)]
    _write_csv(args.out, ("iteration", "strategy", "mean", "stderr"), rows)
    print(f"report for {metric!r}: {len(by_strategy)} strategies x {n_iter} iterations -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dado",
        description="Pool-based active-learning experiments for multi-objective design optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-pool", help="write a synthetic annotated pool CSV")
    gen.add_argument("--kind", choices=["analytic"], default="analytic",
                     help="pool family; analytic is the only one")
    gen.add_argument("--n", type=int, required=True, help="number of candidates")
    gen.add_argument("--d", type=int, required=True, help="parameter dimensions")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--anchor-a",
                     help="first analytic anchor (default 0.25,...); "
                          "write a negative entry as --anchor-a=-0.1,0.2")
    gen.add_argument("--anchor-b",
                     help="second analytic anchor (default 0.75,...); "
                          "write a negative entry as --anchor-b=-0.1,0.2")
    gen.set_defaults(func=cmd_gen_pool)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("--pool", required=True)
    run.add_argument("--config", required=True, help="key = value run config file")
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
    except (DadoError, OSError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
