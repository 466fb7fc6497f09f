"""Output checks for the benchmark, independent of any saved copy of past output.

Every check recomputes what the output must be from the workload's definition
(pool recipe, scenario sizes, metric definitions) and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

METRICS = ("intersections", "mr_raw", "mr_norm", "srocc", "best_mse", "rnd_mse")
ITERATIONS_HEADER = ["iter", "train_size", *METRICS]
TABLE_HEADER = [
    "scenario", "aq_size", "strategy", "metric",
    "auc_mean", "auc_stderr", "final_mean", "final_stderr",
]
# Many standard deviations: the random-baseline check must not fail by chance
# on any seed, yet still catches a strategy that is not uniform.
RANDOM_SIGMAS = 5.0
# The norm strategies must beat the random expectation aq/draw by this factor.
STRATEGY_MARGIN = 3.0


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def check_pool(path: Path, n: int, seed: int, anchor_a, anchor_b) -> list[str]:
    """Rebuild the analytic pool from its seed and anchors; compare with the CSV."""
    d = len(anchor_a)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    expected_header = [f"p{i}" for i in range(d)] + ["j0", "j1"]
    if header != expected_header:
        return [f"{path.name}: header {header[:3]}... is not p0..p{d - 1},j0,j1"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n, d + 2):
        return [f"{path.name}: shape {data.shape}, expected {(n, d + 2)}"]
    params = np.random.default_rng(seed).random((n, d))
    diff_a = params - np.asarray(anchor_a)
    diff_b = params - np.asarray(anchor_b)
    objectives = np.stack(
        [np.einsum("ij,ij->i", diff_a, diff_a), np.einsum("ij,ij->i", diff_b, diff_b)], axis=1
    )
    problems = []
    if not np.array_equal(data[:, :d], params):
        problems.append(f"{path.name}: parameters differ from default_rng({seed}).random")
    if not np.allclose(data[:, d:], objectives, rtol=1e-12, atol=0.0):
        problems.append(f"{path.name}: objectives are not the squared anchor distances")
    return problems


def _read_iterations(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:] if row]


def trapezoid_auc(series: list[float]) -> float:
    """Unit-spaced trapezoid area over (n - 1); one point stands for itself."""
    if len(series) == 1:
        return series[0]
    inner = sum(series[1:-1])
    return (inner + 0.5 * (series[0] + series[-1])) / (len(series) - 1)


def check_run(run_dir: Path, scenario, strategy: str, seed: int, pool_sha: str):
    """Check one run directory; returns (problems, summary read from summary.json)."""
    name = run_dir.name
    problems: list[str] = []
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    config = manifest["config"]
    if manifest["pool"]["sha256"] != pool_sha:
        problems.append(f"{name}: manifest pool sha256 does not match the pool file")
    if (config["strategy"], config["seed"]) != (strategy, seed):
        problems.append(f"{name}: manifest names {config['strategy']} seed {config['seed']}")

    header, rows = _read_iterations(run_dir / "iterations.csv")
    n_iter = (scenario.budget - scenario.initial) // scenario.aq
    if header != ITERATIONS_HEADER:
        return problems + [f"{name}: iterations.csv header {header}"], {}
    if len(rows) != n_iter or config["n_iter"] != n_iter:
        return problems + [f"{name}: {len(rows)} iterations, expected {n_iter}"], {}
    aq, draw = scenario.aq, scenario.draw
    series = {m: [row[2 + k] for row in rows] for k, m in enumerate(METRICS)}
    for i, row in enumerate(rows):
        if row[0] != i or row[1] != scenario.initial + aq * i:
            problems.append(f"{name}: row {i} has iter {row[0]}, train_size {row[1]}")
    ranges = {
        "intersections": (0.0, 1.0),
        "mr_raw": ((aq + 1) / 2, draw - (aq - 1) / 2),
        "mr_norm": (0.0, 1.0),
        "srocc": (-1.0, 1.0),
        "best_mse": (0.0, math.inf),
        "rnd_mse": (0.0, math.inf),
    }
    for metric, (lo, hi) in ranges.items():
        bad = [v for v in series[metric] if not (lo <= v <= hi and math.isfinite(v))]
        if bad:
            problems.append(f"{name}: {metric} value {bad[0]} outside [{lo}, {hi}]")
    if any(not close(v * aq, round(v * aq)) for v in series["intersections"]):
        problems.append(f"{name}: intersections are not multiples of 1/{aq}")
    if series["mr_norm"][0] != 1.0:
        problems.append(f"{name}: mr_norm is {series['mr_norm'][0]} at iteration 0, not 1")

    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    if sorted(summary) != sorted(METRICS):
        return problems + [f"{name}: summary.json metrics {sorted(summary)}"], {}
    for metric in METRICS:
        want_auc = trapezoid_auc(series[metric])
        if not close(summary[metric]["auc"], want_auc):
            problems.append(f"{name}: {metric} auc {summary[metric]['auc']} != {want_auc}")
        if summary[metric]["final"] != series[metric][-1]:
            problems.append(f"{name}: {metric} final is not the last iteration's value")
    problems += _check_strategy_property(name, strategy, summary, series, aq, draw)
    return problems, summary


def _check_strategy_property(name, strategy, summary, series, aq, draw) -> list[str]:
    """Random intersections sit near aq/draw; the norm strategies well above it.

    Random selection of aq from a draw of `draw` overlaps the true top aq by a
    hypergeometric count, so each iteration's intersections has mean aq/draw;
    the AUC's standard deviation follows from the trapezoid weights.
    """
    p = aq / draw
    got = summary["intersections"]["auc"]
    if strategy != "random":
        if got < STRATEGY_MARGIN * p:
            return [f"{name}: intersections auc {got:.4f} < {STRATEGY_MARGIN} x aq/draw {p:.4f}"]
        return []
    var_count = aq * p * (1 - p) * (draw - aq) / (draw - 1)
    n = len(series["intersections"])
    weights = [1.0] * n if n == 1 else [0.5] + [1.0] * (n - 2) + [0.5]
    norm = 1 if n == 1 else n - 1
    sigma = math.sqrt(var_count / aq**2 * sum(w * w for w in weights)) / norm
    if abs(got - p) > RANDOM_SIGMAS * sigma:
        return [f"{name}: random intersections auc {got:.4f} is not within "
                f"{RANDOM_SIGMAS} sigma ({sigma:.4f}) of aq/draw {p:.4f}"]
    return []


def _stderr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var / len(values))


def check_sweep(out_dir: Path, scenario, strategies, seeds, pool_sha: str):
    """Check a sweep directory; returns (problems, names of failed runs)."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    failed = [f["run"] for f in manifest["failures"]]
    problems: list[str] = []
    if manifest["pool"]["sha256"] != pool_sha:
        problems.append(f"{out_dir.name}: sweep manifest pool sha256 does not match the pool file")
    summaries: dict[tuple[str, int], dict] = {}
    for strategy in strategies:
        for seed in seeds:
            run_name = f"scenario-aq{scenario.aq}-{strategy}-seed{seed}"
            if run_name in failed:
                continue
            found, summary = check_run(out_dir / "runs" / run_name, scenario, strategy, seed, pool_sha)
            problems += found
            summaries[strategy, seed] = summary

    with open(out_dir / "table.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[0] != TABLE_HEADER:
        return problems + [f"{out_dir.name}: table.csv header {table[0]}"], failed
    rows = {(r[2], r[3]): r for r in table[1:] if r}
    for strategy in strategies:
        group = [summaries[strategy, s] for s in seeds if (strategy, s) in summaries]
        if not group:
            continue
        for metric in METRICS:
            row = rows.get((strategy, metric))
            if row is None:
                problems.append(f"{out_dir.name}: table.csv has no row for {strategy} {metric}")
                continue
            for k, field in enumerate(("auc", "final")):
                values = [s[metric][field] for s in group]
                mean, err = sum(values) / len(values), _stderr(values)
                if not (close(float(row[4 + 2 * k]), mean) and close(float(row[5 + 2 * k]), err)):
                    problems.append(f"{out_dir.name}: table.csv {strategy} {metric} {field} "
                                    f"mean/stderr differ from the run summaries")
    return problems, failed
