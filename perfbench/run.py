"""The dado benchmark: three workloads through the `dado` CLI, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-run --seed 0 --seconds 20 --trace 0

Each run generates the workload's pool with `dado gen-pool` three times
(`setup_s` is the median), then repeats the workload's `dado run` or
`dado sweep` command in whole rounds until `--seconds` have passed, checks
every output, and prints one JSON object as the last line of standard output.
With `--trace 0` it reports the end-to-end metrics (medians over the rounds);
with `--trace 1` it alternates untraced and traced rounds (see tracer.py) and
reports the per-module metrics of the traced rounds plus the tracing overhead.
An operation is one experiment; it fails when its command exits non-zero or
the sweep manifest lists it under `failures`. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

POOL_SEED = 2024
POOL_D = 28
# The acceptance test's desk anchors: ten dimensions of shared descent, six of
# genuine trade-off, twelve inert.
ANCHOR_A = [0.0] * 16 + [0.5] * 12
ANCHOR_B = [0.0] * 10 + [1.0] * 6 + [0.5] * 12
SETUP_REPEATS = 3
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    pool_n: int
    command: str  # "run" or "sweep"
    initial: int
    draw: int
    aq: int
    budget: int
    strategies: tuple[str, ...]
    seeds_per_round: int
    max_epochs: int

    @property
    def n_iter(self) -> int:
        return (self.budget - self.initial) // self.aq

    def seeds(self, seed: int) -> list[int]:
        """Experiment seeds from the benchmark seed; seed 0 gives 0, 1, ..."""
        k = self.seeds_per_round
        return [seed * k + i for i in range(k)]

    @property
    def experiments(self) -> int:
        return len(self.strategies) * self.seeds_per_round


# max_epochs=10 equals the default patience, so early stopping cannot fire and
# every fit runs exactly 10 epochs: the work of a desk experiment is the same
# for every seed. The pool sweep trains one epoch, so pool handling, draws and
# scoring over 2000-candidate draws carry more of the run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-run", 10_000, "run", 100, 400, 25, 500, ("l2-select",), 1, 10),
        Workload("desk-sweep", 10_000, "sweep", 100, 400, 25, 500,
                 ("l2-select", "l2-reject"), 1, 10),
        Workload("pool-sweep", 50_000, "sweep", 500, 2000, 50, 1500,
                 ("random", "l2-select", "l2-reject"), 2, 1),
    )
}


@dataclass
class Timing:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed(cmd: list[str], env: dict, log_path: Path) -> Timing:
    """Run one command to completion; wall time plus rusage of it and its workers."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and its sweep workers
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        log(f"command exited {proc.returncode}: {' '.join(cmd)}\n{tail}")
    # ru_maxrss is in KiB on Linux; wait4 reports the largest of the process
    # and its reaped descendants, i.e. the largest single process.
    return Timing(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def command(args: list[str], spans_dir: Path | None = None) -> list[str]:
    """`dado <args>` as users run it, or under tracer.py when spans_dir is given."""
    if spans_dir is None:
        return [sys.executable, "-m", "dado.cli", *args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans-dir", str(spans_dir), "--", *args]


def gen_pool_args(w: Workload, pool: Path) -> list[str]:
    return [
        "gen-pool", "--kind", "analytic", "--n", str(w.pool_n), "--d", str(POOL_D),
        "--seed", str(POOL_SEED), "--out", str(pool),
        "--anchor-a", ",".join(map(str, ANCHOR_A)), "--anchor-b", ",".join(map(str, ANCHOR_B)),
    ]


def write_config(w: Workload, seed: int, path: Path) -> None:
    common = {
        "initial_size": w.initial, "draw_size": w.draw, "budget": w.budget,
        "max_epochs": w.max_epochs, "target_space": "raw",
    }
    if w.command == "run":
        keys = {"strategy": w.strategies[0], "aq_size": w.aq, "seed": w.seeds(seed)[0], **common}
    else:
        keys = {"aq_sizes": w.aq, "strategies": ", ".join(w.strategies),
                "seeds": ", ".join(map(str, w.seeds(seed))), **common}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def check_round(w: Workload, seed: int, out_dir: Path, code: int, pool_sha: str):
    """Returns (failed experiments, problems) for one round's output directory."""
    seeds = w.seeds(seed)
    try:
        if w.command == "run":
            if code != 0:
                return 1, []
            problems, _ = checks.check_run(out_dir, w, w.strategies[0], seeds[0], pool_sha)
            return 0, problems
        if not (out_dir / "manifest.json").is_file():
            return w.experiments, []
        problems, failed = checks.check_sweep(out_dir, w, w.strategies, seeds, pool_sha)
        return len(failed), problems
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return 0, [f"{out_dir.name}: unreadable output: {type(exc).__name__}: {exc}"]


def read_spans(spans_dir: Path) -> tuple[list[dict], int]:
    spans, ship = [], 0
    for path in sorted(spans_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans += payload["spans"]
        if path.name == "spans-main.json":
            ship = payload["ship_bytes"]
    return spans, ship


def layer_metrics(w: Workload, spans: list[dict], ship_bytes: int) -> dict[str, float]:
    """Per-module figures of one traced round (see README.md for the map)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for n in names for s in by_name[n])

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def attr(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    experiments = by_name["loop.run_experiment"]
    if len(experiments) != w.experiments:
        raise RuntimeError(
            f"traced round recorded {len(experiments)} experiments, expected {w.experiments}: "
            "spans from sweep workers are missing (workers must be forked from the traced process)"
        )
    child_time = defaultdict(float)
    for s in spans:
        child_time[s["parent"]] += dur(s)
    train_s = total("surrogate.train")
    fwd_bwd = attr("surrogate.train", "fwd_bwd_s")
    epoch_eval = attr("surrogate.train", "epoch_eval_s")
    steps = attr("surrogate.train", "steps")
    experiment_s = sum(dur(s) for s in experiments)
    sweep_s = total("loop.run_sweep")
    workers = min(SWEEP_WORKERS, w.experiments) if w.command == "sweep" else 1
    return {
        "surrogate.train_s": train_s,
        "surrogate.train_cpu_s": attr("surrogate.train", "cpu_s"),
        "surrogate.step_us": 1e6 * train_s / steps,
        "surrogate.fwd_bwd_s": fwd_bwd,
        "surrogate.epoch_eval_s": epoch_eval,
        "surrogate.update_s": train_s - fwd_bwd - epoch_eval,
        "surrogate.steps": steps,
        "surrogate.epochs": attr("surrogate.train", "epochs"),
        "surrogate.epoch_cap_hits": attr("surrogate.train", "cap_hit"),
        "surrogate.predict_s": total("surrogate.predict_batch"),
        "surrogate.predicted_rows": attr("surrogate.predict_batch", "rows"),
        "datapool.load_pool_s": total("datapool.load_pool"),
        "datapool.draw_s": total("datapool.initial_sample", "datapool.bootstrap_draw"),
        "datapool.draw_calls": count("datapool.initial_sample", "datapool.bootstrap_draw"),
        "datapool.pool_copy_s": total("datapool.copy"),
        "oracle.annotate_s": total("oracle.annotate"),
        "oracle.annotated_rows": attr("oracle.annotate", "rows"),
        "strategies.select_s": total("strategies.select"),
        "metrics.score_s": total(*(f"metrics.{f}" for f in
                                   ("reference_order", "intersections", "mean_rank", "srocc", "mse"))),
        "loop.experiment_s": experiment_s,
        "loop.experiments": len(experiments),
        "loop.self_s": sum(dur(s) - child_time[s["id"]] for s in experiments),
        "loop.sweep_s": sweep_s,
        "loop.sweep_efficiency": experiment_s / (workers * sweep_s) if sweep_s else 0.0,
        "loop.ship_bytes": ship_bytes,
        "cli.write_outputs_s": total("cli.write_run_outputs"),
        "cli.pool_hashes": count("cli.sha256"),
    }


UNITS = {"_s": "s", "_us": "us", "_bytes": "bytes", "_efficiency": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description="dado benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dado" / "cli.py").is_file():
        log(f"error: no dado sources under {SRC}; run from the root of a dado checkout")
        return 2
    w = WORKLOADS[args.workload]
    work = BENCH_DIR / "_work" / f"{w.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # A terminated benchmark still kills the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return bench(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["DADO_THREADS"] = str(SWEEP_WORKERS)
    log(f"{w.name}: seed {seed}, {seconds:g} s, trace {int(trace)}; "
        f"OPENBLAS_NUM_THREADS={env.get('OPENBLAS_NUM_THREADS', '(unset)')}, "
        f"DADO_THREADS={SWEEP_WORKERS}, nproc={os.cpu_count()}")

    pool = work / "pool.csv"
    setup_spans = work / "setup-spans"
    setups, hashes = [], set()
    for k in range(1 if trace else SETUP_REPEATS):
        cmd = command(gen_pool_args(w, pool), setup_spans if trace else None)
        t = timed(cmd, env, work / f"setup-{k}.log")
        if t.code != 0:
            log("error: dado gen-pool failed")
            return 1
        setups.append(t.wall_s)
        hashes.add(checks.sha256_of(pool))
    pool_sha = hashes.pop()
    problems = [] if not hashes else ["gen-pool wrote different bytes on repeated runs"]
    problems += checks.check_pool(pool, w.pool_n, POOL_SEED, ANCHOR_A, ANCHOR_B)

    config = work / "config.cfg"
    write_config(w, seed, config)
    rounds: list[tuple[Path, Timing, Path | None]] = []
    start = time.perf_counter()
    min_rounds = 2 if trace else 1  # a traced run needs an untraced and a traced round
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        k = len(rounds)
        out_dir = work / f"round-{k}"
        spans_dir = work / f"round-{k}-spans" if trace and k % 2 == 1 else None
        args = [w.command, "--pool", str(pool), "--config", str(config), "--out-dir", str(out_dir)]
        t = timed(command(args, spans_dir), env, work / f"round-{k}.log")
        rounds.append((out_dir, t, spans_dir))
        log(f"  round {k}{' traced' if spans_dir else ''}: wall {t.wall_s:.3f} s, cpu {t.cpu_s:.3f} s, "
            f"peak rss {t.peak_rss_mb:.1f} MB, exit {t.code}")

    attempted = failed = 0
    for out_dir, t, _ in rounds:
        bad, found = check_round(w, seed, out_dir, t.code, pool_sha)
        attempted += w.experiments
        failed += bad
        problems += found
    for p in problems:
        log(f"check failed: {p}")

    if trace:
        metrics = traced_metrics(w, rounds, setup_spans)
    else:
        metrics = untraced_metrics(w, rounds, setups)
    for name, m in metrics.items():
        log(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


def untraced_metrics(w: Workload, rounds, setups) -> dict:
    ok = [t for _, t, _ in rounds if t.code == 0]
    if not ok:
        raise RuntimeError("no round of the workload command succeeded")
    iterations = w.experiments * w.n_iter
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(t.wall_s for t in ok), "s"),
        "cpu_s": (statistics.median(t.cpu_s for t in ok), "s"),
        "peak_rss_mb": (statistics.median(t.peak_rss_mb for t in ok), "MB"),
        "iterations_per_s": (statistics.median(iterations / t.wall_s for t in ok), "iterations/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_metrics(w: Workload, rounds, setup_spans: Path) -> dict:
    plain = [t.wall_s for _, t, s in rounds if s is None and t.code == 0]
    per_round = []
    traced_walls = []
    for _, t, spans_dir in rounds:
        if spans_dir is None or t.code != 0:
            continue
        spans, ship = read_spans(spans_dir)
        per_round.append(layer_metrics(w, spans, ship))
        traced_walls.append(t.wall_s)
    if not plain or not per_round:
        raise RuntimeError("a traced run needs one successful untraced and one traced round")
    setup_time = defaultdict(float)
    for s in read_spans(setup_spans)[0]:
        setup_time[s["name"]] += s["end"] - s["start"]
    values = {
        "datapool.save_pool_s": setup_time["datapool.save_pool"],
        "oracle.generate_s": setup_time["oracle.gen_synthetic_pool"],
    }
    for name in per_round[0]:
        values[name] = statistics.median(r[name] for r in per_round)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}


if __name__ == "__main__":
    sys.exit(main())
