"""Run one `dado` command with spans recorded around the calls into each module.

Usage: python3 perfbench/tracer.py --spans-dir DIR -- <dado arguments>

The program is not changed. Before `dado.cli.main` runs, each traced function
is replaced by a timing wrapper under the name through which the program calls
it: `dado.loop` binds `train`, `bootstrap_draw` and the others with
`from ... import`, so those names are patched in `dado.loop`, and the CLI's
names in `dado.cli`. Spans stay in memory and are written as JSON when the
command ends: the main process writes `spans-main.json`, and each sweep job
run in a worker process writes `spans-<pid>-<n>.json` before it returns.
Worker processes see the wrappers because they are forked from the patched
process; `perfbench/run.py` refuses a traced run whose worker spans are
missing.

The train step is too fine for one span per call (about 10^4 calls per
experiment), so `_loss_and_grads` and the eval-mode forward inside `train`
add their time to counters on the enclosing `surrogate.train` span instead.
Bytes the main process writes to worker pipes are counted as `ship_bytes`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing.connection
import os
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span store for one process; forked workers inherit a copy."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.counter = 0
        self.dumps = 0
        self.train_counters: dict | None = None
        self.ship_bytes = 0
        self.ship_lock = threading.Lock()

    def open(self, name: str) -> dict:
        self.counter += 1
        span = {
            "id": f"{os.getpid()}-{self.counter}",
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: Path, spans: list[dict]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "ship_bytes": self.ship_bytes, "spans": spans}, fh)


def _rows(args) -> dict:
    return {"rows": len(args[1])}


def _wrap(tracer: Tracer, owner, attr: str, name: str, attrs=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span["attrs"].update(attrs(args))
        return result

    setattr(owner, attr, wrapper)


def _wrap_train(tracer: Tracer, loop, surrogate) -> None:
    """`surrogate.train` span with fwd/bwd and epoch-eval time as counters.

    `train` calls `_loss_and_grads` and `_forward` through the globals of
    `dado.surrogate`, so those two are patched there; they only count while a
    traced `train` is running, and `_forward` only in eval mode (the per-epoch
    loss), since its train-mode calls are inside `_loss_and_grads`.
    """
    train = loop.train
    loss_and_grads = surrogate._loss_and_grads
    forward = surrogate._forward

    @functools.wraps(train)
    def train_wrapper(model, inputs, targets, cfg, rng):
        span = tracer.open("surrogate.train")
        tracer.train_counters = counters = {"fwd_bwd_s": 0.0, "epoch_eval_s": 0.0}
        cpu0 = time.process_time()
        try:
            result = train(model, inputs, targets, cfg, rng)
        finally:
            cpu = time.process_time() - cpu0
            tracer.train_counters = None
            tracer.close(span)
        log = result[1]
        epochs = len(log.losses)
        stopped_by_patience = cfg.max_epochs - 1 - log.best_epoch >= cfg.patience
        span["attrs"].update(
            counters,
            cpu_s=cpu,
            rows=len(inputs),
            epochs=epochs,
            steps=epochs * math.ceil(len(inputs) / cfg.batch_size),
            cap_hit=int(epochs == cfg.max_epochs and not stopped_by_patience),
        )
        return result

    @functools.wraps(loss_and_grads)
    def loss_and_grads_wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return loss_and_grads(*args, **kwargs)
        finally:
            if tracer.train_counters is not None:
                tracer.train_counters["fwd_bwd_s"] += time.perf_counter() - t0

    @functools.wraps(forward)
    def forward_wrapper(model, x, train_mode, rng):
        t0 = time.perf_counter()
        try:
            return forward(model, x, train_mode, rng)
        finally:
            if tracer.train_counters is not None and not train_mode:
                tracer.train_counters["epoch_eval_s"] += time.perf_counter() - t0

    loop.train = train_wrapper
    surrogate._loss_and_grads = loss_and_grads_wrapper
    surrogate._forward = forward_wrapper


def _wrap_worker_job(tracer: Tracer, loop) -> None:
    """Sweep jobs run in forked workers write their own spans before returning.

    The wrapper keeps the name `dado.loop._execute_run`, so the executor still
    pickles it by reference and the worker resolves it to this wrapper.
    """
    execute_run = loop._execute_run

    @functools.wraps(execute_run)
    def execute_run_wrapper(payload):
        mark = len(tracer.spans)
        span = tracer.open("loop.execute_run")
        try:
            return execute_run(payload)
        finally:
            tracer.close(span)
            if os.getpid() != tracer.main_pid:
                tracer.dumps += 1
                path = tracer.spans_dir / f"spans-{os.getpid()}-{tracer.dumps}.json"
                tracer.dump(path, tracer.spans[mark:])
                del tracer.spans[mark:]

    loop._execute_run = execute_run_wrapper


def _count_shipped_bytes(tracer: Tracer) -> None:
    """Count the bytes the main process writes to worker pipes (sweep payloads)."""
    conn = multiprocessing.connection.Connection
    send_bytes = conn.send_bytes

    @functools.wraps(send_bytes)
    def send_bytes_wrapper(self, buf, offset=0, size=None):
        if os.getpid() == tracer.main_pid:
            n = memoryview(buf).nbytes - offset if size is None else size
            with tracer.ship_lock:
                tracer.ship_bytes += n
        return send_bytes(self, buf, offset, size)

    conn.send_bytes = send_bytes_wrapper


def install(tracer: Tracer) -> None:
    """Patch every traced name; must run before `dado.cli.main`."""
    import dado.cli as cli
    import dado.datapool as datapool
    import dado.loop as loop
    import dado.surrogate as surrogate

    _wrap(tracer, cli, "gen_synthetic_pool", "oracle.gen_synthetic_pool")
    _wrap(tracer, cli, "save_pool", "datapool.save_pool")
    _wrap(tracer, cli, "load_pool", "datapool.load_pool")
    _wrap(tracer, cli, "run_experiment", "loop.run_experiment")
    _wrap(tracer, cli, "run_sweep", "loop.run_sweep")
    _wrap(tracer, cli, "_write_run_outputs", "cli.write_run_outputs")
    _wrap(tracer, cli, "_sha256", "cli.sha256")

    _wrap(tracer, loop, "run_experiment", "loop.run_experiment")
    _wrap(tracer, loop, "initial_sample", "datapool.initial_sample")
    _wrap(tracer, loop, "bootstrap_draw", "datapool.bootstrap_draw")
    _wrap(tracer, loop, "annotate", "oracle.annotate", _rows)
    _wrap(tracer, loop, "predict_batch", "surrogate.predict_batch", _rows)
    _wrap(tracer, loop, "select", "strategies.select")
    for fn in ("reference_order", "intersections", "mean_rank", "srocc", "mse"):
        _wrap(tracer, loop, fn, f"metrics.{fn}")
    _wrap(tracer, datapool.CandidatePool, "copy", "datapool.copy")
    _wrap_train(tracer, loop, surrogate)
    _wrap_worker_job(tracer, loop)
    _count_shipped_bytes(tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", required=True, type=Path)
    parser.add_argument("dado_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    dado_args = args.dado_args[1:] if args.dado_args[:1] == ["--"] else args.dado_args
    args.spans_dir.mkdir(parents=True, exist_ok=True)

    import dado.cli

    tracer = Tracer(args.spans_dir)
    install(tracer)
    span = tracer.open("cli.main")
    try:
        code = dado.cli.main(dado_args)
    finally:
        tracer.close(span)
        tracer.dump(args.spans_dir / "spans-main.json", tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
