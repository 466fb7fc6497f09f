"""Command-line behavior: pool generation, runs, sweeps, reports, exit codes."""

import argparse
import builtins
import csv
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dado
from dado import cli, datapool, loop, surrogate
from dado.cli import ITERATIONS_HEADER, RUN_KEYS, SWEEP_KEYS, build_parser, main
from dado.datapool import load_pool, save_pool
from dado.errors import ConfigError, SchemaMismatch
from dado.native import native_kernel

FAST_CFG = """
# fast run settings
strategy = l2-select
initial_size = 20
draw_size = 40
aq_size = 10
budget = 40
seed = 1
hidden = 8,4
max_epochs = 2
"""

SWEEP_CFG = """
name = mini
initial_size = 20
draw_size = 40
budget = 40
aq_sizes = 10
strategies = l2-select, random
seeds = 0, 1
hidden = 8,4
max_epochs = 2
"""


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def make_pool(tmp_path, n=300, d=3, seed=17):
    path = tmp_path / "pool.csv"
    code = run_cli(
        "gen-pool", "--kind", "analytic", "--n", n, "--d", d, "--seed", seed, "--out", path
    )
    assert code == 0
    return path


class TestGenPool:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("gen-pool", "--kind", "analytic", "--n", 400, "--d", 2,
                       "--seed", 7, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 401
        assert lines[0] == "p0,p1,j0,j1"
        printed = capsys.readouterr().out
        assert "n=400" in printed
        assert f"sha256={hashlib.sha256(out.read_bytes()).hexdigest()}" in printed

    def test_same_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("gen-pool", "--kind", "analytic", "--n", 50, "--d", 2,
                           "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_n_is_a_usage_error(self, tmp_path):
        code = run_cli("gen-pool", "--kind", "analytic", "--n", 0, "--d", 2,
                       "--out", tmp_path / "x.csv")
        assert code == 2

    def test_analytic_pool_loads_back(self, tmp_path):
        path = make_pool(tmp_path, n=30, d=4)
        pool = load_pool(path)
        assert (len(pool), pool.d, pool.num_obj) == (30, 4, 2)

    def test_kind_may_be_omitted(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("gen-pool", "--kind", "analytic", "--n", 20, "--d", 2, "--out", a) == 0
        assert run_cli("gen-pool", "--n", 20, "--d", 2, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_anchor_length_mismatch(self, tmp_path):
        code = run_cli("gen-pool", "--kind", "analytic", "--n", 10, "--d", 3,
                       "--anchor-a", "0.1,0.2", "--out", tmp_path / "x.csv")
        assert code == 2

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("gen-pool", "--n", 10, "--d", 2, "--seed", -1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_anchor_in_equals_form(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("gen-pool", "--n", 10, "--d", 2, "--anchor-a=-0.1,0.2", "--out", out) == 0
        pool = load_pool(out)
        expected = ((pool.params[0] - np.array([-0.1, 0.2])) ** 2).sum()
        assert pool.objectives[0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("anchor", ["nan,0", "inf,0"])
    def test_non_finite_anchor_is_a_config_error(self, tmp_path, capsys, anchor):
        out = tmp_path / "x.csv"
        code = run_cli("gen-pool", "--n", 10, "--d", 2, "--anchor-a", anchor, "--out", out)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--anchor-a", "0.1,,0.2"),
                                             ("--anchor-b", "0.75,0.75,")])
    def test_empty_anchor_item_is_a_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        code = run_cli("gen-pool", "--n", 10, "--d", 2, flag, value, "--out", out)
        assert code == 2
        assert f"{flag[2:]!r} has an empty item" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_write_leaves_no_pool_that_loads(self, tmp_path, capsys, monkeypatch, existed):
        # The disk fills as the third 4,096-row chunk goes out: its bytes reach the file,
        # then the write fails. The pool file is as it was, and nothing else is left.
        out = tmp_path / "pool.csv"
        if existed:
            out.write_bytes(b"earlier bytes")

        class FullDisk:  # the digest is fed each text right after it is written
            writes = 0

            def update(self, text):
                self.writes += 1
                if self.writes == 4:  # the header, then chunks 1, 2 and 3
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_sha256", FullDisk)
        assert run_cli("gen-pool", "--n", 20000, "--d", 3, "--out", out) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["pool.csv"] if existed else [])
        if existed:
            assert out.read_bytes() == b"earlier bytes"

    @pytest.mark.parametrize("n, d", [(99999999999999999999, 3), (9223372036854775807, 1),
                                      (3, 99999999999999999999)])
    def test_size_numpy_cannot_index_is_a_config_error(self, tmp_path, capsys, n, d):
        out = tmp_path / "x.csv"
        assert run_cli("gen-pool", "--n", n, "--d", d, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: a synthetic pool of n={n} by d={d} is too large for numpy to index\n")
        assert not out.exists()


class TestRun:
    def test_config_file_run(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
        with open(out_dir / "iterations.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == ITERATIONS_HEADER
        assert len(rows) == 3  # header + (40 - 20) / 10 iterations
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary) == set(ITERATIONS_HEADER[2:])
        assert set(summary["srocc"]) == {"auc", "final"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["strategy"] == "l2-select"
        assert manifest["outputs"] == {
            "iterations": "iterations.csv",
            "summary": "summary.json",
        }

    def test_manifest_names_the_adam_path(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["train_step"] == ("numpy" if native_kernel() is None else "native")
        assert "adam" not in manifest and "fwd_bwd" not in manifest

    def test_manifest_names_numpy_and_its_blas(self, tmp_path, monkeypatch):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        # numpy before 1.26 does not say what it was built with.
        built = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        cores = []
        for out_dir in (tmp_path / "out", tmp_path / "no-core-name"):
            assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["numpy"] == np.__version__
            assert set(manifest["blas"]) == {"name", "version", "core"}
            assert manifest["blas"]["name"] == built.get("name", "unknown")
            assert manifest["blas"]["version"] == built.get("version", "unknown")
            cores.append(manifest["blas"]["core"])
            # A BLAS without OpenBLAS's core-name symbol.
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: types.SimpleNamespace())
        # The kernel's name itself is checked against OPENBLAS_CORETYPE in
        # TestGoldenDigests::test_run_outputs_on_fma_kernels.
        assert cores[0] and cores[1] == "unknown"

    def test_manifest_digest_is_the_pool_files_sha256(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["pool"] == {"path": str(pool), "d": 3, "num_obj": 2,
                                    "sha256": hashlib.sha256(pool.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("refused", [False, True], ids=["writer-form", "late-refused-cell"])
    def test_pool_is_opened_once_to_load_and_hash(self, tmp_path, monkeypatch, refused):
        pool = make_pool(tmp_path)
        if refused:
            # A cell outside the writer's form past the first block sends the whole
            # file through np.loadtxt, which reads it again on the same handle.
            monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 1024)
            lines = pool.read_bytes().split(b"\r\n")
            lines[250] = b"+1," + lines[250].split(b",", 1)[1]
            pool.write_bytes(b"\r\n".join(lines))
        opened = []
        for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
            original = getattr(module, name)

            def counting(file, *args, _original=original, **kwargs):
                if isinstance(file, (str, bytes, os.PathLike)) and Path(os.fsdecode(file)) == pool:
                    opened.append(file)
                return _original(file, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        loaded, entry = cli._load_pool_auto(pool)
        assert len(opened) == 1
        assert entry["sha256"] == hashlib.sha256(pool.read_bytes()).hexdigest()
        assert (len(loaded), entry["d"], entry["num_obj"]) == (300, 3, 2)
        assert (loaded.params[249, 0] == 1.0) == refused

    def test_low_budget_shape_gives_16_iterations(self, tmp_path):
        pool = make_pool(tmp_path, n=1000, d=3)
        out_dir = tmp_path / "s1"
        code = run_cli(
            "run", "--pool", pool, "--strategy", "l2-select", "--initial", 100,
            "--draw", 400, "--aq", 25, "--budget", 500, "--seed", 0,
            "--max-epochs", 2, "--out-dir", out_dir,
        )
        assert code == 0
        with open(out_dir / "iterations.csv") as fh:
            assert len(list(csv.reader(fh))) == 17  # header + 16

    def test_missing_pool_exits_1_and_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        missing = tmp_path / "absent.csv"
        code = run_cli("run", "--pool", missing, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_inline_mode_requires_all_size_flags(self, tmp_path):
        pool = make_pool(tmp_path)
        code = run_cli("run", "--pool", pool, "--strategy", "random",
                       "--out-dir", tmp_path / "o")
        assert code == 2

    def test_aq_below_two_is_a_config_error(self, tmp_path, capsys):
        pool = make_pool(tmp_path)
        code = run_cli("run", "--pool", pool, "--strategy", "l2-select", "--initial", 20,
                       "--draw", 40, "--aq", 1, "--budget", 40, "--out-dir", tmp_path / "o")
        assert code == 2
        assert "aq_size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--aq", "abc", "aq_size"), ("--initial", 0, "initial_size"),
        ("--max-epochs", 0, "max_epochs"), ("--seed", "x", "seed"),
        ("--strategy", "bogus", "strategy"),
    ])
    def test_bad_flag_value_is_a_config_error(self, tmp_path, capsys, flag, value, key):
        pool = make_pool(tmp_path)
        flags = {"--initial": 20, "--draw": 40, "--aq": 10, "--budget": 40, flag: value}
        argv = [arg for item in flags.items() for arg in item]
        code = run_cli("run", "--pool", pool, "--strategy", "l2-select", *argv,
                       "--out-dir", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_is_rejected(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG + "\nwarmup = 5\n")
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o") == 2

    def test_config_with_byte_order_mark_runs_like_the_plain_one(self, tmp_path):
        # Spreadsheet exports and older Notepad saves start a UTF-8 file with one.
        pool = make_pool(tmp_path)
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(GOLDEN_RUN_CFG, encoding=encoding)
            out_dir = tmp_path / name
            assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
        assert (tmp_path / "marked.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        for name in ("iterations.csv", "summary.json"):
            plain, marked = (tmp_path / run / name for run in ("plain", "marked"))
            assert plain.read_bytes() == marked.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", d1) == 0
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", d2) == 0
        assert (d1 / "iterations.csv").read_bytes() == (d2 / "iterations.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_flags_override_config_keys(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--seed", 5,
                       "--strategy", "random", "--out-dir", out_dir) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert (config["seed"], config["strategy"]) == (5, "random")
        assert config["mlp"]["hidden"] == [8, 4]  # the file's other keys still apply

    def test_repeated_config_key_is_a_config_error(self, tmp_path, capsys):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG + "seed = 2\n")
        code = run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        line = FAST_CFG.count("\n") + 1
        assert f"{cfg}:{line}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line",
        ["learning_rate = nan", "learning_rate = inf", "leaky_slope = nan",
         "leaky_slope = 2.0", "leaky_slope = -1"],
    )
    def test_bad_training_setting_is_a_config_error(self, tmp_path, capsys, line):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG + f"\n{line}\n")
        code = run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["8,,4", "8,4,", ",8"])
    def test_empty_hidden_item_is_a_config_error(self, tmp_path, capsys, value):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG.replace("hidden = 8,4", f"hidden = {value}"))
        code = run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert "'hidden' has an empty item" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_hidden_size_numpy_cannot_index_is_a_config_error(self, tmp_path, capsys,
                                                               monkeypatch, command):
        loads = []
        monkeypatch.setattr(cli, "load_pool", lambda *args, **kwargs: loads.append(args))
        cfg = tmp_path / "cfg"
        cfg.write_text((FAST_CFG if command == "run" else SWEEP_CFG).replace(
            "hidden = 8,4", "hidden = 99999999999999999999"))
        code = run_cli(command, "--pool", tmp_path / "pool.csv", "--config", cfg,
                       "--out-dir", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == ("error: hidden layer sizes (99999999999999999999,) "
                                           "give more weights than numpy can index\n")
        assert loads == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_hidden_unindexable_with_the_pools_widths_is_a_config_error(self, tmp_path, capsys,
                                                                        command):
        # Indexable alone, so it passes MlpConfig; not between the pool's 3 inputs and 2
        # outputs. The sweep refuses it before any job, as the run does.
        pool = make_pool(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text((FAST_CFG if command == "run" else SWEEP_CFG).replace(
            "hidden = 8,4", "hidden = 288230376151711744"))
        capsys.readouterr()
        code = run_cli(command, "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: hidden layer sizes (288230376151711744,) between 3 inputs and 2 outputs "
            "give more weights than numpy can index\n")
        assert not (tmp_path / "o").exists()

    def test_diverged_training_exits_1(self, tmp_path, capsys):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG + "\nlearning_rate = 1e300\n")
        with np.errstate(all="ignore"):
            code = run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 1
        assert "loss" in capsys.readouterr().err

    @pytest.mark.parametrize("message, shown", [("Unable to allocate 74.5 GiB",) * 2,
                                                ("", "MemoryError")], ids=["message", "bare"])
    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch, message, shown):
        # The raise stands in for an allocation too large to make, such as the
        # weights of hidden = 100000,100000.
        def init_model(*args):
            raise MemoryError(message)

        monkeypatch.setattr(loop, "init_model", init_model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        code = run_cli("run", "--pool", make_pool(tmp_path), "--config", cfg,
                       "--out-dir", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("out, error", [("file", "[Errno 17] File exists"),
                                            ("file/x", "[Errno 20] Not a directory")],
                             ids=["is-a-file", "under-a-file"])
    def test_unusable_out_dir_fails_before_the_pool_is_read(self, tmp_path, capsys,
                                                            monkeypatch, command, out, error):
        loads = []
        monkeypatch.setattr(cli, "load_pool", lambda *args, **kwargs: loads.append(args))
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg"
        cfg.write_text(FAST_CFG if command == "run" else SWEEP_CFG)
        before = sorted(tmp_path.rglob("*"))
        code = run_cli(command, "--pool", tmp_path / "pool.csv", "--config", cfg,
                       "--out-dir", tmp_path / out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}: '{tmp_path / out}'\n"
        assert loads == []
        assert sorted(tmp_path.rglob("*")) == before


class TestSweep:
    def run_sweep(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + f"\npool = {pool}\n")
        out_dir = tmp_path / "sweep-out"
        assert run_cli("sweep", "--config", cfg, "--out-dir", out_dir) == 0
        return out_dir

    def test_outputs_and_schema(self, tmp_path):
        out_dir = self.run_sweep(tmp_path)
        with open(out_dir / "table.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 1 scenario x 2 strategies x 6 metrics.
        assert len(rows) == 12
        assert set(rows[0]) == {
            "scenario", "aq_size", "strategy", "metric",
            "auc_mean", "auc_stderr", "final_mean", "final_stderr",
        }
        run_dirs = sorted((out_dir / "runs").iterdir())
        assert [d.name for d in run_dirs] == [
            "mini-aq10-l2-select-seed0", "mini-aq10-l2-select-seed1",
            "mini-aq10-random-seed0", "mini-aq10-random-seed1",
        ]

    def test_aggregates_match_per_run_summaries(self, tmp_path):
        out_dir = self.run_sweep(tmp_path)
        with open(out_dir / "table.csv") as fh:
            rows = {(r["strategy"], r["metric"]): r for r in csv.DictReader(fh)}
        for strategy in ("l2-select", "random"):
            finals = []
            for seed in (0, 1):
                summary = json.loads(
                    (out_dir / "runs" / f"mini-aq10-{strategy}-seed{seed}" / "summary.json").read_text()
                )
                finals.append(summary["srocc"]["final"])
            row = rows[(strategy, "srocc")]
            assert float(row["final_mean"]) == pytest.approx(np.mean(finals), abs=1e-12)

    def test_all_runs_failing_exits_1(self, tmp_path, capsys):
        pool = make_pool(tmp_path, n=30)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + f"\npool = {pool}\n")  # pool too small for the draws
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 1
        assert "PoolExhausted" in capsys.readouterr().err

    def test_aq_below_two_is_a_config_error(self, tmp_path, capsys):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("aq_sizes = 10", "aq_sizes = 10, 1") + f"\npool = {pool}\n")
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert "aq_size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old, new",
        [("strategies = l2-select, random", "strategies = random, random"),
         ("seeds = 0, 1", "seeds = 0, 0"),
         ("aq_sizes = 10", "aq_sizes = 10, 10")],
    )
    def test_repeated_grid_values_are_a_config_error(self, tmp_path, capsys, old, new):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace(old, new) + f"\npool = {pool}\n")
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert new.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old, new",
        [("aq_sizes = 10", "aq_sizes = 10,"),
         ("strategies = l2-select, random", "strategies = l2-select,, random"),
         ("seeds = 0, 1", "seeds = 0, 1, "),
         ("hidden = 8,4", "hidden = 8,,4")],
    )
    def test_empty_list_item_is_a_config_error(self, tmp_path, capsys, old, new):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace(old, new) + f"\npool = {pool}\n")
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{new.split(' =')[0]!r} has an empty item" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-5", "two"])
    def test_dado_threads_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch,
                                                     threads):
        pool = make_pool(tmp_path)
        monkeypatch.setenv("DADO_THREADS", threads)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + f"\npool = {pool}\n")
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 2
        assert "DADO_THREADS must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dado_threads_is_checked_before_the_pool_file(self, tmp_path, capsys, monkeypatch):
        # A missing pool would exit 1; the bad setting is found first, and nothing is written.
        monkeypatch.setenv("DADO_THREADS", "0")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + f"\npool = {tmp_path / 'missing.csv'}\n")
        assert run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "o") == 2
        assert "DADO_THREADS must be a positive integer, got '0'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    def test_only_sweep_reads_dado_threads(self, tmp_path, monkeypatch):
        # The setting counts sweep workers; the commands and calls that start none ignore it.
        monkeypatch.setenv("DADO_THREADS", "0")
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "r") == 0
        save_pool(load_pool(pool), tmp_path / "copy.csv")
        assert (tmp_path / "copy.csv").read_bytes() == pool.read_bytes()

    def test_name_with_path_separator_is_a_config_error(self, tmp_path, capsys):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("name = mini", "name = ../../esc") + f"\npool = {pool}\n")
        code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out")
        assert code == 2
        assert "path separator" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pool.csv", "sweep.cfg"]

    def test_empty_name_is_a_config_error(self, tmp_path, capsys):
        # An empty sweep name would give run directories such as "-aq10-random-seed0",
        # which shells and argparse read as an option.
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("name = mini", "name =") + f"\npool = {pool}\n")
        assert run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert "must not be empty" in capsys.readouterr().err
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(FAST_CFG)
        assert run_cli("run", "--pool", pool, "--config", run_cfg, "--name", "",
                       "--out-dir", tmp_path / "run") == 2
        assert "must not be empty" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pool.csv", "run.cfg", "sweep.cfg"]

    def test_name_with_nul_byte_is_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        # The name cannot become a directory; it must be refused before the sweep's work.
        runs = []
        monkeypatch.setattr(loop, "run_experiment", lambda *args: runs.append(args))
        monkeypatch.setenv("DADO_THREADS", "1")
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("name = mini", "name = a\0b") + f"\npool = {pool}\n")
        assert run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert "NUL byte" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, longest_ok", [("x" * 240, "x" * 234),
                                                  ("\u00e9" * 118, "\u00e9" * 117)],
                             ids=["ascii", "two-byte"])
    def test_over_long_run_name_is_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                          name, longest_ok):
        # "<name>-aq10-l2-select-seed1" would be 261 or 257 bytes; a file name has at most 255.
        runs = []
        monkeypatch.setattr(loop, "run_experiment", lambda *args: runs.append(args))
        monkeypatch.setenv("DADO_THREADS", "1")
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("name = mini", f"name = {name}") + f"\npool = {pool}\n",
                       encoding="utf-8")
        assert run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert "is longer than 255 UTF-8 bytes" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "out").exists()
        # A 234-byte name makes the longest run name 255 bytes, which passes.
        _, jobs = cli._sweep_plan(dict(cli.parse_kv_file(cfg), name=longest_ok), tmp_path, None)
        assert max(len(cli._run_name(job).encode()) for job in jobs) == 255

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched run reaches the workers only through fork")
    def test_dead_worker_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # One job kills its worker process, as a crash in C or the OOM killer would.
        run_experiment = loop.run_experiment

        def dying(pool, cfg):
            if cfg.strategy.value == "random" and cfg.seed == 1:
                os._exit(3)
            return run_experiment(pool, cfg)

        monkeypatch.setattr(loop, "run_experiment", dying)
        monkeypatch.setenv("DADO_THREADS", "2")
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + f"\npool = {pool}\n")
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("fork", force=True)
        try:
            code = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out")
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_single_seed_stderr_is_zero(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "name = solo\ninitial_size = 20\ndraw_size = 40\nbudget = 40\n"
            "aq_sizes = 10\nstrategies = random\nseeds = 5\nhidden = 8,4\n"
            f"max_epochs = 2\npool = {pool}\n"
        )
        out_dir = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out-dir", out_dir) == 0
        with open(out_dir / "table.csv") as fh:
            for row in csv.DictReader(fh):
                assert float(row["auc_stderr"]) == 0.0
                assert float(row["final_stderr"]) == 0.0


def corrupt(path, old: bytes, new: bytes):
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


class TestNonUtf8Input:
    """A text input holding a byte that is not UTF-8 ends in a documented exit code."""

    @pytest.mark.parametrize("what, code", [("run-config", 2), ("sweep-config", 2),
                                            ("pool", 1), ("pool-late-block", 1),
                                            ("iterations", 1)])
    def test_exits_with_code_and_names_the_file(self, tmp_path, capsys, monkeypatch, what, code):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "in.cfg"
        if what == "iterations":
            cfg.write_text(FAST_CFG)
            assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "r") == 0
            bad = tmp_path / "r" / "iterations.csv"
            corrupt(bad, b"\r\n0,", b"\r\n\xff0,")
            argv = ("report", "--runs", tmp_path / "r", "--metric", "srocc",
                    "--out", tmp_path / "c.csv")
        elif what.startswith("pool"):
            if what == "pool":
                corrupt(pool, b"p0", b"p\xff0")
            else:
                # The byte sits in the last of many blocks, after the C reader took the first.
                monkeypatch.setattr(datapool, "LOAD_BLOCK_BYTES", 1024)
                data = pool.read_bytes()
                cut = data.index(b"\r\n", len(data) - 512) + 2
                pool.write_bytes(data[:cut] + b"\xff" + data[cut:])
            cfg.write_text(FAST_CFG)
            bad, argv = pool, ("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        else:
            command = what.split("-")[0]
            cfg.write_bytes(
                (FAST_CFG if command == "run" else SWEEP_CFG).encode() + b"# caf\xe9\n"
            )
            bad, argv = cfg, (command, "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o")
        capsys.readouterr()
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "c.csv").exists()


class TestReport:
    def test_long_format_and_hand_averaged_means(self, tmp_path):
        sweep_dir = TestSweep().run_sweep(tmp_path)
        run_dirs = sorted((sweep_dir / "runs").iterdir())
        out = tmp_path / "curve.csv"
        assert run_cli("report", "--runs", *run_dirs, "--metric", "srocc", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 2 strategies x 2 iterations.
        assert len(rows) == 4
        # Hand-average seed curves for one strategy at iteration 0.
        values = []
        for seed in (0, 1):
            with open(sweep_dir / "runs" / f"mini-aq10-random-seed{seed}" / "iterations.csv") as fh:
                values.append(float(list(csv.DictReader(fh))[0]["srocc"]))
        reported = [
            r for r in rows if r["strategy"] == "random" and r["iteration"] == "0"
        ][0]
        assert float(reported["mean"]) == pytest.approx(np.mean(values), abs=1e-12)

    def test_inconsistent_iteration_counts_exit_1(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text(FAST_CFG)
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text(FAST_CFG.replace("budget = 40", "budget = 50"))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--pool", pool, "--config", cfg_a, "--out-dir", d1) == 0
        assert run_cli("run", "--pool", pool, "--config", cfg_b, "--out-dir", d2) == 0
        assert run_cli("report", "--runs", d1, d2, "--metric", "srocc",
                       "--out", tmp_path / "c.csv") == 1

    def test_report_takes_one_scenario_of_a_sweep(self, tmp_path, capsys):
        # Runs of different aq sizes differ in length, so the README reports one scenario.
        pool = make_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("aq_sizes = 10", "aq_sizes = 10, 20") + f"\npool = {pool}\n")
        runs = tmp_path / "sweep-out" / "runs"
        assert run_cli("sweep", "--config", cfg, "--out-dir", runs.parent) == 0
        every_run = tmp_path / "all.csv"
        assert run_cli("report", "--runs", *sorted(runs.glob("*")), "--metric", "srocc",
                       "--out", every_run) == 1
        short_run = runs / "mini-aq20-l2-select-seed0"
        assert f"{short_run}: has 1 iterations, other runs have 2" in capsys.readouterr().err
        assert not every_run.exists()
        one_scenario = tmp_path / "aq10.csv"
        assert run_cli("report", "--runs", *sorted(runs.glob("mini-aq10-*")), "--metric", "srocc",
                       "--out", one_scenario) == 0
        with open(one_scenario) as fh:
            assert {r["strategy"] for r in csv.DictReader(fh)} == {"l2-select", "random"}

    def test_manifest_may_start_with_a_byte_order_mark(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        run_dir = tmp_path / "r1"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", run_dir) == 0
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert run_cli("report", "--runs", run_dir, "--metric", "srocc", "--out", plain) == 0
        manifest = run_dir / "manifest.json"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert run_cli("report", "--runs", run_dir, "--metric", "srocc", "--out", marked) == 0
        assert marked.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "manifest", ["{not json", '{"config": {}}', '["config"]', "\xff",
                     '{"config": {"strategy": 7}}', '{"config": {"strategy": ["random"]}}']
    )
    def test_bad_manifest_exits_1_and_names_it(self, tmp_path, capsys, manifest):
        run_dir = tmp_path / "r1"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_bytes(manifest.encode("latin-1"))
        assert run_cli("report", "--runs", run_dir, "--metric", "srocc",
                       "--out", tmp_path / "c.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(run_dir / "manifest.json") in err

    @pytest.mark.parametrize("bad_row", ["0,20,1,2,3,oops,5,6", "0,20,1,2,3", "0,20,1,2,3,nan,5,6",
                                         "0,20,1,2,3,inf,5,6", "0,20,1,2,3,-inf,5,6"])
    def test_bad_iterations_row_exits_1_and_names_it(self, tmp_path, capsys, bad_row):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        d1 = tmp_path / "r1"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", d1) == 0
        iterations = d1 / "iterations.csv"
        lines = iterations.read_text().splitlines()
        lines[2] = bad_row
        iterations.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("report", "--runs", d1, "--metric", "srocc", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{iterations}:3:" in err
        # A bad cell is named by its column: the sixth is srocc.
        assert ("srocc" in err) == (len(bad_row.split(",")) == len(ITERATIONS_HEADER))
        assert not out.exists()

    @pytest.mark.parametrize("header", [",".join(ITERATIONS_HEADER), "iter,x"],
                             ids=["expected-header", "wrong-header"])
    def test_header_only_iterations_exits_1(self, tmp_path, capsys, header):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        d1 = tmp_path / "r1"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", d1) == 0
        iterations = d1 / "iterations.csv"
        iterations.write_text(header + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("report", "--runs", d1, "--metric", "srocc", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(iterations) in err
        assert not out.exists()
        # Both are faults of the file's layout, not of a size across runs.
        with pytest.raises(SchemaMismatch):
            cli.read_iterations(iterations)

    def test_unknown_metric_is_usage_error(self, tmp_path):
        assert run_cli("report", "--runs", tmp_path, "--metric", "accuracy",
                       "--out", tmp_path / "c.csv") == 2

    def test_single_run_stderr_is_zero(self, tmp_path):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        d1 = tmp_path / "r1"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", d1) == 0
        out = tmp_path / "c.csv"
        assert run_cli("report", "--runs", d1, "--metric", "best_mse", "--out", out) == 0
        with open(out) as fh:
            for row in csv.DictReader(fh):
                assert float(row["stderr"]) == 0.0


GOLDEN_RUN_CFG = (
    "strategy = l2-select\ninitial_size = 30\ndraw_size = 60\n"
    "aq_size = 10\nbudget = 60\nseed = 9\nhidden = 8,4\nmax_epochs = 3\n"
)

GOLDEN_SWEEP_CFG = (
    "name = golden\ninitial_size = 30\ndraw_size = 60\nbudget = 60\naq_sizes = 10\n"
    "strategies = random, l2-reject\nseeds = 0, 1\nhidden = 8,4\nmax_epochs = 3\n"
)

GOLDEN_SHA256 = {
    "pool.csv": "0f463462adb40736550ecd8fcb1dfff68e2565edcacd8c8233fa66dabfa0273e",
    "iterations.csv": "7b8a8b0ff2c0ee4cc367fee0f51d61189109237a6b4b7d96a05f1e0c63234cf2",
    "summary.json": "97caff9702480ff0ab1757a865927ecdef43eebe668eddd518ad9ba92585d989",
    "table.csv": "f2502fc685147ca907be31c3c445f0d7cbd26c8ecb958501433536a3de8d7591",
    "report.csv": "d263d20b616af5d5cb9a321c73e8217ce1f0aa835eea3963b375c27b4c6d5f6c",
}


# Prints the name of the OpenBLAS kernel numpy runs, as run manifests record it
# ("unknown" when its OpenBLAS does not say), then runs `dado` with the arguments
# after argv[1] if that name is argv[1].
KERNEL_CLI = """
import sys
from dado.cli import _blas, main

name = _blas()["core"]
print(name, flush=True)
if name.lower() == sys.argv[1].lower():
    sys.exit(main(sys.argv[2:]))
"""


class TestGoldenDigests:
    """Pinned sha256 of the result files for fixed inputs.

    A change that alters any of these bytes changes numeric results and must
    say so; a refactor or speed-up must leave them as they are. The inputs are
    acceptance criterion 5's pool and run config, plus a small sweep on that
    pool run serially and on two worker processes.
    """

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def golden_pool(self, tmp_path):
        pool = tmp_path / "pool.csv"
        assert run_cli("gen-pool", "--kind", "analytic", "--n", 400, "--d", 4,
                       "--seed", 3, "--out", pool) == 0
        assert self.digest(pool) == GOLDEN_SHA256["pool.csv"]
        return pool

    def test_pool_on_both_writers(self, tmp_path, monkeypatch):
        # The C formatter (when it loads) above, then the `repr` writer.
        self.golden_pool(tmp_path)
        monkeypatch.setattr(datapool, "native_kernel", lambda: None)
        self.golden_pool(tmp_path)

    def test_run_outputs(self, tmp_path, monkeypatch):
        pool = self.golden_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOLDEN_RUN_CFG)
        # The pool read by the C reader (when it loads), then by np.loadtxt.
        for reader in ("native", "loadtxt"):
            if reader == "loadtxt":
                monkeypatch.setattr(datapool, "native_kernel", lambda: None)
            out_dir = tmp_path / reader
            assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
            for name in ("iterations.csv", "summary.json"):
                assert self.digest(out_dir / name) == GOLDEN_SHA256[name], (reader, name)

    @pytest.mark.parametrize("core", ["SkylakeX", "Haswell"])
    def test_run_outputs_on_fma_kernels(self, tmp_path, core):
        # OpenBLAS picks its kernels when numpy loads, so each needs its own process. A CPU
        # cannot run a kernel wider than its own; OpenBLAS then picks another, whose name
        # does not read back as the one asked for.
        pool = self.golden_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOLDEN_RUN_CFG)
        out_dir = tmp_path / core
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-c", KERNEL_CLI, core, "run", "--pool", str(pool),
                               "--config", str(cfg), "--out-dir", str(out_dir)],
                              env=env, capture_output=True, text=True, check=True, timeout=120)
        picked = done.stdout.partition("\n")[0]
        if picked.lower() != core.lower():
            pytest.skip(f"OpenBLAS names its kernel {picked!r} here, not {core!r}")
        for name in ("iterations.csv", "summary.json"):
            assert self.digest(out_dir / name) == GOLDEN_SHA256[name], name
        assert json.loads((out_dir / "manifest.json").read_text())["blas"]["core"] == picked

    def test_pool_and_run_outputs_without_a_compiler(self, tmp_path):
        # With no `cc` on PATH nothing is built: the pool is written through `repr`,
        # read through np.loadtxt and trained on numpy, with the same bytes.
        cache, no_tools = tmp_path / "cache", tmp_path / "no-tools"
        cache.mkdir()
        no_tools.mkdir()
        env = {**os.environ, "PATH": str(no_tools), "XDG_CACHE_HOME": str(cache), "PYTHONPATH": SRC}
        pool, cfg, out_dir = tmp_path / "pool.csv", tmp_path / "run.cfg", tmp_path / "run"
        cfg.write_text(GOLDEN_RUN_CFG)
        for argv in (["gen-pool", "--kind", "analytic", "--n", "400", "--d", "4", "--seed", "3",
                      "--out", str(pool)],
                     ["run", "--pool", str(pool), "--config", str(cfg), "--out-dir", str(out_dir)]):
            subprocess.run([sys.executable, "-m", "dado.cli", *argv], env=env, capture_output=True,
                           check=True, timeout=120)
        assert self.digest(pool) == GOLDEN_SHA256["pool.csv"]
        for name in ("iterations.csv", "summary.json"):
            assert self.digest(out_dir / name) == GOLDEN_SHA256[name], name
        assert json.loads((out_dir / "manifest.json").read_text())["train_step"] == "numpy"
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_table(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("DADO_THREADS", threads)
        pool = self.golden_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOLDEN_SWEEP_CFG)
        out_dir = tmp_path / "sweep"
        assert run_cli("sweep", "--config", cfg, "--pool", pool, "--out-dir", out_dir) == 0
        assert self.digest(out_dir / "table.csv") == GOLDEN_SHA256["table.csv"]

    def test_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DADO_THREADS", "1")
        pool = self.golden_pool(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOLDEN_SWEEP_CFG)
        out_dir = tmp_path / "sweep"
        assert run_cli("sweep", "--config", cfg, "--pool", pool, "--out-dir", out_dir) == 0
        report = tmp_path / "report.csv"
        assert run_cli("report", "--runs", *sorted((out_dir / "runs").iterdir()),
                       "--metric", "srocc", "--out", report) == 0
        assert self.digest(report) == GOLDEN_SHA256["report.csv"]


WORKING_CELL = ("initial_size = 200\ndraw_size = 1000\nbudget = 400\nseed = 3\n"
                "hidden = 200,100\nmax_epochs = 3\n")
# The working cell and a random-strategy cell, as two jobs of one sweep.
WORKING_SWEEP = ("aq_sizes = 50\nstrategies = random, l2-select\nseeds = 3\n"
                 + WORKING_CELL.replace("seed = 3\n", ""))
# Runs `dado` with the arguments after argv[1] under the start method in argv[1].
START_METHOD_CLI = """
import multiprocessing, sys
from dado.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(sys.argv[2:]))
"""
SRC = str(Path(__file__).resolve().parents[1] / "src")
# Prepended to KERNEL_CLI: prints the pool rows of each acquisition on a line of their own.
CONSUME_SPY = """
import dado.loop

def consume(pool, ids, consume=dado.loop.consume):
    print("acquired", *ids.tolist(), flush=True)
    consume(pool, ids)

dado.loop.consume = consume
"""
# The most the working cell's srocc, best_mse and rnd_mse may differ between the FMA kernels.
FMA_ULPS = 4


class TestDeterminismAtWorkingShape:
    """One run at the desk net's shape writes the same result bytes however it is run.

    The cell: a 2,000 x 28 analytic pool, l2-select, seed 3, 200 initial
    candidates, draws of 1,000, 50 acquired per iteration up to 400, and the
    28 -> 200 -> 100 -> 2 net trained for 3 epochs, so the predictions and
    epoch losses are products large enough for OpenBLAS to split across
    threads. Its `iterations.csv` and `summary.json` must be equal, byte for
    byte, through the C and the numpy train step, under OpenBLAS at 1 and at
    2 threads, and run standalone or as a job of a sweep: on one worker or
    two (`DADO_THREADS`), and with workers started by fork, spawn or
    forkserver.
    """

    RESULTS = ("iterations.csv", "summary.json")

    @pytest.fixture(scope="class")
    def cell(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("working")
        pool, cfg = root / "pool.csv", root / "run.cfg"
        assert run_cli("gen-pool", "--n", 2000, "--d", 28, "--seed", 11, "--out", pool) == 0
        cfg.write_text("strategy = l2-select\naq_size = 50\n" + WORKING_CELL)
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", root / "run") == 0
        return pool, cfg, self.results(root / "run")

    @classmethod
    def results(cls, out_dir):
        return {name: (out_dir / name).read_bytes() for name in cls.RESULTS}

    def test_numpy_train_step(self, cell, tmp_path, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler, so every run takes the numpy step")
        assert native_kernel() is not None
        pool, cfg, expected = cell
        for module in (surrogate, cli):  # the step, and the manifest's record of it
            monkeypatch.setattr(module, "native_kernel", lambda: None)
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["train_step"] == "numpy"
        assert self.results(tmp_path) == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_threads(self, cell, tmp_path, threads):
        # OpenBLAS reads the variable when numpy loads, so each count needs its own process.
        pool, cfg, expected = cell
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC}
        subprocess.run([sys.executable, "-m", "dado.cli", "run", "--pool", str(pool),
                        "--config", str(cfg), "--out-dir", str(tmp_path)],
                       env=env, capture_output=True, check=True, timeout=120)
        assert self.results(tmp_path) == expected

    def test_fma_kernels(self, cell, tmp_path):
        # The two kernels split a product's sums their own ways, so the errors may differ in
        # their last bits; the rows acquired, and every count and rank, may not. Each kernel
        # runs in its own process and is skipped as in TestGoldenDigests.
        pool, cfg, _ = cell
        runs = []
        for core in ("SkylakeX", "Haswell"):
            out_dir = tmp_path / core
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": SRC}
            done = subprocess.run(
                [sys.executable, "-c", CONSUME_SPY + KERNEL_CLI, core, "run", "--pool", str(pool),
                 "--config", str(cfg), "--out-dir", str(out_dir)],
                env=env, capture_output=True, text=True, check=True, timeout=120)
            picked, *lines = done.stdout.splitlines()
            if picked.lower() != core.lower():
                pytest.skip(f"OpenBLAS names its kernel {picked!r} here, not {core!r}")
            runs.append(([line for line in lines if line.startswith("acquired ")],
                         cli.read_iterations(out_dir / "iterations.csv")))
        (acquired, columns), (other_acquired, other) = runs
        assert acquired == other_acquired and len(acquired) == 4
        for name in ("train_size", "intersections", "mr_raw", "mr_norm"):
            assert columns[name] == other[name], name
        for name in ("srocc", "best_mse", "rnd_mse"):
            for a, b in zip(columns[name], other[name]):
                assert abs(a - b) <= FMA_ULPS * math.ulp(max(abs(a), abs(b))), (name, a, b)

    @classmethod
    def job_results(cls, out_dir):
        (job,) = (out_dir / "runs").glob("*-l2-select-seed3")
        return cls.results(job)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_job(self, cell, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("DADO_THREADS", threads)
        pool, _, expected = cell
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(WORKING_SWEEP)
        assert run_cli("sweep", "--config", cfg, "--pool", pool, "--out-dir", tmp_path) == 0
        assert self.job_results(tmp_path) == expected

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_sweep_job_under_start_method(self, cell, tmp_path, method):
        # The start method is set once per process, so each needs its own.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        pool, _, expected = cell
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(WORKING_SWEEP)
        env = {**os.environ, "DADO_THREADS": "2", "PYTHONPATH": SRC}
        subprocess.run([sys.executable, "-c", START_METHOD_CLI, method, "sweep", "--config",
                        str(cfg), "--pool", str(pool), "--out-dir", str(tmp_path)],
                       env=env, capture_output=True, check=True, timeout=120)
        assert self.job_results(tmp_path) == expected


GOLDEN_MLP = {"dropout_rate": 0.1, "hidden": [8, 4], "leaky_slope": 0.01}
GOLDEN_TRAIN = {"batch_size": 4, "learning_rate": 0.0005, "max_epochs": 3, "patience": 10}


class TestManifestConfig:
    """The manifest's record of a run's and a sweep's settings, pinned as literals."""

    def test_run_config(self, tmp_path):
        pool = TestGoldenDigests().golden_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOLDEN_RUN_CFG)
        out_dir = tmp_path / "run"
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", out_dir) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["config"] == {
            "aq_size": 10, "budget": 60, "draw_size": 60, "initial_size": 30, "n_iter": 3,
            "name": "run", "seed": 9, "strategy": "l2-select", "target_space": "normalized",
            "mlp": GOLDEN_MLP, "train": GOLDEN_TRAIN,
        }

    def test_sweep_grid(self, tmp_path):
        """The grid of one and of two aq sizes: its scenarios, run directories and table rows,
        each in aq size, strategy, seed order."""
        pool = TestGoldenDigests().golden_pool(tmp_path)
        aq10 = {
            "aq_size": 10, "budget": 60, "draw_size": 60, "initial_size": 30, "n_iter": 3,
            "name": "golden-aq10", "target_space": "normalized", "mlp": GOLDEN_MLP,
            "train": GOLDEN_TRAIN,
        }
        aq15 = {
            "aq_size": 15, "budget": 60, "draw_size": 60, "initial_size": 30, "n_iter": 2,
            "name": "golden-aq15", "target_space": "normalized", "mlp": GOLDEN_MLP,
            "train": GOLDEN_TRAIN,
        }
        runs_aq10 = ["runs/golden-aq10-random-seed0", "runs/golden-aq10-random-seed1",
                     "runs/golden-aq10-l2-reject-seed0", "runs/golden-aq10-l2-reject-seed1"]
        runs_aq15 = ["runs/golden-aq15-random-seed0", "runs/golden-aq15-random-seed1",
                     "runs/golden-aq15-l2-reject-seed0", "runs/golden-aq15-l2-reject-seed1"]
        rows_aq10 = [("golden-aq10", "random"), ("golden-aq10", "l2-reject")]
        rows_aq15 = [("golden-aq15", "random"), ("golden-aq15", "l2-reject")]
        for aq_sizes, scenarios, runs, rows in (
            ("10", [aq10], runs_aq10, rows_aq10),
            ("10, 15", [aq10, aq15], runs_aq10 + runs_aq15, rows_aq10 + rows_aq15),
        ):
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(GOLDEN_SWEEP_CFG.replace("aq_sizes = 10", f"aq_sizes = {aq_sizes}"))
            out_dir = tmp_path / f"sweep {aq_sizes}"
            assert run_cli("sweep", "--config", cfg, "--pool", pool, "--out-dir", out_dir) == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["grid"] == {
                "scenarios": scenarios,
                "strategies": ["random", "l2-reject"],
                "seeds": [0, 1],
            }
            assert manifest["outputs"]["runs"] == runs
            with open(out_dir / "table.csv") as fh:
                table = [(row["scenario"], row["strategy"]) for row in csv.DictReader(fh)]
            assert table == [pair for pair in rows for _ in range(6)]


TRAINING_KEYS = {
    "hidden", "dropout_rate", "leaky_slope", "learning_rate", "batch_size", "patience",
    "max_epochs",
}
ACCEPTED_RUN_KEYS = {
    "name", "strategy", "initial_size", "draw_size", "aq_size", "budget", "seed",
    "target_space",
} | TRAINING_KEYS
ACCEPTED_SWEEP_KEYS = {
    "pool", "name", "initial_size", "draw_size", "budget", "aq_sizes", "strategies", "seeds",
    "target_space",
} | TRAINING_KEYS


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_blocks():
    """Config keys of each plain fenced block in the README that holds `key = value` lines."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    out = []
    for block in blocks:
        info, _, body = block.partition("\n")
        lines = [line.split("#", 1)[0] for line in body.splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in lines if "=" in line]
        if not info.strip() and keys:
            out.append(keys)
    return out


def run_flags() -> dict[str, str]:
    """Each `dado run` flag (other than --help) and its dest."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a.dest for a in sub.choices["run"]._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)}


class TestConfigKeys:
    """The config keys `dado run` and `dado sweep` accept, and the README's list of them."""

    def test_accepted_key_sets(self):
        assert RUN_KEYS == ACCEPTED_RUN_KEYS
        assert SWEEP_KEYS == ACCEPTED_SWEEP_KEYS

    @pytest.mark.parametrize("key", ["beta1", "input_dim", "warmup"])
    def test_other_keys_are_rejected(self, tmp_path, capsys, key):
        pool = make_pool(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG + f"{key} = 5\n")
        assert run_cli("run", "--pool", pool, "--config", cfg, "--out-dir", tmp_path / "o") == 2
        cfg.write_text(SWEEP_CFG + f"{key} = 5\npool = {pool}\n")
        assert run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "s") == 2
        assert capsys.readouterr().err.count(key) == 2

    def test_readme_lists_exactly_the_accepted_keys(self):
        blocks = readme_config_blocks()
        run_blocks = [keys for keys in blocks if "aq_size" in keys]
        sweep_blocks = [keys for keys in blocks if "aq_sizes" in keys]
        assert len(run_blocks) == 1 and len(sweep_blocks) == 1
        for keys, accepted in ((run_blocks[0], RUN_KEYS), (sweep_blocks[0], SWEEP_KEYS)):
            assert len(keys) == len(set(keys))
            assert set(keys) == accepted

    def test_every_run_flag_sets_a_config_key(self):
        """So each flag's text goes through the config parser and checks."""
        bypass = {flag for flag, dest in run_flags().items() if dest not in RUN_KEYS}
        assert bypass == {"--pool", "--config", "--out-dir"}

    def test_readme_lists_exactly_the_override_flags(self):
        text = README.read_text(encoding="utf-8")
        sentence = re.search(r"With `--config`, the flags (.*?) still apply", text, re.S)
        listed = re.findall(r"`(--[a-z-]+)`", sentence.group(1))
        overrides = [flag for flag, dest in run_flags().items() if dest in RUN_KEYS]
        assert sorted(listed) == sorted(overrides)


class TestLibraryUse:
    """The names the README's "Library use" section calls, as `dado.<name>`."""

    NAMES = ("ScenarioConfig", "StrategyKind", "gen_synthetic_pool", "run_experiment",
             "CandidatePool", "pool_from_arrays", "load_pool", "annotate", "SurrogateModel",
             "init_model", "train", "predict_batch")

    def test_readme_names_resolve(self):
        section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
        for name in self.NAMES:
            assert re.search(rf"\b{name}\b", section), name
            assert callable(getattr(dado, name)), name
        # The gradient check is test code (tests/gradcheck.py), not library surface.
        assert not hasattr(dado, "grad_check")

    def test_package_exports_only_the_readme_names(self):
        public = {name for name, value in vars(dado).items()
                  if not isinstance(value, types.ModuleType)
                  and (not name.startswith("_") or name == "__version__")}
        assert public == {*self.NAMES, "__version__"}

    @pytest.mark.parametrize("make", [lambda: surrogate.MlpConfig(dropout_rate=1.0),
                                      lambda: surrogate.TrainConfig(batch_size=0)],
                             ids=["mlp", "train"])
    def test_bad_sub_config_is_a_config_error(self, make):
        with pytest.raises(ConfigError):
            make()


# Prints the modules `import dado.cli` adds to those numpy loads, then every module loaded.
CLI_IMPORTS = """
import sys
import numpy
before = set(sys.modules)
import dado.cli
print(" ".join(sorted(set(sys.modules) - before)))
print(" ".join(sorted(sys.modules)))
"""


class TestStartup:
    def test_cli_import_loads_no_process_or_build_modules(self):
        # Only a sweep on several workers needs a process pool, and only a build of the C
        # file needs subprocess and tempfile. numpy loads tempfile itself on some Pythons
        # (through importlib.resources), so dado is held to not adding it.
        done = subprocess.run([sys.executable, "-c", CLI_IMPORTS],
                              env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                              text=True, check=True, timeout=120)
        added, loaded = (set(line.split()) for line in done.stdout.splitlines())
        unused = {"concurrent.futures.process", "multiprocessing", "subprocess", "tempfile"}
        assert not unused & added
        assert not (unused - {"tempfile"}) & loaded


class TestBlasPin:
    """Importing dado pins OpenBLAS to one thread before numpy loads."""

    @staticmethod
    def blas_threads_after_import(**env):
        src = Path(__file__).resolve().parents[1] / "src"
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child_env.update(env, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", "import dado, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=child_env, capture_output=True, text=True, check=True, timeout=60,
        )
        return out.stdout.strip()

    def test_unset_becomes_one(self):
        assert self.blas_threads_after_import() == "1"

    def test_caller_setting_wins(self):
        assert self.blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the pin is glibc's mallopt")
class TestAllocatorPin:
    """Importing dado serves numpy temporaries from glibc's heap, not fresh mappings."""

    # 40 allocate-and-free cycles of float64 arrays growing from 1.0 to 3.9 MB,
    # below numpy's 4 MB cut-off for huge-page advice.
    CYCLES = """
import resource
import numpy as np
import dado
sizes = [int((1.0 + 2.9 * i / 39) * 2**20) // 8 for i in range(40)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for n in sizes:
    a = np.ones(n)
    del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    def minor_faults(self, **env) -> int:
        src = Path(__file__).resolve().parents[1] / "src"
        child_env = {k: v for k, v in os.environ.items()
                     if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        child_env.update(env, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", self.CYCLES], env=child_env,
                             capture_output=True, text=True, check=True, timeout=60)
        return int(out.stdout)

    def test_growing_temporaries_reuse_the_heap(self):
        # Each 4 KiB page of the largest array faults once: about 1,000 faults.
        assert self.minor_faults() < 2000

    def test_caller_setting_wins(self):
        # glibc's 128 KiB threshold maps every array afresh: about 24,000 faults.
        assert self.minor_faults(MALLOC_MMAP_THRESHOLD_="131072") > 10000


class TestBenchmarkTracer:
    """The names perfbench/tracer.py patches still exist and still see the calls."""

    @staticmethod
    def traced(tmp_path, spans, *dado_args):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        spans_dir = tmp_path / spans
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), "--spans-dir", str(spans_dir),
             "--", *map(str, dado_args)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        with open(spans_dir / "spans-main.json", encoding="utf-8") as fh:
            return {span["name"] for span in json.load(fh)["spans"]}

    def test_gen_pool_and_run_spans(self, tmp_path, monkeypatch):
        pool = tmp_path / "pool.csv"
        names = self.traced(tmp_path, "gen-spans", "gen-pool", "--kind", "analytic",
                            "--n", 300, "--d", 3, "--seed", 17, "--out", pool)
        assert {"oracle.gen_synthetic_pool", "datapool.save_pool", "cli.sha256"} <= names
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CFG)
        names = self.traced(tmp_path, "run-spans", "run", "--pool", pool, "--config", cfg,
                            "--out-dir", tmp_path / "run")
        assert {"cli.sha256", "loop.run_experiment", "surrogate.train", "surrogate.predict_batch",
                "strategies.select", "metrics.reference_order", "metrics.intersections",
                "metrics.mean_rank", "metrics.srocc", "metrics.mse"} <= names
        monkeypatch.setenv("DADO_THREADS", "2")
        cfg.write_text(SWEEP_CFG + f"\npool = {pool}\n")
        names = self.traced(tmp_path, "sweep-spans", "sweep", "--config", cfg,
                            "--out-dir", tmp_path / "sweep")
        assert {"cli.sha256", "loop.run_sweep", "cli.write_run_outputs"} <= names
        worker_names = set()
        for path in (tmp_path / "sweep-spans").glob("spans-*-*.json"):
            with open(path, encoding="utf-8") as fh:
                worker_names.update(span["name"] for span in json.load(fh)["spans"])
        assert "loop.execute_run" in worker_names
