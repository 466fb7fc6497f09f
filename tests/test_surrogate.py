"""MLP init, forward/backward correctness, training protocol, Adam, prediction."""

import ctypes
import gc
import math
import os
import platform
import shutil
import subprocess
import time
import tracemalloc

import numpy as np
import pytest

import dado.native as native
import dado.surrogate as surrogate
from dado.datapool import TargetNormalizer
from dado.errors import ConfigError, DimensionMismatch, NumericalDivergence
from dado.surrogate import (
    MlpConfig,
    SurrogateModel,
    TrainConfig,
    TrainLog,
    _forward,
    init_model,
    predict_batch,
    train,
)
from gradcheck import finite_difference_gradients, grad_check, loss_gradients, max_relative_error

# A 5 -> 7 -> 3 -> 2 net.
SMALL = MlpConfig(hidden=(7, 3))


def naive_forward(model, x):
    """Independent re-implementation of the eval-mode forward pass with plain loops."""
    slope = model.config.leaky_slope
    h = [float(v) for v in x]
    n_layers = len(model.weights)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for i in range(w.shape[0]):
            s = float(b[i])
            for j in range(w.shape[1]):
                s += float(w[i, j]) * h[j]
            if layer < n_layers - 1 and s <= 0.0:
                s = slope * s
            out.append(s)
        h = out
    return np.array(h)


class TestInit:
    def test_same_seed_identical(self):
        m1 = init_model(SMALL, 5, 2, seed=4)
        m2 = init_model(SMALL, 5, 2, seed=4)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        m1 = init_model(SMALL, 5, 2, seed=4)
        m2 = init_model(SMALL, 5, 2, seed=5)
        assert any(
            not np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights)
        )

    def test_weights_numpy_cannot_index_are_a_config_error(self):
        # 2**60 float64 cells are more bytes than a 64-bit numpy indexes. The hidden
        # layers alone, and then with the data's widths, are checked before any allocation.
        for hidden in ((2**60,), (2**30, 2**31)):
            with pytest.raises(ConfigError, match="more weights than numpy can index"):
                MlpConfig(hidden=hidden)
        config = MlpConfig(hidden=(2**58,))
        with pytest.raises(ConfigError, match="between 3 inputs and 2 outputs"):
            init_model(config, 3, 2, seed=0)

    def test_parameter_count_for_the_default_architecture(self):
        model = init_model(MlpConfig(), 28, 2, seed=0)
        # Count independently from the layer shapes:
        # 28*200+200 + 200*100+100 + 100*2+2.
        dims = (28, 200, 100, 2)
        expected = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
        assert expected == 26102
        assert model.theta.size == expected

    def test_biases_start_at_zero(self):
        model = init_model(SMALL, 5, 2, seed=0)
        for b in model.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_init_fan_in_bounds(self):
        model = init_model(SMALL, 5, 2, seed=0)
        dims = (5, 7, 3, 2)
        for fan_in, w in zip(dims[:-1], model.weights):
            assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)


class TestLayout:
    def test_init_is_the_concatenated_layer_draws(self):
        # Recompute the documented layout: per layer, the weight draws of
        # shape (fan_out, fan_in), then that layer's zero biases.
        rng = np.random.default_rng(4)
        dims = (5, 7, 3, 2)
        parts = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            parts += [rng.uniform(-bound, bound, (fan_out, fan_in)).ravel(), np.zeros(fan_out)]
        np.testing.assert_array_equal(init_model(SMALL, 5, 2, seed=4).theta, np.concatenate(parts))

    def test_weights_and_biases_are_views_into_theta(self):
        model = init_model(SMALL, 5, 2, seed=0)
        # W0 (7x5) at 0, b0 at 35, W1 (3x7) at 42, b1 at 63, W2 (2x3) at 66, b2 at 72.
        assert model.theta.size == 74
        model.theta[:] = np.arange(74)
        assert model.weights[0][1, 2] == 7.0
        np.testing.assert_array_equal(model.biases[0], np.arange(35, 42))
        assert model.weights[1][0, 0] == 42.0
        np.testing.assert_array_equal(model.biases[1], [63.0, 64.0, 65.0])
        np.testing.assert_array_equal(model.weights[2], [[66.0, 67.0, 68.0], [69.0, 70.0, 71.0]])
        np.testing.assert_array_equal(model.biases[2], [72.0, 73.0])
        model.weights[2][1, 0] = -1.0
        model.biases[0][0] = -2.0
        assert model.theta[69] == -1.0 and model.theta[35] == -2.0

    @pytest.mark.parametrize("size", [0, 73, 75])
    def test_wrong_theta_length_rejected(self, size):
        with pytest.raises(DimensionMismatch):
            SurrogateModel(SMALL, 5, 2, np.zeros(size))


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = init_model(SMALL, 5, 2, seed=0)
        for w in model.weights:
            w[:] = 0.0
        np.testing.assert_array_equal(predict_batch(model, np.ones(5)[None])[0], [0.0, 0.0])

    def test_leaky_slope_on_negative_preactivation(self):
        # One unit per layer wired as identity: input -1 comes out scaled by
        # the negative slope once per hidden layer.
        cfg = MlpConfig(hidden=(1,), leaky_slope=0.01)
        model = SurrogateModel(cfg, 1, 1, np.array([1.0, 0.0, 1.0, 0.0]))
        out = predict_batch(model, np.array([-1.0])[None])[0]
        assert out[0] == pytest.approx(-0.01, abs=1e-15)

    def test_matches_naive_triple_loop(self):
        model = init_model(SMALL, 5, 2, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.random(5)
            fast = predict_batch(model, x[None])[0]
            slow = naive_forward(model, x)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_eval_forward_is_pure(self):
        model = init_model(SMALL, 5, 2, seed=1)
        x = np.random.default_rng(2).random(5)
        np.testing.assert_array_equal(predict_batch(model, x[None])[0],
                                      predict_batch(model, x[None])[0])

    def test_train_mode_with_zero_dropout_equals_eval(self):
        cfg = MlpConfig(hidden=(7, 3), dropout_rate=0.0)
        model = init_model(cfg, 5, 2, seed=3)
        x = np.random.default_rng(4).random(5)
        eval_out = predict_batch(model, x[None])[0]
        train_out = _forward(model, x[None], True, np.random.default_rng(0))[0][0]
        np.testing.assert_array_equal(eval_out, train_out)

    def test_inverted_dropout_is_unbiased(self):
        model = init_model(SMALL, 5, 2, seed=6)
        x = np.random.default_rng(7).random(5)
        reference = predict_batch(model, x[None])[0]
        rng = np.random.default_rng(8)
        mean = np.mean([_forward(model, x[None], True, rng)[0][0] for _ in range(4000)], axis=0)
        np.testing.assert_allclose(mean, reference, atol=0.05)

    def test_dimension_mismatch(self):
        model = init_model(SMALL, 5, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            predict_batch(model, np.zeros(4)[None])


class TestEarlyStopping:
    """`train` stops after `patience` epochs without a strict decrease of the epoch loss.

    The eval-mode `_forward` is scripted so that epoch k's loss against zero
    targets is `losses[k]`.
    """

    @staticmethod
    def train_on(monkeypatch, losses, patience):
        forward, scripted = surrogate._forward, iter(losses)

        def scripted_forward(model, x, train_mode, rng):
            if train_mode:
                return forward(model, x, train_mode, rng)
            return np.full((len(x), 2), math.sqrt(next(scripted))), None

        monkeypatch.setattr(surrogate, "_forward", scripted_forward)
        x = np.random.default_rng(0).random((8, 5))
        _, log = train(init_model(SMALL, 5, 2, seed=0), x, np.zeros((8, 2)),
                       TrainConfig(patience=patience, max_epochs=len(losses)),
                       np.random.default_rng(1))
        return log

    def test_flat_sequence_stops_patience_after_minimum(self, monkeypatch):
        log = self.train_on(monkeypatch, [1.0] + [0.9] * 30, patience=10)
        assert log.best_epoch == 1
        assert len(log.losses) == 12

    def test_improvement_resets_the_clock(self, monkeypatch):
        log = self.train_on(monkeypatch, [1.0, 0.9, 0.9, 0.8, 0.8, 0.8, 0.8, 0.8], patience=3)
        assert log.best_epoch == 3
        assert len(log.losses) == 7

    def test_equal_loss_is_not_an_improvement(self, monkeypatch):
        log = self.train_on(monkeypatch, [0.5] * 10, patience=2)
        assert log.best_epoch == 0
        assert len(log.losses) == 3


class TestTrain:
    def test_memorizes_identical_points(self):
        cfg = MlpConfig(hidden=(16, 8), dropout_rate=0.0)
        model = init_model(cfg, 3, 2, seed=0)
        x = np.tile(np.array([0.2, 0.7, 0.5]), (4, 1))
        t = np.tile(np.array([0.6, -0.4]), (4, 1))
        tcfg = TrainConfig(learning_rate=5e-3, max_epochs=500, patience=100)
        trained, log = train(model, x, t, tcfg, np.random.default_rng(0))
        assert min(log.losses) < 1e-3

    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 5e-4
        assert cfg.batch_size == 4
        assert cfg.patience == 10

    def test_log_invariants(self):
        cfg = MlpConfig(hidden=(8, 4))
        model = init_model(cfg, 4, 2, seed=1)
        rng = np.random.default_rng(2)
        x = rng.random((24, 4))
        t = rng.normal(size=(24, 2))
        tcfg = TrainConfig(max_epochs=60, patience=5)
        trained, log = train(model, x, t, tcfg, np.random.default_rng(3))
        assert log.losses[log.best_epoch] == min(log.losses)
        assert len(log.losses) - 1 - log.best_epoch <= tcfg.patience

    def test_best_epoch_weights_are_reloaded(self):
        cfg = MlpConfig(hidden=(8, 4))
        model = init_model(cfg, 4, 2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.random((16, 4))
        t = rng.normal(size=(16, 2))
        trained, log = train(model, x, t, TrainConfig(max_epochs=40, patience=5),
                             np.random.default_rng(7))
        out = np.array([predict_batch(trained, row[None])[0] for row in x])
        final_loss = float(np.mean((out - t) ** 2))
        assert final_loss == pytest.approx(min(log.losses), abs=1e-15)

    def test_retrain_from_scratch_is_deterministic(self):
        cfg = MlpConfig(hidden=(8, 4))
        rng = np.random.default_rng(8)
        x = rng.random((20, 4))
        t = rng.normal(size=(20, 2))
        results = []
        for _ in range(2):
            model = init_model(cfg, 4, 2, seed=11)
            trained, _ = train(model, x, t, TrainConfig(max_epochs=25),
                               np.random.default_rng(12))
            results.append(trained)
        for a, b in zip(results[0].weights + results[0].biases,
                        results[1].weights + results[1].biases):
            np.testing.assert_array_equal(a, b)

    def test_training_does_not_mutate_input_model(self):
        cfg = MlpConfig(hidden=(4, 2))
        model = init_model(cfg, 3, 1, seed=0)
        before = [w.copy() for w in model.weights]
        rng = np.random.default_rng(1)
        train(model, rng.random((8, 3)), rng.normal(size=(8, 1)),
              TrainConfig(max_epochs=5), np.random.default_rng(2))
        for w, orig in zip(model.weights, before):
            np.testing.assert_array_equal(w, orig)

    def test_divergence_raises(self):
        cfg = MlpConfig(hidden=(8, 4), dropout_rate=0.0)
        model = init_model(cfg, 3, 1, seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((8, 3))
        t = rng.normal(size=(8, 1))
        bad = TrainConfig(learning_rate=1e150, max_epochs=30)
        with np.errstate(all="ignore"), pytest.raises(NumericalDivergence):
            train(model, x, t, bad, np.random.default_rng(2))

    def test_empty_training_set_rejected(self):
        model = init_model(SMALL, 5, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            train(model, np.empty((0, 5)), np.empty((0, 2)), TrainConfig(),
                  np.random.default_rng(0))


@pytest.fixture(scope="module")
def kernel():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler, so only the numpy Adam can run")
    k = native.native_kernel()
    assert k is not None, "the C Adam loop failed to build, load or pass its self-check"
    return k


def hard_gradients(n, count, seed):
    """Gradients with zeros of both signs, subnormals and magnitudes 1e-8 to 1e2."""
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((count, n)) * 10.0 ** rng.uniform(-8.0, 2.0, (count, n))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-8, 1e2])
    mask = rng.random((count, n)) < 0.2
    grads[mask] = rng.choice(special, size=int(mask.sum()))
    return grads


class TestAdam:
    @pytest.mark.parametrize("n", [1, 7, 26_103])
    def test_native_matches_numpy_bitwise(self, kernel, n):
        grads = hard_gradients(n, 16, seed=n)
        theta0 = np.random.default_rng(1).standard_normal(n)
        states = []
        for k in (None, kernel):
            theta, grad, m, v = theta0.copy(), np.empty(n), np.zeros(n), np.zeros(n)
            update = native.adam_updater(k, theta, grad, m, v, learning_rate=5e-4)
            for step in range(1, 2001):
                # Cycle the bank with a changing sign so m and v keep moving.
                np.multiply(grads[step % 16], -1.0 if step % 3 else 1.0, out=grad)
                update(step)
            states.append((theta, m, v))
        for name, a, b in zip(("theta", "m", "v"), *states):
            assert np.array_equal(a, b), name

    def test_train_native_equals_numpy(self, kernel, monkeypatch):
        cfg = MlpConfig(hidden=(9, 5))
        rng = np.random.default_rng(21)
        x = rng.random((30, 4))
        t = rng.normal(size=(30, 2))
        tcfg = TrainConfig(learning_rate=3e-3, max_epochs=40, patience=5)
        native, native_log = train(init_model(cfg, 4, 2, seed=4), x, t, tcfg,
                                   np.random.default_rng(5))
        monkeypatch.setattr(surrogate, "native_kernel", lambda: None)
        ref, ref_log = train(init_model(cfg, 4, 2, seed=4), x, t, tcfg, np.random.default_rng(5))
        assert native_log == ref_log
        for a, b in zip(native.weights + native.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(a, b)

    def test_no_compiler_falls_back_to_numpy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", "")
        assert native.load_kernel() is None
        monkeypatch.setattr(surrogate, "native_kernel", native.load_kernel)
        rng = np.random.default_rng(0)
        trained, log = train(init_model(SMALL, 5, 2, seed=0), rng.random((8, 5)),
                             rng.normal(size=(8, 2)), TrainConfig(max_epochs=3),
                             np.random.default_rng(1))
        assert len(log.losses) == 3
        assert all(np.isfinite(w).all() for w in trained.weights)

    def test_build_is_cached_by_source_and_flags(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.load_kernel() is not None
        built = list((tmp_path / "dado").iterdir())
        assert len(built) == 1 and built[0].name.startswith("native-")
        mtime = built[0].stat().st_mtime_ns
        assert native.load_kernel() is not None
        assert list((tmp_path / "dado").iterdir()) == built
        assert built[0].stat().st_mtime_ns == mtime

    def test_build_is_cached_per_cpu_architecture(self, kernel, tmp_path, monkeypatch):
        # A cache shared by hosts of two architectures must not hand one the other's library.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.load_kernel() is not None
        monkeypatch.setattr(platform, "machine", lambda: "other-arch")
        assert native.load_kernel() is not None
        built = sorted(f.name for f in (tmp_path / "dado").iterdir())
        assert len(built) == 2 and all(name.startswith("native-") for name in built)

    def test_a_new_build_leaves_every_other_file(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "dado"
        cache.mkdir()
        # Libraries of another source, of another architecture and of older names,
        # another process's build in progress, and a file of the user's.
        others = {f"native-{platform.machine()}-{'3' * 20}.so": b"another source",
                  f"native-other-arch-{'4' * 20}.so": b"another architecture",
                  f"native-{'2' * 20}.so": b"no architecture", f"adam-{'1' * 20}.so": b"adam",
                  ".native-x1y2z3.so": b"", "notes.txt": b"notes"}
        week_ago = time.time() - 8 * 24 * 60 * 60
        for name, data in others.items():
            (cache / name).write_bytes(data)
            os.utime(cache / name, (week_ago, week_ago))
        assert native.load_kernel() is not None
        built = {f.name for f in cache.iterdir()}.difference(others)
        assert len(built) == 1 and built.pop().startswith(f"native-{platform.machine()}-")
        assert {name: (cache / name).read_bytes() for name in others} == others

    def test_two_sources_sharing_a_cache_build_once_each(self, kernel, tmp_path, monkeypatch):
        # Two checkouts of different sources alternating on one cache keep both libraries.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        other = tmp_path / "other.c"
        other.write_text(native._SOURCE.read_text() + "/* another version */\n")
        sources, compiled, compile_ = [native._SOURCE, other], [], native._compile
        monkeypatch.setattr(native, "_compile", lambda *a: compiled.append(a[3].name) or compile_(*a))
        for i in range(4):
            monkeypatch.setattr(native, "_SOURCE", sources[i % 2])
            assert native.load_kernel() is not None
        assert len(compiled) == 2
        assert len(list((tmp_path / "dado").iterdir())) == 2

    def test_unwritable_cache_builds_in_a_private_directory(self, kernel, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native.load_kernel() is not None

    def test_failed_build_or_self_check_falls_back(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = native._SOURCE.read_text()
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "_SOURCE", broken)
        assert native.load_kernel() is None
        # Builds and loads, but adds eps twice, so the self-check must refuse it.
        wrong = tmp_path / "wrong.c"
        wrong.write_text(source.replace("+ eps)", "+ eps + eps)"))
        assert wrong.read_text() != source
        monkeypatch.setattr(native, "_SOURCE", wrong)
        assert native.load_kernel() is None


class TestGradients:
    def test_grad_check_small_models(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(4):
            input_dim, output_dim = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            cfg = MlpConfig(hidden=(int(rng.integers(3, 9)), int(rng.integers(2, 6))))
            model = init_model(cfg, input_dim, output_dim, seed=trial)
            x = rng.random(input_dim)
            y = rng.normal(size=output_dim)
            worst = max(worst, grad_check(model, (x, y), eps=1e-5))
        assert worst < 1e-4

    def test_zero_loss_sample_has_zero_gradient(self):
        model = init_model(SMALL, 5, 2, seed=3)
        x = np.random.default_rng(4).random(5)
        y = predict_batch(model, x[None])[0]
        _, grad = loss_gradients(model, x, y)
        assert np.abs(grad).max() < 1e-12

    def test_perturbed_gradient_is_detected(self):
        model = init_model(SMALL, 5, 2, seed=9)
        rng = np.random.default_rng(10)
        x = rng.random(5)
        y = rng.normal(size=2)
        _, grad = loss_gradients(model, x, y)
        numeric = finite_difference_gradients(model, x, y, eps=1e-5)
        clean = max_relative_error(grad, numeric)
        grad[0] += 1e-2  # W0[0, 0]
        mutated = max_relative_error(grad, numeric)
        assert clean < 1e-4
        assert mutated > 1e-3
        assert mutated > clean

    def test_gradient_property_over_random_pairs(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            cfg = MlpConfig(hidden=(5, 4))
            model = init_model(cfg, 3, 2, seed=100 + trial)
            x = rng.random(3)
            y = rng.normal(size=2)
            assert grad_check(model, (x, y), eps=1e-5) < 1e-4


class TestPredictBatch:
    def test_empty_list(self):
        model = init_model(SMALL, 5, 2, seed=0)
        assert predict_batch(model, np.empty((0, 5))).shape == (0, 2)

    def test_raw_space_applies_inverse_normalization(self):
        # Predictions are normalized; the target normalizer's inverse maps
        # them to raw space, as a raw-space scenario scores them.
        model = init_model(SMALL, 5, 2, seed=0)
        for w in model.weights:
            w[:] = 0.0
        tnorm = TargetNormalizer(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        preds = predict_batch(model, np.full((1, 5), 0.5))
        np.testing.assert_array_equal(preds, [[0.0, 0.0]])
        np.testing.assert_array_equal(tnorm.inverse(preds), [[1.0, 1.0]])

    def test_batch_matches_single_forward(self):
        model = init_model(SMALL, 5, 2, seed=2)
        x = np.random.default_rng(3).random((8, 5))
        batch = predict_batch(model, x)
        single = np.array([predict_batch(model, row[None])[0] for row in x])
        np.testing.assert_allclose(batch, single, atol=1e-14)

    def test_wrong_candidate_width_rejected(self):
        model = init_model(SMALL, 5, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            predict_batch(model, np.zeros((1, 3)))


class TestEvalMemory:
    """At desk shape (28 inputs, hidden 200 and 100), an eval-mode forward holds no
    backprop state, and `train` frees an epoch's dropout masks once its steps are done."""

    DESK = (MlpConfig(), 28, 2)

    @staticmethod
    def traced_peak(fn) -> int:
        fn()  # a first call loads the native kernel and fills numpy's caches
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_predict_holds_two_first_layer_activations(self):
        model = init_model(*self.DESK, seed=0)
        x = np.random.default_rng(0).random((2000, 28))
        # The first hidden layer's pre-activation and its `slope * z` temporary.
        assert self.traced_peak(lambda: predict_batch(model, x)) <= 1.1 * (2 * 2000 * 200 * 8)

    def test_train_frees_masks_before_the_epoch_loss(self):
        model = init_model(*self.DESK, seed=0)
        rng = np.random.default_rng(0)
        x, t = rng.random((475, 28)), rng.normal(size=(475, 2))
        peak = self.traced_peak(
            lambda: train(model, x, t, TrainConfig(max_epochs=3), np.random.default_rng(1)))
        # Five parameter vectors (1.04 MB) and the epoch loss's two 475 x 200
        # activations (1.52 MB); the epoch's 1.14 MB of masks, held through the
        # epoch loss, would pass the bound.
        assert peak < 3.3e6


# Frozen reference step: the train step as it was before dropout masks were
# drawn once per epoch. Two `rng.random` draws per batch (one per hidden
# layer), fancy-indexed batches, `np.where` leaky ReLU and `np.sum` bias
# gradients. `train` must reproduce it bit for bit.

def reference_forward(model, x, train_mode, rng):
    p = model.config.dropout_rate
    slope = model.config.leaky_slope
    h = x
    cache = []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w.T + b
        a = np.where(z > 0.0, z, slope * z)
        mask = None
        if train_mode and p > 0.0:
            mask = (rng.random(a.shape) >= p) / (1.0 - p)
            a = a * mask
        cache.append((h, z, mask))
        h = a
    cache.append((h, None, None))
    return h @ model.weights[-1].T + model.biases[-1], cache


def reference_loss_and_grads(model, x, targets, rng, gw, gb):
    y, cache = reference_forward(model, x, True, rng)
    diff = y - targets
    g = (2.0 / diff.size) * diff
    np.matmul(g.T, cache[-1][0], out=gw[-1])
    np.sum(g, axis=0, out=gb[-1])
    g = g @ model.weights[-1]
    slope = model.config.leaky_slope
    for layer in range(len(model.weights) - 2, -1, -1):
        h_in, z, mask = cache[layer]
        if mask is not None:
            g = g * mask
        g = g * np.where(z > 0.0, 1.0, slope)
        np.matmul(g.T, h_in, out=gw[layer])
        np.sum(g, axis=0, out=gb[layer])
        if layer > 0:
            g = g @ model.weights[layer]


def reference_train(model, x, t, cfg, rng):
    work = model.copy()
    theta = work.theta
    grad = np.zeros_like(theta)
    grads = work.like(grad)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    update = native.adam_updater(native.native_kernel(), theta, grad, m, v, cfg.learning_rate)
    step = 0
    n = x.shape[0]
    best_loss, best_epoch = float("inf"), -1
    losses = []
    best_theta = theta.copy()
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            reference_loss_and_grads(work, x[idx], t[idx], rng, grads.weights, grads.biases)
            step += 1
            update(step)
        pred, _ = reference_forward(work, x, False, None)
        epoch_loss = float(np.mean((pred - t) ** 2))
        losses.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss, best_epoch = epoch_loss, epoch
            best_theta[:] = theta
        elif epoch - best_epoch >= cfg.patience:
            break
    return best_theta, TrainLog(losses, best_epoch)


# Nets as (config, input width, output width).
DESK = (MlpConfig(), 28, 2)


def fit_both(net, n, tcfg, seed=0):
    _, input_dim, output_dim = net
    rng = np.random.default_rng(seed)
    x = rng.random((n, input_dim))
    t = rng.normal(size=(n, output_dim))
    model = init_model(*net, seed=seed + 1)
    got, got_log = train(model, x, t, tcfg, np.random.default_rng(seed + 2))
    ref_theta, ref_log = reference_train(model, x, t, tcfg, np.random.default_rng(seed + 2))
    return got.theta, got_log, ref_theta, ref_log


# Shapes that reach every branch of numpy's matmul dispatch and both ways of
# summing bias gradients (pairwise for one column of 8 or more rows).
WIDE_OUT_1 = (MlpConfig(hidden=(50,)), 6, 1)
SHAPES = [
    (WIDE_OUT_1, 45, TrainConfig(max_epochs=3)),
    (WIDE_OUT_1, 45, TrainConfig(batch_size=1, max_epochs=2)),
    (WIDE_OUT_1, 45, TrainConfig(batch_size=16, max_epochs=3)),
    ((MlpConfig(hidden=(16, 8)), 1, 2), 45, TrainConfig(max_epochs=3)),
    ((MlpConfig(hidden=(8, 1)), 5, 2), 45,
     TrainConfig(batch_size=16, max_epochs=3)),
    ((MlpConfig(hidden=(1,)), 1, 1), 45, TrainConfig(max_epochs=3)),
    (DESK, 100, TrainConfig(batch_size=16, max_epochs=3)),
    (DESK, 150, TrainConfig(batch_size=64, max_epochs=3)),
    ((MlpConfig(leaky_slope=0.0), 28, 2), 45, TrainConfig(max_epochs=3)),
    ((MlpConfig(leaky_slope=1.0), 28, 2), 45, TrainConfig(max_epochs=3)),
    (DESK, 125, TrainConfig(max_epochs=3)),
    ((MlpConfig(hidden=(200, 100, 50, 25)), 10, 2), 45,
     TrainConfig(max_epochs=2)),
    (DESK, 30, TrainConfig(batch_size=1000, max_epochs=3)),
]
SHAPE_IDS = ["output-width-1", "output-width-1-batch-1", "output-width-1-batch-16",
             "input-width-1", "hidden-width-1-batch-16", "one-wide", "batch-16", "batch-64",
             "slope-0", "slope-1", "n-125", "four-hidden-layers", "batch-over-n"]


class TestStepEquivalence:
    """`train` is bit-identical to the frozen reference step above."""

    @pytest.mark.parametrize("n", [100, 101, 102, 103])
    def test_desk_shape_every_partial_batch(self, n):
        got, got_log, ref, ref_log = fit_both(DESK, n, TrainConfig(max_epochs=3), seed=n)
        assert np.array_equal(got, ref)
        assert got_log == ref_log

    @pytest.mark.parametrize(
        "net, tcfg",
        [
            ((MlpConfig(dropout_rate=0.0), 28, 2), TrainConfig(max_epochs=3)),
            (DESK, TrainConfig(batch_size=1, max_epochs=2)),
            ((MlpConfig(hidden=(64, 32, 16), dropout_rate=0.3), 6, 3),
             TrainConfig(batch_size=7, max_epochs=5)),
        ],
        ids=["no-dropout", "batch-1", "three-hidden-layers"],
    )
    def test_other_shapes(self, net, tcfg):
        got, got_log, ref, ref_log = fit_both(net, 45, tcfg)
        assert np.array_equal(got, ref)
        assert got_log == ref_log

    @pytest.mark.parametrize("net, n, tcfg", SHAPES, ids=SHAPE_IDS)
    def test_every_matmul_dispatch(self, net, n, tcfg):
        got, got_log, ref, ref_log = fit_both(net, n, tcfg)
        assert np.array_equal(got, ref)
        assert got_log == ref_log

    def test_patience_stop(self):
        net = (MlpConfig(hidden=(16, 8)), 5, 2)
        tcfg = TrainConfig(learning_rate=0.05, patience=2, max_epochs=200)
        got, got_log, ref, ref_log = fit_both(net, 30, tcfg)
        assert len(got_log.losses) < tcfg.max_epochs
        assert np.array_equal(got, ref)
        assert got_log == ref_log

    def test_predict_batch(self):
        model = init_model(*DESK, seed=3)
        x = np.random.default_rng(4).random((2000, 28))
        assert np.array_equal(predict_batch(model, x), reference_forward(model, x, False, None)[0])


def train_recording_paths(monkeypatch, kernel, net, n, tcfg):
    """Train with `surrogate.native_kernel` returning `kernel`; return the theta, the
    log, and which forward/backward paths the steps took ("native", "numpy")."""
    monkeypatch.setattr(surrogate, "native_kernel", lambda: kernel)
    paths = set()
    loss_and_grads = surrogate._loss_and_grads

    def recording(*args):
        paths.add("numpy" if args[-1] is None else "native")
        return loss_and_grads(*args)

    monkeypatch.setattr(surrogate, "_loss_and_grads", recording)
    rng = np.random.default_rng(31)
    _, input_dim, output_dim = net
    x, t = rng.random((n, input_dim)), rng.normal(size=(n, output_dim))
    trained, log = train(init_model(*net, seed=32), x, t, tcfg, np.random.default_rng(33))
    monkeypatch.setattr(surrogate, "_loss_and_grads", loss_and_grads)
    return trained.theta, log, paths


class TestNativePass:
    """The C forward/backward pass: its self-check and its fallbacks."""

    NET = (MlpConfig(hidden=(50,)), 6, 1)
    TCFG = TrainConfig(max_epochs=4)

    @pytest.mark.parametrize("net, n, tcfg", SHAPES, ids=SHAPE_IDS)
    def test_batch_gradients_are_numpys_bits(self, kernel, net, n, tcfg):
        # Adam's update hides a last-bit change in a gradient, so compare gradients.
        mlp, input_dim, output_dim = net
        rng = np.random.default_rng(n)
        model = init_model(*net, seed=1)
        xs, ts = rng.random((n, input_dim)), rng.normal(size=(n, output_dim))
        masks = surrogate._dropout_masks(rng, n, mlp)
        grad = np.empty_like(model.theta)
        want = model.like(np.empty_like(model.theta))
        run = native.fwd_bwd_binder(kernel, model.theta, grad, model.widths, mlp.leaky_slope,
                                  tcfg.batch_size)(xs, ts, masks)
        for start in range(0, n, tcfg.batch_size):
            stop = min(start + tcfg.batch_size, n)
            run(start, stop)
            surrogate._loss_and_grads(model, xs, ts, masks, start, stop,
                                      want.weights, want.biases)
            assert grad.tobytes() == want.theta.tobytes(), (start, stop)

    def test_bound_pass_holds_its_arrays(self, kernel):
        # `bind` gets temporaries only; freed arrays would leave `run` reading reused memory.
        mlp = self.NET[0]
        rng = np.random.default_rng(8)
        model = init_model(*self.NET, seed=5)
        xs, ts = rng.random((30, 6)), rng.normal(size=(30, 1))
        masks = surrogate._dropout_masks(rng, 30, mlp)
        grad = np.empty_like(model.theta)
        run = native.fwd_bwd_binder(kernel, model.theta, grad, model.widths, mlp.leaky_slope,
                                  30)(xs.copy(), ts.copy(), masks.copy())
        gc.collect()
        clobber = [np.full_like(a, np.nan) for a in (xs, ts, masks) for _ in range(4)]
        run(0, 30)
        want = model.like(np.empty_like(model.theta))
        surrogate._loss_and_grads(model, xs, ts, masks, 0, 30, want.weights, want.biases)
        assert grad.tobytes() == want.theta.tobytes()
        del clobber

    def test_wrong_dispatch_fails_the_self_check(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        source = native._SOURCE.read_text()
        check = native._fwd_bwd_check
        mutations = [
            ("a_m * s, a_n * s", "a_n * s, a_m * s"),  # the left operand's strides swapped
            ("if (width == 1) {", "if (width == 0) {"),  # a single column summed row by row
            ("out[j] = 0.0;", "out[j] = -0.0;"),  # column sums started from -0.0
        ]
        for i, (old, new) in enumerate(mutations):
            assert source.count(old) == 1, old
            wrong = tmp_path / f"wrong-{i}.c"
            wrong.write_text(source.replace(old, new))
            monkeypatch.setattr(native, "_SOURCE", wrong)
            monkeypatch.setattr(native, "_fwd_bwd_check", check)
            assert native.load_kernel() is None, new
            # The source builds and loads: the forward/backward check is what refuses it.
            monkeypatch.setattr(native, "_fwd_bwd_check", lambda kernel: True)
            assert native.load_kernel() is not None, new

    def test_no_float64_loop_falls_back_to_numpy(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

        def missing(ufunc):
            raise LookupError(f"{ufunc.__name__} has no float64 loop")

        monkeypatch.setattr(native, "_float64_loop", missing)
        assert native.load_kernel() is None

    def test_float64_loop_lookup(self):
        assert native._float64_loop(np.matmul) and native._float64_loop(np.add)
        with pytest.raises(LookupError):
            native._float64_loop(np.bitwise_and)

    def test_products_and_single_column_sums_run_numpys_loops(self, kernel, tmp_path,
                                                              monkeypatch):
        # Hand the library counting loops that forward to numpy's, then run one batch.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        loop_type = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 4)
        calls = {"matmul": 0, "add": 0}

        def counting(ufunc):
            real = loop_type(native._float64_loop(ufunc))

            def loop(*args):
                calls[ufunc.__name__] += 1
                real(*args)

            return loop_type(loop)

        loops = {ufunc.__name__: counting(ufunc) for ufunc in (np.matmul, np.add)}
        monkeypatch.setattr(native, "_float64_loop", lambda ufunc: ctypes.cast(
            loops[ufunc.__name__], ctypes.c_void_p).value)
        counted = native.load_kernel()
        assert counted is not None and calls["matmul"] > 0 and calls["add"] > 0
        rng = np.random.default_rng(3)
        model = init_model(*self.NET, seed=4)
        xs, ts = rng.random((30, 6)), rng.normal(size=(30, 1))
        grad = np.empty_like(model.theta)
        want = model.like(np.empty_like(model.theta))
        run = native.fwd_bwd_binder(counted, model.theta, grad, model.widths,
                                  self.NET[0].leaky_slope, 30)(xs, ts, None)
        calls.update(matmul=0, add=0)
        run(0, 30)
        # Two layers: two forward products, two weight-gradient products, one input
        # gradient; one single-column bias sum, for the output layer.
        assert calls == {"matmul": 5, "add": 1}
        surrogate._loss_and_grads(model, xs, ts, None, 0, 30, want.weights, want.biases)
        assert grad.tobytes() == want.theta.tobytes()

    def test_source_compiles_without_warnings(self, tmp_path):
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no C compiler")
        subprocess.run([cc, *native._CFLAGS, "-Wall", "-Wextra", "-Werror", str(native._SOURCE),
                        "-o", str(tmp_path / "native.so")], check=True, timeout=120)

    def test_no_kernel_runs_numpy_for_both(self, kernel, monkeypatch):
        calls = []
        adam_numpy = native.adam_numpy
        monkeypatch.setattr(native, "adam_numpy", lambda *args: calls.append(adam_numpy(*args)))
        got, got_log, got_paths = train_recording_paths(monkeypatch, None, self.NET, 30, self.TCFG)
        assert got_paths == {"numpy"}
        assert len(calls) == 4 * math.ceil(30 / self.TCFG.batch_size)
        calls.clear()
        want, want_log, want_paths = train_recording_paths(
            monkeypatch, kernel, self.NET, 30, self.TCFG)
        assert want_paths == {"native"} and not calls
        assert np.array_equal(got, want)
        assert got_log == want_log


class TestTracerHooks:
    """`train` calls `_loss_and_grads` once per step and `_forward` in eval mode once
    per epoch, through the module globals, so a wrapper patched there sees them."""

    def test_call_counts(self, monkeypatch):
        calls = {"steps": 0, "eval": 0}
        loss_and_grads, forward = surrogate._loss_and_grads, surrogate._forward

        def counting_loss_and_grads(*args):
            calls["steps"] += 1
            return loss_and_grads(*args)

        def counting_forward(model, x, train_mode, rng):
            calls["eval"] += not train_mode
            return forward(model, x, train_mode, rng)

        monkeypatch.setattr(surrogate, "_loss_and_grads", counting_loss_and_grads)
        monkeypatch.setattr(surrogate, "_forward", counting_forward)
        rng = np.random.default_rng(0)
        n, tcfg = 23, TrainConfig(batch_size=4, max_epochs=6)
        _, log = train(init_model(SMALL, 5, 2, seed=0), rng.random((n, 5)), rng.normal(size=(n, 2)),
                       tcfg, np.random.default_rng(1))
        epochs = len(log.losses)
        assert epochs == tcfg.max_epochs
        assert calls == {"steps": epochs * math.ceil(n / tcfg.batch_size), "eval": epochs}
