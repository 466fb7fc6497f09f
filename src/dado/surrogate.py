"""From-scratch MLP regressor used as the trainable surrogate.

Architecture: fully connected, leaky-ReLU activations and inverted dropout on
each hidden layer, linear outputs (one per objective). Training is mini-batch
Adam on the joint MSE over all normalized objectives, retrained from scratch
every iteration, with strict-decrease early stopping on the full-training-set
epoch loss and reload of the best epoch's weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NumericalDivergence
from .native import (
    adam_updater,
    fwd_bwd_binder,
    native_kernel,
)

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    """The hidden layers and their activation and dropout; the input and output
    widths come from the data."""

    hidden: tuple[int, ...] = (200, 100)
    leaky_slope: float = 0.01
    dropout_rate: float = 0.1

    def __post_init__(self):
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden layer sizes must be positive")
        # The smallest net of these hidden layers; init_model checks the data's widths.
        _check_indexable((1, *self.hidden, 1), f"hidden layer sizes {self.hidden}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError("leaky_slope must lie in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 4
    patience: int = 10
    max_epochs: int = 1000

    def __post_init__(self):
        if not 0.0 < self.learning_rate < float("inf"):
            raise ConfigError("learning_rate must be positive and finite")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, patience, and max_epochs must be >= 1")


@dataclass
class TrainLog:
    """Per-epoch full-set losses, one per epoch run, and where the minimum sat."""

    losses: list[float]
    best_epoch: int


def _layer_shapes(widths: tuple[int, ...]) -> list[tuple[int, int]]:
    """(fan_out, fan_in) per layer, input to output."""
    return list(zip(widths[1:], widths[:-1]))


def _parameter_count(widths: tuple[int, ...]) -> int:
    """The weights and biases of a net of these layer widths."""
    return sum(fan_out * (fan_in + 1) for fan_out, fan_in in _layer_shapes(widths))


def _check_indexable(widths: tuple[int, ...], what: str) -> None:
    """Raise ConfigError when the parameters of a net of these layer widths are more
    float64 cells than numpy can index; `what` names the widths' source."""
    if _parameter_count(widths) > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{what} give more weights than numpy can index")


class SurrogateModel:
    """The whole network as one contiguous float64 vector `theta`.

    Layout: W0, b0, W1, b1, ... with each weight of shape (fan_out, fan_in).
    `weights[k]` and `biases[k]` are views into `theta`, so a write through
    either shows in the other, and the Adam step updates every layer at once.
    `widths` are the layer widths from input to output.
    """

    def __init__(self, config: MlpConfig, input_dim: int, output_dim: int, theta):
        self.config = config
        self.widths = (input_dim, *config.hidden, output_dim)
        self.theta = np.ascontiguousarray(theta, dtype=np.float64)
        size = _parameter_count(self.widths)
        if self.theta.shape != (size,):
            raise DimensionMismatch(
                f"theta of shape {self.theta.shape} does not fit a model of {size} parameters"
            )
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for fan_out, fan_in in _layer_shapes(self.widths):
            end = offset + fan_out * fan_in
            self.weights.append(self.theta[offset:end].reshape(fan_out, fan_in))
            self.biases.append(self.theta[end : end + fan_out])
            offset = end + fan_out

    def like(self, theta) -> "SurrogateModel":
        """A model of this shape over `theta`."""
        return SurrogateModel(self.config, self.widths[0], self.widths[-1], theta)

    def copy(self) -> "SurrogateModel":
        return self.like(self.theta.copy())


def layer_widths(config: MlpConfig, input_dim: int, output_dim: int) -> tuple[int, ...]:
    """The layer widths, from input to output, of a net of `config` between data of
    these widths; ConfigError when numpy could not index its weights."""
    widths = (input_dim, *config.hidden, output_dim)
    _check_indexable(widths, f"hidden layer sizes {config.hidden} between {input_dim} inputs "
                             f"and {output_dim} outputs")
    return widths


def init_model(config: MlpConfig, input_dim: int, output_dim: int, seed: int) -> SurrogateModel:
    """Fan-in-scaled uniform weight init, zero biases, deterministic under seed."""
    widths = layer_widths(config, input_dim, output_dim)
    rng = np.random.default_rng(seed)
    parts = []
    for fan_out, fan_in in _layer_shapes(widths):
        bound = 1.0 / np.sqrt(fan_in)
        parts += [rng.uniform(-bound, bound, size=fan_out * fan_in), np.zeros(fan_out)]
    return SurrogateModel(config, input_dim, output_dim, np.concatenate(parts))


def _dropout_masks(rng, rows: int, config: MlpConfig):
    """One flat draw of inverted-dropout masks (1/(1-p) kept, 0 dropped) for `rows`
    rows of every hidden layer; None without dropout."""
    p = config.dropout_rate
    if p == 0.0:
        return None
    masks = rng.random(rows * sum(config.hidden))
    np.greater_equal(masks, p, out=masks)
    masks /= 1.0 - p
    return masks


def _forward(model: SurrogateModel, x: np.ndarray, train_mode: bool, rng):
    """Batch forward pass; returns (output, cache).

    In train mode the cache holds per-layer backprop state. In eval mode it is
    None: each layer's activation overwrites its pre-activation and the layer
    before it is freed, with the same IEEE operations in the same order.
    """
    if train_mode:
        return _propagate(model, x, _dropout_masks(rng, len(x), model.config))
    slope = model.config.leaky_slope
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(h, slope * h, out=h)
    y = h @ model.weights[-1].T
    y += model.biases[-1]
    return y, None


def _propagate(model: SurrogateModel, x: np.ndarray, masks):
    """`_forward` with flat dropout `masks` (or None): layer 0's rows x hidden[0] first."""
    slope = model.config.leaky_slope
    h = x
    cache = []
    offset = 0
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w.T
        z += b
        # Leaky ReLU; equals where(z > 0, z, slope * z) for slope in [0, 1].
        a = np.maximum(z, slope * z)
        mask = None
        if masks is not None:
            mask = masks[offset : offset + a.size].reshape(a.shape)
            offset += a.size
            a *= mask
        cache.append((h, z, mask))
        h = a
    cache.append((h, None, None))
    y = h @ model.weights[-1].T
    y += model.biases[-1]
    return y, cache


def _loss_and_grads(model, xs, ts, masks, start, stop, gw, gb, native=None) -> None:
    """Gradients of the MSE of batch rows start:stop of xs/ts, written into gw/gb in place.

    `masks` holds every row's dropout masks as `_dropout_masks` lays them out,
    or is None. `native` is the C pass bound to these arrays and to gw/gb
    (`fwd_bwd_binder`), which gives the same bits; None runs numpy, the
    reference.
    """
    if native is not None:
        native(start, stop)
        return
    if masks is not None:
        width = sum(model.config.hidden)
        masks = masks[start * width : stop * width]
    g, cache = _propagate(model, xs[start:stop], masks)
    g -= ts[start:stop]
    g *= 2.0 / g.size
    np.matmul(g.T, cache[-1][0], out=gw[-1])
    np.add.reduce(g, axis=0, out=gb[-1])
    g = g @ model.weights[-1]
    slope = model.config.leaky_slope
    for layer in range(len(model.weights) - 2, -1, -1):
        h_in, z, mask = cache[layer]
        if mask is not None:
            g *= mask
        g = np.where(z > 0.0, g, slope * g)
        np.matmul(g.T, h_in, out=gw[layer])
        np.add.reduce(g, axis=0, out=gb[layer])
        if layer > 0:
            g = g @ model.weights[layer]


def train(model: SurrogateModel, inputs, targets, cfg: TrainConfig, rng):
    """Train a copy of the model; returns (trained model, TrainLog).

    Shuffled mini-batches (last partial batch kept), Adam updates, epoch loss
    evaluated on the whole training set in eval mode. Stops once the loss has
    not strictly decreased for `patience` epochs or at max_epochs, and reloads
    the best epoch's weights.

    Per epoch `rng` gives one permutation, then one draw of every dropout mask
    of the epoch, laid out batch by batch and, within a batch, layer by layer.
    """
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim != 2 or t.ndim != 2 or x.shape[0] != t.shape[0]:
        raise DimensionMismatch("inputs and targets must be 2-D with matching row counts")
    if x.shape[0] == 0:
        raise DimensionMismatch("training set is empty")
    widths = model.widths
    if x.shape[1] != widths[0] or t.shape[1] != widths[-1]:
        raise DimensionMismatch(
            f"data is {x.shape[1]}->{t.shape[1]} but model is {widths[0]}->{widths[-1]}"
        )

    work = model.copy()
    theta = work.theta
    grad = np.zeros_like(theta)
    grads = work.like(grad)
    gw, gb = grads.weights, grads.biases

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    kernel = native_kernel()
    update = adam_updater(
        kernel, theta, grad, m, v,
        learning_rate=cfg.learning_rate, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS,
    )
    n = x.shape[0]
    batches = [(start, min(start + cfg.batch_size, n)) for start in range(0, n, cfg.batch_size)]
    config = work.config
    bind = fwd_bwd_binder(kernel, theta, grad, widths, config.leaky_slope, min(cfg.batch_size, n))
    step = 0
    best_loss, best_epoch = float("inf"), -1
    losses: list[float] = []
    best_theta = theta.copy()
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        masks = _dropout_masks(rng, n, config)
        xs, ts = x[order], t[order]
        native = None if bind is None else bind(xs, ts, masks)
        for start, stop in batches:
            _loss_and_grads(work, xs, ts, masks, start, stop, gw, gb, native)
            step += 1
            update(step)
        # The epoch's masks, and the C pass bound to them, go before the epoch
        # loss and the next draw, so neither holds them.
        masks = native = None
        pred, _ = _forward(work, x, False, None)
        pred -= t
        epoch_loss = float(np.mean(pred * pred))
        if not np.isfinite(epoch_loss):
            raise NumericalDivergence(f"non-finite training loss at epoch {epoch}")
        losses.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss, best_epoch = epoch_loss, epoch
            best_theta[:] = theta
        elif epoch - best_epoch >= cfg.patience:
            break

    theta[:] = best_theta
    if not np.isfinite(theta).all():
        raise NumericalDivergence("non-finite weights after training")
    return work, TrainLog(losses, best_epoch)


def predict_batch(model: SurrogateModel, inputs) -> np.ndarray:
    """Predict normalized objectives for (n, d) normalized inputs, order preserving."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.widths[0]:
        raise DimensionMismatch(
            f"inputs of shape {x.shape} do not match input width {model.widths[0]}"
        )
    y, _ = _forward(model, x, False, None)
    return y
