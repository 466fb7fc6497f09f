"""Gradient checks for the surrogate: analytic backprop against central differences.

The analytic gradients come from `dado.surrogate._loss_and_grads` with no C
pass bound, so they are the numpy reference pass that the C forward/backward
pass is compared against elsewhere.
"""

import numpy as np

from dado.surrogate import SurrogateModel, _forward, _loss_and_grads


def _sample_loss(model: SurrogateModel, x: np.ndarray, y: np.ndarray) -> float:
    pred, _ = _forward(model, x[None, :], False, None)
    diff = pred[0] - y
    return float(np.mean(diff * diff))


def loss_gradients(model: SurrogateModel, x, y):
    """Analytic MSE gradients for one sample with dropout disabled.

    Returns (loss, gradient vector laid out like `model.theta`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grads = model.like(np.empty_like(model.theta))
    _loss_and_grads(model, x[None, :], y[None, :], None, 0, 1, grads.weights, grads.biases,
                    native=None)
    return _sample_loss(model, x, y), grads.theta


def finite_difference_gradients(model: SurrogateModel, x, y, eps: float) -> np.ndarray:
    """Central-difference MSE gradients for one sample, laid out like `model.theta`."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    work = model.copy()
    theta = work.theta
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        hi = _sample_loss(work, x, y)
        theta[i] = orig - eps
        lo = _sample_loss(work, x, y)
        theta[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Worst relative disagreement between two gradient vectors, floored denominator."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(model: SurrogateModel, sample, eps: float = 1e-5) -> float:
    """Compare analytic backprop against central finite differences.

    Returns the max relative error over every weight and bias; dropout is
    disabled on both paths.
    """
    x, y = sample
    _, analytic = loss_gradients(model, x, y)
    return max_relative_error(analytic, finite_difference_gradients(model, x, y, eps))
