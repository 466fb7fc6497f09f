"""Query strategies: norm-based scoring and batch subset selection.

Both objectives are minimized, and scores operate on target-normalized
predictions so the two axes are comparable. L2-Select keeps the candidates
with the smallest Euclidean norm of the predicted objective vector.
L2-Reject drops the candidates closest to the componentwise maximum of the
draw's predictions and keeps the remainder, which favors the edges of the
predicted cloud.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import AcquisitionTooLarge, ConfigError, EmptyDraw


class StrategyKind(Enum):
    L2_SELECT = "l2-select"
    L2_REJECT = "l2-reject"
    RANDOM = "random"

    @classmethod
    def from_name(cls, name: str) -> "StrategyKind":
        for kind in cls:
            if kind.value == name:
                return kind
        names = ", ".join(k.value for k in cls)
        raise ConfigError(f"unknown strategy {name!r}; expected one of: {names}")


def component_max(ys) -> np.ndarray:
    """Componentwise maximum over a set of objective vectors."""
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise EmptyDraw("component_max needs at least one vector")
    return ys.max(axis=0)


def _as_matrix(predictions) -> np.ndarray:
    ys = np.asarray(predictions, dtype=float)
    if ys.ndim != 2:
        ys = np.atleast_2d(ys)
    return ys


def selection_order(kind: StrategyKind, ys) -> np.ndarray:
    """Draw positions ranked best-first under the strategy's scoring rule.

    L2-Select (also used as the random baseline's reference) ranks ascending
    by norm, ties broken by ascending position. L2-Reject rejects ascending by
    distance-to-maximum, so the best-first ranking is that order reversed;
    taking the first aq positions then yields exactly the non-rejected set for
    every aq, ties included.
    """
    ys = _as_matrix(ys)
    if kind is StrategyKind.L2_REJECT:
        return np.argsort(np.linalg.norm(ys - component_max(ys), axis=1), kind="stable")[::-1]
    return np.argsort(np.linalg.norm(ys, axis=1), kind="stable")


def select(kind: StrategyKind, predictions, aq_size: int, rng=None) -> np.ndarray:
    """Choose aq_size draw positions (an int array) according to the query strategy.

    The random strategy samples uniformly without replacement; the norm
    strategies are fully deterministic (ties broken by draw position).
    """
    ys = _as_matrix(predictions)
    n = ys.shape[0]
    if aq_size > n:
        raise AcquisitionTooLarge(f"aq_size {aq_size} exceeds draw of {n} candidates")
    if kind is StrategyKind.RANDOM:
        if rng is None:
            raise ValueError("random selection needs an rng")
        return rng.choice(n, size=aq_size, replace=False)
    return selection_order(kind, ys)[:aq_size]
