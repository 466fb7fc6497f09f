"""Query strategies: the best-first order of a draw and the batch taken from it.

Both objectives are minimized, and scores operate on target-normalized
predictions so the two axes are comparable. L2-Select keeps the candidates
with the smallest Euclidean norm of the predicted objective vector.
L2-Reject drops the candidates closest to the componentwise maximum of the
draw's predictions and keeps the remainder, which favors the edges of the
predicted cloud. Random samples uniformly.

`reference_order` is the one ordering function: the loop orders each draw's
predictions with it, to select and to score, and the draw's truths, to score.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigError


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


def reference_order(kind: StrategyKind, ys) -> np.ndarray:
    """Draw positions ranked best-first under the strategy's scoring rule.

    L2-Select ranks ascending by norm, ties broken by ascending position; the
    random strategy has no ordering of its own and ranks the same way.
    L2-Reject rejects ascending by distance to the componentwise maximum of
    `ys`, so its best-first order is that order reversed: the first aq
    positions are exactly the non-rejected set for every aq, ties included.
    """
    ys = np.asarray(ys, dtype=float)
    if kind is StrategyKind.L2_REJECT:
        return np.argsort(np.linalg.norm(ys - ys.max(axis=0), axis=1), kind="stable")[::-1]
    return np.argsort(np.linalg.norm(ys, axis=1), kind="stable")


def select(kind: StrategyKind, order, aq_size: int, rng=None) -> np.ndarray:
    """The aq_size draw positions the strategy acquires, given the predictions' order.

    The norm strategies take the head of `order`, their `reference_order`;
    random samples the draw uniformly without replacement from `rng`.
    """
    if kind is StrategyKind.RANDOM:
        return rng.choice(len(order), size=aq_size, replace=False)
    return order[:aq_size]
