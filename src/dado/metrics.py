"""Per-iteration evaluation metrics and learning-curve summaries.

All comparisons happen in the scaled target space the strategies score in.
The rank metrics score draw positions against one rank array per iteration,
built by `rank_array` from the truths' `strategies.reference_order`. Ranks
are 1-based throughout: the best possible mean rank of an aq-sized selection
is (aq + 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInput, SizeMismatch


@dataclass
class IterationRecord:
    iteration: int
    train_set_size: int
    intersections: float
    mr_raw: float
    mr_norm: float
    srocc: float
    best_mse: float
    rnd_mse: float


# The per-iteration metrics: every IterationRecord field after iteration and train_set_size.
METRIC_FIELDS = tuple(f.name for f in fields(IterationRecord))[2:]


def rank_array(order) -> np.ndarray:
    """The 1-based rank of every draw position under a best-first order of them all."""
    ranks = np.empty(len(order), dtype=np.intp)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks


def intersections(selected, ranks, aq_size: int) -> float:
    """Fraction of the selected positions that lie in the true top aq_size."""
    return int(np.count_nonzero(ranks[selected] <= aq_size)) / aq_size


def optimal_mean_rank(aq_size: int) -> float:
    """Mean of ranks 1..aq_size: the value a perfect selection achieves."""
    return (aq_size + 1) / 2


def mean_rank(selected, ranks, aq_size: int) -> float:
    """Average true rank of the selected positions."""
    return int(ranks[selected].sum()) / aq_size


def normalize_mr(raw: float, mr_optimal: float, mr_first: float) -> float:
    """Map a raw mean rank onto [0, 1] between the optimum and the first iteration.

    The first iteration is taken as the worst value of the process; anything
    beyond either end clamps. A degenerate anchor (first <= optimal) maps to 0.
    """
    if mr_first <= mr_optimal:
        return 0.0
    return float(min(1.0, max(0.0, (raw - mr_optimal) / (mr_first - mr_optimal))))


def srocc(pred_order, ranks, aq_size: int) -> float:
    """Spearman rank correlation on the top-aq_size predicted candidates.

    The first aq_size positions of the predictions' order are compared with
    their true ranks, rank-transformed among themselves (tie-free, since the
    true order is strict), via rho = 1 - 6*sum(d^2) / (m*(m^2-1)).
    """
    if aq_size < 2:
        raise DegenerateInput("srocc needs at least two selected candidates")
    rel = rank_array(np.argsort(ranks[pred_order[:aq_size]]))
    d = np.arange(1, aq_size + 1) - rel
    return 1.0 - 6.0 * float(np.sum(d * d)) / (aq_size * (aq_size**2 - 1))


def mse(pred, truth) -> float:
    """Mean squared error over all candidates and objectives."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise SizeMismatch(f"prediction shape {p.shape} does not match truth shape {t.shape}")
    if p.size == 0:
        raise SizeMismatch("mse of empty arrays is undefined")
    return float(np.mean((p - t) ** 2))


def auc(curve) -> float:
    """Trapezoidal area under a unit-spaced learning curve.

    Normalized by (n - 1) so a constant curve scores its own value.
    """
    v = np.asarray(curve, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DegenerateInput("auc needs at least two curve points")
    return float(np.sum((v[1:] + v[:-1]) * 0.5)) / (v.size - 1)
