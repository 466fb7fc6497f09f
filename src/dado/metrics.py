"""Per-iteration evaluation metrics and learning-curve summaries.

All comparisons happen in the scaled target space the strategies score in.
Ranks are 1-based throughout: the best possible mean rank of an aq-sized
selection is (aq + 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInput, SizeMismatch, UnknownId
from .strategies import StrategyKind, selection_order


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


def reference_order(truths, kind: StrategyKind) -> list[int]:
    """Rank draw positions by true performance under the strategy's score, best first.

    Position k in the result is true rank k+1. The random strategy has no
    meaningful ordering of its own, so its reference ranks by ascending
    Euclidean norm, the same geometry L2-Select uses.
    """
    return [int(i) for i in selection_order(kind, truths)]


def intersections(selected_ids, true_top_ids, aq_size: int) -> float:
    """Fraction of the selected set that coincides with the true top set."""
    selected = {int(i) for i in selected_ids}
    true_top = {int(i) for i in true_top_ids}
    if len(selected) != aq_size or len(true_top) != aq_size:
        raise SizeMismatch(
            f"both sets must have exactly aq_size={aq_size} members, "
            f"got {len(selected)} and {len(true_top)}"
        )
    return len(selected & true_top) / aq_size


def optimal_mean_rank(aq_size: int) -> float:
    """Mean of ranks 1..aq_size: the value a perfect selection achieves."""
    return (aq_size + 1) / 2


def _positions(true_order) -> dict[int, int]:
    return {int(c): k for k, c in enumerate(true_order, start=1)}


def mean_rank(selected_ids, true_order, aq_size: int) -> float:
    """Average 1-based position of the selected candidates in the true order."""
    selected = [int(i) for i in selected_ids]
    if len(selected) != aq_size:
        raise SizeMismatch(f"expected {aq_size} selected ids, got {len(selected)}")
    pos = _positions(true_order)
    try:
        ranks = [pos[i] for i in selected]
    except KeyError as exc:
        raise UnknownId(f"selected id {exc.args[0]} is not in the true order") from None
    return float(sum(ranks)) / aq_size


def normalize_mr(raw: float, mr_optimal: float, mr_first: float) -> float:
    """Map a raw mean rank onto [0, 1] between the optimum and the first iteration.

    The first iteration is taken as the worst value of the process; anything
    beyond either end clamps. A degenerate anchor (first <= optimal) maps to 0.
    """
    if mr_first <= mr_optimal:
        return 0.0
    return float(min(1.0, max(0.0, (raw - mr_optimal) / (mr_first - mr_optimal))))


def srocc(selected_pred_order, true_order, aq_size: int) -> float:
    """Spearman rank correlation on the top-aq_size predicted candidates.

    The prediction-ranked top candidates are compared against their relative
    true ordering (their positions in the full true order, rank-transformed
    among themselves, which is tie-free because reference orders are strict),
    via rho = 1 - 6*sum(d^2) / (m*(m^2-1)).
    """
    if aq_size < 2:
        raise DegenerateInput("srocc needs at least two selected candidates")
    selected = [int(i) for i in selected_pred_order][:aq_size]
    if len(selected) < aq_size:
        raise SizeMismatch(f"need {aq_size} prediction-ranked ids, got {len(selected)}")
    pos = _positions(true_order)
    try:
        true_pos = np.array([pos[i] for i in selected])
    except KeyError as exc:
        raise UnknownId(f"selected id {exc.args[0]} is not in the true order") from None
    rel = np.empty(aq_size, dtype=int)
    rel[np.argsort(true_pos, kind="stable")] = np.arange(1, aq_size + 1)
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
