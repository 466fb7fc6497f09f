"""Ground-truth annotation: pool lookups and the synthetic analytic pool.

The annotator simulates an expensive evaluator by reading the objectives
stored in the pool's rows. The synthetic pool is an analytic bi-objective
family whose objectives depend on the parameters, so a surrogate has
something to learn and end-to-end tests have a known geometry.
"""

from __future__ import annotations

import numpy as np

from .datapool import CandidatePool, pool_from_arrays
from .errors import ConfigError


def annotate(pool: CandidatePool, rows) -> np.ndarray:
    """Return the (len(rows), num_obj) ground-truth objectives of the given ids, in order."""
    return pool.objectives[rows]


def gen_synthetic_pool(n: int, d: int, seed: int, anchor_a=None, anchor_b=None) -> CandidatePool:
    """Generate a reproducible annotated pool; equal arguments serialize to equal bytes.

    Parameters are uniform in [0,1]^d. The two objectives are the squared
    distances to anchors a and b (default 0.25 and 0.75 in every dimension);
    they conflict everywhere except on the segment between the anchors, which
    is exactly the trade-off set.
    """
    if n < 1 or d < 1:
        raise ConfigError("synthetic pool needs n >= 1 and d >= 1")
    if n * (d + 2) > np.iinfo(np.intp).max // 8:  # float64 cells numpy can index
        raise ConfigError(f"a synthetic pool of n={n} by d={d} is too large for numpy to index")
    if seed < 0:
        raise ConfigError(f"synthetic pool seed must be non-negative, got {seed}")
    a = np.full(d, 0.25) if anchor_a is None else np.asarray(anchor_a, dtype=float)
    b = np.full(d, 0.75) if anchor_b is None else np.asarray(anchor_b, dtype=float)
    if a.shape != (d,) or b.shape != (d,):
        raise ConfigError(f"anchor points must have exactly d={d} entries")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("anchor points must be finite")
    if np.array_equal(a, b):
        raise ConfigError("anchor points must differ")
    params = np.random.default_rng(seed).random((n, d))
    objectives = np.column_stack(
        [((params - a) ** 2).sum(axis=1), ((params - b) ** 2).sum(axis=1)]
    )
    return pool_from_arrays(params, objectives)
