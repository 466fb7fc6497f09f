"""Ground-truth annotation: pool lookups and synthetic pool generators.

The annotator simulates an expensive evaluator by reading the objectives
stored in the pool's rows. Synthetic pools serve two purposes: a Gaussian
objective cloud (independent of the parameters) for exercising selection and
metrics in isolation, and an analytic bi-objective family whose objectives
actually depend on the parameters, for end-to-end tests where the surrogate
has something to learn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datapool import CandidatePool, pool_from_arrays
from .errors import ConfigError, InvalidCovariance

GAUSSIAN_KIND = "gaussian-objectives"
ANALYTIC_KIND = "analytic-biobjective"


def annotate(pool: CandidatePool, rows) -> np.ndarray:
    """Return the (len(rows), num_obj) ground-truth objectives of the given ids, in order."""
    return pool.objectives[rows]


@dataclass(frozen=True)
class SyntheticPoolSpec:
    """Recipe for a reproducible synthetic pool.

    Gaussian kind: parameters uniform in [0,1]^d, objectives drawn from a
    multivariate normal and unrelated to the parameters. Analytic kind:
    objectives are the squared distances to two anchor points in [0,1]^d;
    they conflict everywhere except on the segment between the anchors, which
    is exactly the trade-off set, so end-to-end tests have a known geometry.
    """

    kind: str
    n: int
    d: int
    seed: int
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    anchor_a: np.ndarray | None = None
    anchor_b: np.ndarray | None = None

    @classmethod
    def gaussian(cls, n, d, seed, mean=None, cov=None) -> "SyntheticPoolSpec":
        mean = np.zeros(2) if mean is None else np.asarray(mean, dtype=float)
        cov = np.eye(len(mean)) if cov is None else np.asarray(cov, dtype=float)
        return cls(GAUSSIAN_KIND, int(n), int(d), int(seed), mean=mean, cov=cov)

    @classmethod
    def analytic(cls, n, d, seed, anchor_a=None, anchor_b=None) -> "SyntheticPoolSpec":
        a = np.full(d, 0.25) if anchor_a is None else np.asarray(anchor_a, dtype=float)
        b = np.full(d, 0.75) if anchor_b is None else np.asarray(anchor_b, dtype=float)
        return cls(ANALYTIC_KIND, int(n), int(d), int(seed), anchor_a=a, anchor_b=b)

    @property
    def num_obj(self) -> int:
        return len(self.mean) if self.kind == GAUSSIAN_KIND else 2


def _cholesky_or_raise(cov: np.ndarray) -> np.ndarray:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidCovariance("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        raise InvalidCovariance("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise InvalidCovariance("covariance must be positive-definite") from None


def gen_synthetic_pool(spec: SyntheticPoolSpec) -> CandidatePool:
    """Generate an annotated pool; identical specs serialize to identical bytes."""
    if spec.n < 1 or spec.d < 1:
        raise ConfigError("synthetic pool needs n >= 1 and d >= 1")
    rng = np.random.default_rng(spec.seed)
    params = rng.random((spec.n, spec.d))
    if spec.kind == GAUSSIAN_KIND:
        chol = _cholesky_or_raise(spec.cov)
        z = rng.standard_normal((spec.n, len(spec.mean)))
        objectives = spec.mean + z @ chol.T
    elif spec.kind == ANALYTIC_KIND:
        a, b = spec.anchor_a, spec.anchor_b
        if a.shape != (spec.d,) or b.shape != (spec.d,):
            raise ConfigError("anchor points must have length d")
        if np.array_equal(a, b):
            raise ConfigError("anchor points must differ")
        objectives = np.column_stack(
            [((params - a) ** 2).sum(axis=1), ((params - b) ** 2).sum(axis=1)]
        )
    else:
        raise ConfigError(f"unknown synthetic pool kind {spec.kind!r}")
    return pool_from_arrays(params, objectives)
