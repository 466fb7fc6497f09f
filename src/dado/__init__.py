"""Pool-based deep active design optimization laboratory.

A small MLP surrogate is retrained each iteration on candidates picked by
low-cost multi-objective query strategies from a simulated, pre-annotated
candidate pool; runs are scored with ranking-centric learning-curve metrics.
"""

import ctypes
import os
import platform

# The surrogate's matrices are small, so extra OpenBLAS threads buy nothing,
# and in a sweep they spin on the cores the other workers need. The setting
# only takes effect if it is made before numpy is first imported, hence here,
# before any submodule loads; a value the caller has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _pin_malloc_thresholds() -> None:
    """Serve numpy's 1-4 MB temporaries from glibc's heap, not from fresh mappings.

    glibc maps each block above its mmap threshold (128 KiB at first, raised
    only when a mapped block is freed) afresh and zero-filled, so a loop whose
    temporaries grow takes a page fault per 4 KiB of each. Pinning the
    threshold at 32 MiB, the largest glibc accepts, and the trim threshold at
    64 MiB keeps freed blocks in the heap for the next allocation. A user who
    sets either threshold, by `MALLOC_*_THRESHOLD_` or a `glibc.malloc`
    tunable, keeps glibc's own behaviour with that setting.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

from .datapool import (
    CandidatePool,
    FeatureNormalizer,
    TargetNormalizer,
    bootstrap_draw,
    consume,
    fit_normalizers,
    initial_sample,
    load_pool,
    pool_from_arrays,
    save_pool,
)
from .loop import (
    ExperimentResult,
    ScenarioConfig,
    SweepSummary,
    derive_rng,
    derive_seed,
    run_experiment,
    run_sweep,
)
from .metrics import (
    METRIC_FIELDS,
    IterationRecord,
    LearningCurve,
    auc,
    intersections,
    mean_rank,
    mse,
    normalize_mr,
    optimal_mean_rank,
    reference_order,
    srocc,
)
from .oracle import annotate, gen_synthetic_pool
from .strategies import (
    StrategyKind,
    component_max,
    select,
    selection_order,
)
from .surrogate import (
    MlpConfig,
    SurrogateModel,
    TrainConfig,
    TrainLog,
    init_model,
    predict_batch,
    train,
)

__version__ = "0.1.0"
