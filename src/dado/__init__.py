"""Pool-based deep active design optimization laboratory.

A small MLP surrogate is retrained each iteration on candidates picked by
low-cost multi-objective query strategies from a simulated, pre-annotated
candidate pool; runs are scored with ranking-centric learning-curve metrics.
"""

import os

# The surrogate's matrices are small, so extra OpenBLAS threads buy nothing,
# and in a sweep they spin on the cores the other workers need. The setting
# only takes effect if it is made before numpy is first imported, hence here,
# before any submodule loads; a value the caller has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    EarlyStopping,
    MlpConfig,
    SurrogateModel,
    TrainConfig,
    TrainLog,
    grad_check,
    init_model,
    predict_batch,
    train,
)

__version__ = "0.1.0"
