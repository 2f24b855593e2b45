"""Source-free domain adaptation at desk scale.

Adapts a small pretrained classifier to an unlabeled target domain by
clustering neighborhood predictions, aligning features along class
covariance directions, and dispersing confusable class covariances.
"""

from .adapt import (
    AdaptConfig,
    EvalMetrics,
    MetricsTrace,
    adapt,
    evaluate,
    pretrain_source,
)
from .banks import FeatureBank, init_banks, knn, update_banks
from .data import (
    Dataset,
    ShiftSpec,
    default_shift_spec,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from .errors import CheckpointError, DatasetFormatError, InvalidInputError, NumericalError
from .losses import (
    LossBreakdown,
    affinity_weights,
    decay_factor,
    efa_mc_estimate,
    fd_loss,
    ifa_loss,
    lambda_schedule,
    snc_loss,
)
from .model import Model, forward, init_model, sgd_step
from .numerics import RngState, sample_gaussian
from .stats import ClassStatistics, update_class_stats
from .verify import (
    VerifyReport,
    verify_gradients,
    verify_ifa_bound,
    verify_oracles,
    verify_snc_factorization,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "CheckpointError",
    "ClassStatistics",
    "Dataset",
    "DatasetFormatError",
    "EvalMetrics",
    "FeatureBank",
    "InvalidInputError",
    "LossBreakdown",
    "MetricsTrace",
    "Model",
    "NumericalError",
    "RngState",
    "ShiftSpec",
    "VerifyReport",
    "adapt",
    "affinity_weights",
    "decay_factor",
    "default_shift_spec",
    "efa_mc_estimate",
    "evaluate",
    "fd_loss",
    "forward",
    "gen_synthetic",
    "ifa_loss",
    "init_banks",
    "init_model",
    "knn",
    "lambda_schedule",
    "load_checkpoint",
    "load_dataset",
    "pretrain_source",
    "sample_gaussian",
    "save_checkpoint",
    "save_dataset",
    "sgd_step",
    "snc_loss",
    "update_banks",
    "update_class_stats",
    "verify_gradients",
    "verify_ifa_bound",
    "verify_oracles",
    "verify_snc_factorization",
    "__version__",
]
