"""Topology-consistent descriptor learning toolkit.

Trains small unit-norm embedding networks with a triplet objective whose
positive term blends Euclidean distance with a locally-linear topology
distance, using hardest-in-batch negative mining throughout.
"""

import os

# One BLAS thread unless the caller set one: BLAS's default of a thread per
# CPU fights the row split's pinned pool (README "Threads"). This runs
# before numpy is first imported; a caller who imports numpy first sets
# these variables before doing so.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import RunConfig, parse_config_file, resolve_config
from .data import DatasetFile, generate, read_dataset, sample_batch, write_dataset
from .errors import (
    DatasetFormatError,
    DegenerateDescriptorError,
    DegenerateFitError,
    InvalidArgumentError,
    InvalidBatchError,
    InvalidInputError,
    SingularSystemError,
)
from .gradcheck import GradCheckReport, grad_check
from .knn import pairwise_distances
from .loss import LossReport, batch_loss, lambda_schedule
from .metrics import MetricReport, fpr95, retrieval_map, verification_pairs
from .net import EmbeddingNet, embed, init_net, load_checkpoint, save_checkpoint, sgd_step
from .topology import batch_topology_vectors, topology_distance
from .train import TrainingDivergenceError, TrainResult, run_training

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "parse_config_file",
    "resolve_config",
    "DatasetFile",
    "generate",
    "read_dataset",
    "sample_batch",
    "write_dataset",
    "DatasetFormatError",
    "DegenerateDescriptorError",
    "DegenerateFitError",
    "InvalidArgumentError",
    "InvalidBatchError",
    "InvalidInputError",
    "SingularSystemError",
    "GradCheckReport",
    "grad_check",
    "pairwise_distances",
    "LossReport",
    "batch_loss",
    "lambda_schedule",
    "MetricReport",
    "fpr95",
    "retrieval_map",
    "verification_pairs",
    "EmbeddingNet",
    "embed",
    "init_net",
    "load_checkpoint",
    "save_checkpoint",
    "sgd_step",
    "batch_topology_vectors",
    "topology_distance",
    "TrainingDivergenceError",
    "TrainResult",
    "run_training",
    "__version__",
]
