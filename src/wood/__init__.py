"""Wasserstein-distance out-of-distribution detection.

Transport distances between softmax outputs and class one-hots drive an OOD
score, a mixed-batch training loss with explicit gradients, threshold
calibration, and FNR/AUROC evaluation. See the README for the CLI.
"""

from .data import Dataset, Role, SyntheticKind, SyntheticSpec, load_idx_pair, synth
from .detect import EvalReport, calibrate, evaluate
from .errors import InputError, NumericError, WoodError
from .geometry import EvalPath, ScoreConfig, scores
from .loss import LossValue, loss_and_grad
from .model import ForwardTrace, MlpModel, backward, forward, init
from .trainer import (
    Checkpoint,
    TrainConfig,
    fit,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    train_step,
)
from .transport import (
    CostKind,
    SinkhornConfig,
    TransportResult,
    sinkhorn_batch,
    sinkhorn_gradient,
)

__version__ = "0.1.0"
