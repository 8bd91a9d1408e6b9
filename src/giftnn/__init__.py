"""Noise-aware training of feed-forward networks and gradient-informed
fine-tuning against a forward-only noisy device simulator."""

from .model import (
    Architecture,
    ForwardTrace,
    Hyperrectangle,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    forward_deterministic,
    forward_noisy,
    load_params,
    project,
    sample_noise_batch,
    save_params,
)
from .gradients import backward, batch_gradient
from .trainer import TrainConfig, TrainingDiverged, train
from .gift import (
    EvalReport,
    GiftConfig,
    GiftTrace,
    estimate_direction,
    eval_in_situ,
    gift_run,
    noise_weight_factor,
    normalize,
)
from .device import Device
from .data import Dataset, load_idx, load_mnist, synthetic_linear, synthetic_teacher, to_dataset

__version__ = "0.1.0"
