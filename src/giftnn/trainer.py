"""In-silico training: projected SGD under the presumed noise level s0."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import epoch_batches
from .gradients import GradBuffers, batch_gradient, batch_loss
from .model import (
    Architecture,
    Hyperrectangle,
    Params,
    RngStream,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_TRAIN_NOISE,
    apply_step,
    init_uniform,
    project,
)

LOSS_GUARD = 1e6  # a batch loss above this (or non-finite) aborts training


class TrainingDiverged(RuntimeError):
    """Raised when the running loss leaves the finite/bounded regime."""


@dataclass
class TrainConfig:
    """SGD schedule eps_k = eps0 / (1 + k/tau)^p with p in (0.5, 1].

    That exponent range keeps sum(eps_k) divergent and sum(eps_k^2) finite.
    Projection is optional and off by default.
    """

    s0: float
    epochs: int = 40
    batch_size: int = 64
    eps0: float = 0.1
    decay_p: float = 0.75
    tau: float = 300.0
    projection: Hyperrectangle | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.s0 > 0:
            raise ValueError("s0 must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if not 0.5 < self.decay_p <= 1.0:
            raise ValueError(f"decay exponent must be in (0.5, 1], got {self.decay_p}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")


def step_size(config: TrainConfig, k: int) -> float:
    return config.eps0 / (1.0 + k / config.tau) ** config.decay_p


@dataclass
class LossHistory:
    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def smoothed(self, alpha: float = 0.05) -> np.ndarray:
        """Exponentially smoothed running loss."""
        out = np.empty(len(self.losses))
        acc = self.losses[0] if self.losses else 0.0
        for i, v in enumerate(self.losses):
            acc = (1 - alpha) * acc + alpha * v
            out[i] = acc
        return out


def train(arch: Architecture, config: TrainConfig, data):
    """Projected SGD on the mean squared error under fresh level-s0 noise per sample.

    Starts from init_uniform weights drawn from the seed's init stream. Returns
    (params, LossHistory). Aborts with TrainingDiverged when the batch loss
    becomes non-finite or exceeds LOSS_GUARD.

    One workspace serves every step: the gradient's buffers, sized for a full
    batch (a short last batch uses their leading rows), and two parameter
    vectors that take turns holding the current parameters and the next step.
    """
    if len(data) < 1:
        raise ValueError("dataset must be nonempty")
    X, Y = data.inputs, data.targets
    params = init_uniform(arch, RngStream(config.seed, STREAM_INIT).generator(0))
    rows = min(config.batch_size, len(data))
    buffers = GradBuffers.empty(arch, rows)
    spare = Params.empty(arch)

    shuffle_rng = RngStream(config.seed, STREAM_SHUFFLE)
    noise_rng = RngStream(config.seed, STREAM_TRAIN_NOISE)
    history = LossHistory()
    k = 0
    for epoch in range(config.epochs):
        for idx in epoch_batches(len(data), config.batch_size, shuffle_rng, epoch):
            sample = batch_gradient(params, X[idx], Y[idx], config.s0, noise_rng, index=k, out=buffers)
            loss = batch_loss(sample)
            if not np.isfinite(loss) or loss > LOSS_GUARD:
                raise TrainingDiverged(f"loss {loss:.6g} at step {k} (epoch {epoch}); guard {LOSS_GUARD:g}")
            eps = step_size(config, k)
            params, spare = apply_step(params, -eps, sample.grad, out=spare), params
            if config.projection is not None:
                project(params, config.projection, out=params)
            history.steps.append(k)
            history.epochs.append(epoch)
            history.eps.append(eps)
            history.losses.append(loss)
            k += 1
    return params, history
