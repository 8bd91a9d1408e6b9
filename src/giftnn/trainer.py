"""In-silico training: projected SGD under the presumed noise level s0."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .checks import _count, _finite, _integer, _optional, _positive, _where, check_leaves, checked, leaf
from .data import epoch_batches
from .gradients import GradBuffers, batch_gradient
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


def _box(value) -> Hyperrectangle:
    if isinstance(value, Hyperrectangle):
        return value
    keys = [f.name for f in fields(Hyperrectangle)]
    if not isinstance(value, dict) or sorted(value) != sorted(keys):
        raise ValueError(f"expected null or an object with keys {keys}, got {value!r}")
    return Hyperrectangle(**{k: _finite(v) for k, v in value.items()})


@dataclass
class TrainConfig:
    """The config's train section: SGD schedule eps_k = eps0 / (1 + k/tau)^p with p in (0.5, 1].

    That exponent range keeps sum(eps_k) divergent and sum(eps_k^2) finite.
    Projection is optional and off by default.
    """

    s0: float = leaf(0.2, _positive)
    epochs: int = leaf(40, _count)
    batch_size: int = leaf(64, _count)
    eps0: float = leaf(0.1, _positive)
    decay_p: float = leaf(0.75, _where(_finite, "in (0.5, 1]", lambda x: 0.5 < x <= 1.0))
    tau: float = leaf(300.0, _positive)
    projection: Hyperrectangle | None = leaf(None, _optional(_box))

    __post_init__ = check_leaves


def step_size(config: TrainConfig, k: int) -> float:
    return config.eps0 / (1.0 + k / config.tau) ** config.decay_p


@dataclass
class LossHistory:
    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def smoothed(self) -> np.ndarray:
        """Exponentially smoothed running loss, weight 0.05 on each new loss."""
        out = np.empty(len(self.losses))
        acc = self.losses[0] if self.losses else 0.0
        for i, v in enumerate(self.losses):
            acc = 0.95 * acc + 0.05 * v
            out[i] = acc
        return out


def train(arch: Architecture, config: TrainConfig, data, seed: int):
    """Projected SGD on the mean squared error under fresh level-s0 noise per sample.

    The integer seed keys every stream of the run. Starts from init_uniform
    weights drawn from the seed's init stream. Each epoch draws its noise from
    one generator, keyed (STREAM_TRAIN_NOISE, epoch) as the shuffle is keyed by
    epoch, and each step takes that generator's next rows. Returns (params,
    LossHistory). Aborts with TrainingDiverged when the batch loss becomes
    non-finite or exceeds LOSS_GUARD.

    One workspace serves every step: a GradBuffers (a draw, a trace and the
    gradient batch_gradient returns with the loss), sized for a full batch (a
    short last batch uses their leading rows), and two parameter vectors that
    take turns holding the current parameters and the next step.
    """
    seed = checked("seed", _integer, seed)
    if len(data) < 1:
        raise ValueError("dataset must be nonempty")
    X, Y = data.inputs, data.targets
    params = init_uniform(arch, RngStream(seed, STREAM_INIT).generator(0))
    rows = min(config.batch_size, len(data))
    buffers = GradBuffers.empty(arch, rows)
    spare = Params.empty(arch)

    shuffle_rng = RngStream(seed, STREAM_SHUFFLE)
    noise_rng = RngStream(seed, STREAM_TRAIN_NOISE)
    history = LossHistory()
    k = 0
    for epoch in range(config.epochs):
        noise_gen = noise_rng.generator(epoch)
        for idx in epoch_batches(len(data), config.batch_size, shuffle_rng, epoch):
            grad, loss = batch_gradient(params, X[idx], Y[idx], config.s0, noise_gen, out=buffers)
            if not math.isfinite(loss) or loss > LOSS_GUARD:
                raise TrainingDiverged(f"loss {loss:.6g} at step {k} (epoch {epoch}); guard {LOSS_GUARD:g}")
            eps = step_size(config, k)
            params, spare = apply_step(params, -eps, grad, out=spare), params
            if config.projection is not None:
                project(params, config.projection, out=params)
            history.steps.append(k)
            history.epochs.append(epoch)
            history.eps.append(eps)
            history.losses.append(loss)
            k += 1
    return params, history
