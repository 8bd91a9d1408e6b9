"""Forward-only noisy device simulator.

The device is the in-silico model driven by its own (true) noise family and
level, wrapped so that callers get output vectors and a query count, nothing
else: no traces, no gradients, no noise values.
"""

from __future__ import annotations

import numpy as np

from .model import (
    CHUNK_ROWS,
    Architecture,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DEVICE,
    _forward,
    sample_noise_batch,
)


class Device:
    """Opaque noisy forward oracle with a monotone query counter.

    Queries are batches: forward_batch takes (n, d0) input rows and returns
    (n, dL) outputs. Noise for slot j is exactly the batch draw an in-silico
    sampler would produce at stream (seed, STREAM_DEVICE) index j. Passing the
    same slot to two calls of identical batch size replays the same noise
    (common random numbers); slot-less calls consume fresh slots.

    The last draw is kept, read-only, keyed by (slot, batch size), so a run of
    calls on one slot draws its noise once and replays it, not regenerates it.
    Only one draw is ever kept: a call on another key drops it before drawing.
    Every call still counts its rows in query_count.

    A call's noise is always the whole-batch draw, but the forward pass runs over
    consecutive CHUNK_ROWS-row tiles of the inputs and of that draw, each written
    into one preallocated output, so its intermediates stay cache-sized. Tiled
    outputs equal a whole-batch _forward up to BLAS rounding in the last bits.
    """

    def __init__(self, arch: Architecture, params: Params, noise: NoiseModel, seed: int):
        if params.arch.layer_dims != arch.layer_dims:
            raise ValueError(f"params dims {params.arch.layer_dims} do not match device {arch.layer_dims}")
        self._arch = arch
        self._params = params.copy()
        self._noise = noise
        self._stream = RngStream(seed, STREAM_DEVICE)
        self._next_slot = 0
        self._cached_key = None
        self._cached_draw = None
        self.query_count = 0

    @property
    def arch(self) -> Architecture:
        return self._arch

    @property
    def seed(self) -> int:
        return self._stream.seed

    def new_slot(self) -> int:
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _draw(self, slot: int, n: int):
        """Noise for slot at batch size n, drawn once per run of equal keys."""
        if self._cached_key != (slot, n):
            self._cached_key = self._cached_draw = None  # free the old draw before the next is made
            draw = sample_noise_batch(self._arch, self._noise, self._stream, slot, n)
            for v in draw.act + draw.weigh:
                v.flags.writeable = False
            self._cached_key, self._cached_draw = (slot, n), draw
        return self._cached_draw

    def forward_batch(self, X, noise_slot: int | None = None) -> np.ndarray:
        """n noisy inferences with independent per-row noise; counts n queries."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._arch.layer_dims[0]:
            raise ValueError(f"input shape {X.shape}, want (n, {self._arch.layer_dims[0]})")
        n = X.shape[0]
        slot = self.new_slot() if noise_slot is None else noise_slot
        draw = self._draw(slot, n)
        self.query_count += n
        out = np.empty((n, self._arch.layer_dims[-1]))
        for start in range(0, n, CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            out[start:stop] = _forward(self._params, X[start:stop], draw.rows(start, stop)).activations[-1]
        return out


def set_device_params(device: Device, params: Params) -> Device:
    """Map new parameters onto the device; the query counter is untouched."""
    if params.arch.layer_dims != device.arch.layer_dims:
        raise ValueError(
            f"params dims {params.arch.layer_dims} do not match device {device.arch.layer_dims}"
        )
    device._params = params.copy()
    return device
