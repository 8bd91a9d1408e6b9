"""Forward-only noisy device simulator.

The device is the in-silico model driven by its own (true) noise family and
level, wrapped so that callers get output vectors and a query count, nothing
else: no traces, no gradients, no noise values.
"""

from __future__ import annotations

import numpy as np

from .model import (
    CHUNK_ROWS,
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
    (n, dL) outputs. Every call names its noise slot: noise for slot j is
    exactly the batch draw an in-silico sampler would produce at stream
    (seed, STREAM_DEVICE) index j. Passing the same slot to two calls of
    identical batch size replays the same noise (common random numbers).

    The last draw is kept, read-only, keyed by (slot, batch size), so a run of
    calls on one slot draws its noise once and replays it, not regenerates it.
    Only one draw is ever kept: a call on another key drops it before drawing.
    Every call still counts its rows in query_count.

    A call's noise is always the whole-batch draw, but the forward pass runs over
    consecutive CHUNK_ROWS-row tiles of the inputs and of that draw, each written
    into one preallocated output, so its intermediates stay cache-sized. Tiled
    outputs equal a whole-batch _forward up to BLAS rounding in the last bits.
    """

    def __init__(self, params: Params, noise: NoiseModel, seed: int):
        self._params = params.copy()
        self._noise = noise
        self._stream = RngStream(seed, STREAM_DEVICE)
        self._cached_key = None
        self._cached_draw = None
        self.query_count = 0

    def load(self, params: Params) -> None:
        """Map new parameters onto the device; the query counter is untouched."""
        dims = self._params.arch.layer_dims
        if params.arch.layer_dims != dims:
            raise ValueError(f"params dims {params.arch.layer_dims} do not match device {dims}")
        self._params = params.copy()

    def _draw(self, slot: int, n: int):
        """Noise for slot at batch size n, drawn once per run of equal keys."""
        if self._cached_key != (slot, n):
            self._cached_key = self._cached_draw = None  # free the old draw before the next is made
            draw = sample_noise_batch(self._params.arch, self._noise, self._stream, slot, n)
            for v in draw.act + draw.weigh:
                v.flags.writeable = False
            self._cached_key, self._cached_draw = (slot, n), draw
        return self._cached_draw

    def forward_batch(self, X, noise_slot: int) -> np.ndarray:
        """n noisy inferences with independent per-row noise; counts n queries."""
        X = np.asarray(X, dtype=float)
        dims = self._params.arch.layer_dims
        if X.ndim != 2 or X.shape[1] != dims[0]:
            raise ValueError(f"input shape {X.shape}, want (n, {dims[0]})")
        n = X.shape[0]
        draw = self._draw(noise_slot, n)
        self.query_count += n
        out = np.empty((n, dims[-1]))
        for start in range(0, n, CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            out[start:stop] = _forward(self._params, X[start:stop], draw.rows(start, stop)).activations[-1]
        return out
