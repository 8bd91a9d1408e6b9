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

    Queries are batches: forward_batch takes (k1, d0) per-point inputs and a
    repeat count and returns (k1 * repeat, dL) outputs, row r reading input
    X[r // repeat]. Every call names its noise slot: noise for slot j is
    exactly the batch draw an in-silico sampler would produce at stream
    (seed, STREAM_DEVICE) index j. Passing the same slot to two calls of
    identical batch size replays the same noise (common random numbers).

    The last draw is kept, read-only, keyed by (slot, batch size), so a run of
    calls on one slot draws its noise once and replays it, not regenerates it.
    Only one draw is ever kept: a call on another key drops it before drawing.
    Every call still counts its rows in query_count.

    A call's noise is always the whole-batch draw, but the forward pass runs over
    consecutive CHUNK_ROWS-row tiles of the repeated rows and of that draw, each
    tile gathering its own input rows and writing into one preallocated output,
    so no repeated input matrix is built and intermediates stay cache-sized.
    Tiled outputs equal a whole-batch _forward up to BLAS rounding in the last
    bits.
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

    def forward_batch(self, X, noise_slot: int, repeat: int = 1) -> np.ndarray:
        """n = len(X) * repeat noisy inferences with independent per-row noise; counts n queries.

        Each input row is queried repeat times in a row, as Dataset.repeated would lay them out.
        """
        X = np.asarray(X, dtype=float)
        dims = self._params.arch.layer_dims
        if X.ndim != 2 or X.shape[1] != dims[0]:
            raise ValueError(f"input shape {X.shape}, want (n, {dims[0]})")
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        n = X.shape[0] * repeat
        draw = self._draw(noise_slot, n)
        self.query_count += n
        out = np.empty((n, dims[-1]))
        tile = np.empty((min(n, CHUNK_ROWS), dims[0]))  # every tile gathers its input rows into this buffer
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            # the indices are always in range; mode="raise" would gather into a temporary, not into tile
            rows = np.take(X, np.arange(start, stop) // repeat, axis=0, out=tile[:stop - start], mode="clip")
            out[start:stop] = _forward(self._params, rows, draw.rows(start, stop)).activations[-1]
        return out
