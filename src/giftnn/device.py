"""Forward-only noisy device simulator.

The device is the in-silico model driven by its own (true) noise family and
level, wrapped so that callers get output vectors and a query count, nothing
else: no traces, no gradients, no noise values.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .checks import _integer, _where, checked
from .model import (
    ForwardTrace,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DEVICE,
    block_rows,
    forward_noisy,
    point_blocks,
    sample_noise_batch,
)

# The largest draw of one call that the device keeps for replay. Fixed, never chosen
# by a caller: it trades CPU time against memory and never changes a result.
REPLAY_BYTES = 32 * 2**20

# A noise slot is one spawn-key entry, an unsigned 64-bit integer: no two slots share a stream.
_slot = _where(_integer, "an integer in [0, 2**64)", lambda s: 0 <= s < 2**64)


class Device:
    """Opaque noisy forward oracle with a monotone query counter; it holds no parameters.

    forward_batch takes a nonempty sequence of m parameter sets of one
    architecture, an (n, d0) input matrix X, the k1 points to score as row
    indices into X (in any order, repeats allowed) and a repeat count. It runs
    every set over each point repeat times in a row, returning
    (m * k1 * repeat, dL) outputs in a new array, set-major; within a set, row
    r reads X[points[r // repeat]]. The sets and X are only read, and no
    (k1, d0) matrix of the points is built: each block gathers its own points'
    rows once, before its sets run. Every row counts in query_count.

    Every call names its noise slot, an integer in [0, 2**64); any other
    value is refused before anything is drawn. A call runs its points in the
    blocks of model.point_blocks(arch, k1, repeat), each a draw of at most
    model.BLOCK_BYTES unless one point's repeat rows exceed it, and block c
    draws its noise at spawn key (STREAM_DEVICE, slot, c) of the device
    seed, so noise depends only on (slot, layer dims, k1, repeat): calls that
    pass the same slot and shapes share their random numbers (common random
    numbers), whatever sets they score.

    Each block's draw is made once per call, and every parameter set runs
    through the block while it is live. Every draw is made into one vector the
    device owns, which grows when a call needs more and is never freed. A call
    whose whole draw fits in REPLAY_BYTES draws each block at its offset and
    keeps the draw, read-only, so the next call with the same key replays it;
    a larger call draws block after block into the vector's front. Only one
    call's draw is kept: a call on another key overwrites it in place.

    The passes keep no trace: each writes into one block's arrays, which the
    device keeps for its next call with the same dims and block size, so the
    calls of a line search allocate (and fault in) them once.
    """

    def __init__(self, noise: NoiseModel, seed: int):
        self._noise = noise
        self._stream = RngStream(seed, STREAM_DEVICE)
        self._replay_key = None
        self._replay = None
        self._draw_vector = None
        self._outputs_key = None
        self._outputs = None
        self.query_count = 0

    def forward_batch(self, params: Sequence[Params], X, points, noise_slot: int, repeat: int = 1) -> np.ndarray:
        """m * len(points) * repeat noisy inferences for m parameter sets; counts every row as a query.

        Each point, a row index into X, is queried repeat times in a row.
        """
        if not params:
            raise ValueError("no parameter sets to score")
        arch = params[0].arch
        dims = arch.layer_dims
        for p in params:
            if p.arch.layer_dims != dims:
                raise ValueError(f"params dims {p.arch.layer_dims} do not match {dims}")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != dims[0]:
            raise ValueError(f"input shape {X.shape}, want (n, {dims[0]})")
        points = np.asarray(points)
        if points.ndim != 1 or points.dtype.kind not in "iu":
            raise ValueError(f"points must be a 1-D array of row indices, got {points.dtype} of shape {points.shape}")
        if points.size and not (0 <= points.min() and points.max() < X.shape[0]):
            raise ValueError(f"points must index the {X.shape[0]} input rows, got {points.min()}..{points.max()}")
        repeat = checked("repeat", _integer, repeat)
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        noise_slot = checked("noise_slot", _slot, noise_slot)
        k1 = points.size
        out = np.empty((len(params), k1 * repeat, dims[-1]))
        key = (noise_slot, dims, k1, repeat)
        replay = self._replay if self._replay_key == key else None
        kept = None
        rows = block_rows(arch, k1, repeat)
        width = arch.noise_values_per_row
        if replay is None:
            self._replay_key = self._replay = None  # the kept draw is overwritten below
            values = out.shape[1] * width
            if 8 * values <= REPLAY_BYTES:
                kept = []
            else:
                values = rows * width  # a streamed call draws each block into the vector's front
            if self._draw_vector is None or self._draw_vector.size < values:
                self._draw_vector = None  # free the smaller vector before the larger is made
                self._draw_vector = np.empty(values)
        if self._outputs_key != (dims, rows):
            self._outputs_key, self._outputs = (dims, rows), ForwardTrace.empty(arch, rows, keep=False)
        stream = self._stream.substream(noise_slot)
        for c, (start, stop) in enumerate(point_blocks(arch, k1, repeat)):
            n = (stop - start) * repeat
            if replay is not None:
                draw = replay[c]
            else:
                at = 0 if kept is None else start * repeat * width
                block = NoiseDraw.over(arch, self._draw_vector[at:at + n * width])
                draw = sample_noise_batch(arch, self._noise, stream.generator(c), n, out=block)
                if kept is not None:
                    for v in [draw.vector, *draw.act, *draw.weigh]:
                        v.flags.writeable = False
                    kept.append(draw)
            x = X[points[start:stop]]
            for p, set_out in zip(params, out):
                trace = forward_noisy(p, x, draw, repeat, self._outputs)
                set_out[start * repeat:stop * repeat] = trace.activations[-1]
        if kept is not None:
            self._replay_key, self._replay = key, kept
        self.query_count += out.shape[0] * out.shape[1]
        return out.reshape(-1, dims[-1])
