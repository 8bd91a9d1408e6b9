"""Noisy feed-forward model: architecture, parameters, noise draws, forward passes.

The model computes, for L weight layers,

    A0 = x + Na0
    zl = W(l) A(l-1) + b(l) + Nw(l)          l = 1..L
    Al = tanh(zl) + Na(l)                    l = 1..L-1
    AL = zL

with every noise vector drawn i.i.d. per component at level s. Exactly 2L noise
vectors exist: activation noise a_0..a_{L-1} and weighing noise w_1..w_L.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import _integer, checked


NOISE_FAMILIES = ("gaussian_additive", "uniform", "gaussian_multiplicative", "laplace")

# Stream ids keep independent random roles from colliding under one seed.
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_TRAIN_NOISE = 3
STREAM_DATA = 4
STREAM_ESTIMATE = 5
STREAM_EVAL = 6
STREAM_DEVICE = 7
STREAM_THEORY = 8

# Bumped whenever a result stops being reproduced from the same seeds: the same
# (seed, stream, index) gives other draws, or a consumer assigns its rows to other
# stream indices, or a pass's outputs move in the last bits (version 5: device noise
# is keyed by (slot, block) and drawn one block of whole points at a time, and the
# line search draws its slot in [1, 2^62); version 6: training draws its noise from
# one generator per epoch, keyed (STREAM_TRAIN_NOISE, epoch), each step taking the
# next rows, so train bodies and checkpoints move; device noise, the direction
# estimate and the oracles are the same as under version 5; version 7: blocks also hold
# at most BLOCK_BYTES of draw, which moves every block plan above 256 noise values per row).
STREAM_VERSION = 7

# Rows per block of every batched noisy pass: a Monte Carlo block (gift.mc_blocks)
# and a block of a device call (Device.forward_batch), both planned by point_blocks.
# A block holds at most CHUNK_ROWS rows and BLOCK_BYTES of draw: up to 256 noise values
# per row the rows bind, and a shallow_mnist block (2,194) is 119 rows, a 2 MB draw where
# 1,024 rows drew 18 MB. A pass allocates one block's arrays (a draw, a trace, residuals)
# once, sized by block_rows, and every block writes into their leading rows, so one block
# is live and no block is allocated and faulted in afresh. Fixed, never chosen by a
# caller, so results never depend on memory.
CHUNK_ROWS = 1024
BLOCK_BYTES = 2 * 2**20


def _points_per_block(arch: Architecture, k2: int) -> int:
    return max(1, min(CHUNK_ROWS, BLOCK_BYTES // (8 * arch.noise_values_per_row)) // k2)


def point_blocks(arch: Architecture, n_points: int, k2: int) -> list:
    """The block plan of a pass over n_points data points of k2 rows each: (start, stop) point ranges.

    A block holds whole points, as many as fit in CHUNK_ROWS rows and in
    BLOCK_BYTES of arch's draw, or one point when its k2 rows alone exceed either.
    """
    per_block = _points_per_block(arch, k2)
    return [(start, min(start + per_block, n_points)) for start in range(0, n_points, per_block)]


def block_rows(arch: Architecture, n_points: int, k2: int) -> int:
    """Rows of the largest block of point_blocks(arch, n_points, k2), its first: what a pass's arrays hold."""
    return min(n_points, _points_per_block(arch, k2)) * k2


def head(arrays, n: int) -> list:
    """Views of the first n rows of each array; the arrays themselves when they hold n rows, or None."""
    if arrays and arrays[0].shape[0] != n:
        return [a[:n] for a in arrays]
    return arrays


_U64 = 2**64


def mix64(x: int) -> int:
    """splitmix64 finalizer; spreads structured integers over 64 bits."""
    x = (x + 0x9E3779B97F4A7C15) % _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % _U64
    return (x ^ (x >> 31)) % _U64


@dataclass(frozen=True)
class RngStream:
    """Keyed random stream: (seed, stream_id, index) fixes every draw.

    generator(index) is an SFC64 generator seeded by a SeedSequence with entropy
    seed and spawn key (stream_id, index), so each index gets its own
    independent stream and results do not depend on scheduling or worker
    count. substream(j).generator(i) has the longer spawn key
    (stream_id, j, i), which no generator of the parent stream shares. The
    generator has been the same since stream version 2; version 1 used a keyed
    Philox counter, and its draws are not reproduced.
    """

    seed: int
    stream_id: int = 0
    prefix: tuple = ()

    def generator(self, index: int = 0) -> np.random.Generator:
        key = (self.stream_id % _U64, *self.prefix, index % _U64)
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(self.seed % _U64, spawn_key=key)))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.prefix + (index % _U64,))

    def child(self, salt: int) -> "RngStream":
        return RngStream(self.seed, mix64((self.stream_id % _U64) ^ mix64(salt)), self.prefix)


@dataclass(frozen=True)
class Architecture:
    """Layer dimensions [d0, ..., dL]; every hidden layer applies tanh."""

    layer_dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise ValueError("layer_dims needs at least [d0, d1] (one weight layer)")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be >= 1, got {self.layer_dims}")

    # the counts are worked out once per architecture: every training step reads them

    @cached_property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @cached_property
    def n_weights(self) -> int:
        """Entries of W(1)..W(L); in a parameter vector the biases start here."""
        d = self.layer_dims
        return sum(a * b for a, b in zip(d[:-1], d[1:]))

    @cached_property
    def n_params(self) -> int:
        return self.n_weights + sum(self.layer_dims[1:])

    @cached_property
    def noise_values_per_row(self) -> int:
        """Noise values of one realization: d0 + 2 * (d1 + ... + d(L-1)) + dL."""
        d = self.layer_dims
        return d[0] + 2 * sum(d[1:-1]) + d[-1]


class Params:
    """Tunable weights of an architecture, stored as one contiguous float64 vector.

    The layout is W(1)..W(L), each row-major with shape (d_l, d_{l-1}), then
    b(1)..b(L). weights[l] is W(l+1) and biases[l] is b(l+1); both are views of
    `vector`, so writing through them writes the vector. The list and vector
    constructors check the shapes and that all entries are finite. Loss
    gradients, search directions and their standard errors are Params too.
    """

    def __init__(self, arch: Architecture, weights, biases):
        dims = arch.layer_dims
        L = arch.n_layers
        if len(weights) != L or len(biases) != L:
            raise ValueError(f"expected {L} weight layers, got {len(weights)}/{len(biases)}")
        weights = [np.asarray(W, dtype=float) for W in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        for l in range(L):
            want = (dims[l + 1], dims[l])
            if weights[l].shape != want:
                raise ValueError(f"W[{l + 1}] shape {weights[l].shape}, want {want}")
            if biases[l].shape != (dims[l + 1],):
                raise ValueError(f"b[{l + 1}] shape {biases[l].shape}, want {(dims[l + 1],)}")
        self._bind(arch, _finite(np.concatenate([W.ravel() for W in weights] + biases)))

    def _bind(self, arch: Architecture, vector: np.ndarray):
        dims = arch.layer_dims
        self.arch = arch
        self.vector = vector
        self.weights, self.biases, k = [], [], 0
        for l in range(arch.n_layers):
            n = dims[l + 1] * dims[l]
            self.weights.append(vector[k:k + n].reshape(dims[l + 1], dims[l]))
            k += n
        for l in range(arch.n_layers):
            self.biases.append(vector[k:k + dims[l + 1]])
            k += dims[l + 1]

    @classmethod
    def _over(cls, arch: Architecture, vector: np.ndarray) -> "Params":
        params = cls.__new__(cls)
        params._bind(arch, vector)
        return params

    @classmethod
    def from_vector(cls, arch: Architecture, vec) -> "Params":
        """Params backed by vec itself when it is already a contiguous float64 vector."""
        vec = np.ascontiguousarray(vec, dtype=float)
        if vec.shape != (arch.n_params,):
            raise ValueError(f"vector shape {vec.shape}, architecture needs ({arch.n_params},)")
        return cls._over(arch, _finite(vec))

    @classmethod
    def zeros(cls, arch: Architecture) -> "Params":
        return cls._over(arch, np.zeros(arch.n_params))

    @classmethod
    def empty(cls, arch: Architecture) -> "Params":
        """Uninitialized and unchecked, for a caller that writes every entry (a gradient)."""
        return cls._over(arch, np.empty(arch.n_params))

    def __reduce__(self):
        return Params._over, (self.arch, self.vector)

    def copy(self) -> "Params":
        return Params._over(self.arch, self.vector.copy())

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def norm(self) -> float:
        """Euclidean norm: weight layers summed, then bias layers, then the two added.

        That summation order fixes the last bit, which a flat sum would not keep.
        """
        sq = sum(float((W**2).sum()) for W in self.weights)
        sq += sum(float((b**2).sum()) for b in self.biases)
        return np.sqrt(sq)


def _finite(vector: np.ndarray) -> np.ndarray:
    if not np.isfinite(vector).all():
        raise ValueError("params contain non-finite entries")
    return vector


def init_uniform(arch: Architecture, gen: np.random.Generator) -> Params:
    """Weights ~ Uniform(-a, a) with a = 1/sqrt(d_in), drawn layer by layer from gen; biases zero."""
    params = Params.zeros(arch)
    for W in params.weights:
        a = 1.0 / np.sqrt(W.shape[1])
        W[...] = gen.uniform(-a, a, W.shape)
    return params


@dataclass(frozen=True)
class Hyperrectangle:
    """Box constraint: weights clamped to [w_min, w_max], biases to [b_min, b_max]."""

    w_min: float
    w_max: float
    b_min: float
    b_max: float

    def __post_init__(self):
        if not (self.w_min < self.w_max):
            raise ValueError("w_min must be < w_max")
        if not (self.b_min < self.b_max):
            raise ValueError("b_min must be < b_max")


@dataclass(frozen=True)
class NoiseModel:
    """Noise family plus its level s (> 0)."""

    family: str
    level: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (self.level > 0.0 and math.isfinite(self.level)):
            raise ValueError(f"noise level must be positive, got {self.level}")


@dataclass
class NoiseDraw:
    """One realization of the 2L noise vectors, backed by one flat vector as Params is.

    act[l] perturbs A(l) for l = 0..L-1; weigh[l] perturbs the layer-(l+1)
    pre-activation. The sites are consecutive (n, d) views of `vector`, one
    row per realization, in _site_dims order, (a,0), (w,1), (a,1), ..., (w,L),
    so the whole draw is n * noise_values_per_row values that one generator
    call fills. NoiseDraw.over builds one over a vector, also over the front
    of a larger draw's vector, whose first site rows are not contiguous.
    Multiplicative draws hold the factors 1 + level * g of standard-normal
    values g, applied as v -> v * factor at the same sites; only the device
    simulator consumes those.
    """

    act: list
    weigh: list
    vector: np.ndarray
    multiplicative: bool = False

    @classmethod
    def over(cls, arch: Architecture, vector: np.ndarray) -> "NoiseDraw":
        """The draw whose sites are views of vector, len(vector) // noise_values_per_row rows each."""
        rows = vector.size // arch.noise_values_per_row
        act, weigh, k = [None] * arch.n_layers, [None] * arch.n_layers, 0
        for kind, l, d in _site_dims(arch):
            site = vector[k:k + rows * d].reshape(rows, d)
            k += rows * d
            if kind == "a":
                act[l] = site
            else:
                weigh[l - 1] = site
        return cls(act, weigh, vector[:k])

    @classmethod
    def empty(cls, arch: Architecture, rows: int) -> "NoiseDraw":
        """An uninitialized draw of rows rows, for sample_noise_batch(out=) to fill."""
        return cls.over(arch, np.empty(rows * arch.noise_values_per_row))


@dataclass
class ForwardTrace:
    """Activations A(0..L), the hidden layers' t(l) = tanh(z(l)), and the noise used (None in a noise-free pass).

    hidden_tanh[l-1] holds t(l) for l = 1..L-1, before the activation noise
    is added; backprop's derivative 1 - t(l)^2 reads it. A kept trace also
    holds the arrays backprop writes: residuals, R(1)..R(L), (n, d_l) each,
    and a flat scratch with room for (n, d) values of the widest layer. A
    pass that keeps no trace has hidden_tanh, residuals and scratch None:
    each layer's activation overwrote its pre-activation, and only
    activations[-1] is its output; a noise-free pass's hidden activations
    are None.
    """

    activations: list
    hidden_tanh: list | None
    noise: NoiseDraw | None
    residuals: list | None = None
    scratch: np.ndarray | None = None

    @classmethod
    def empty(cls, arch: Architecture, rows: int, keep: bool = True) -> "ForwardTrace":
        """Uninitialized (rows, d) arrays for forward_noisy(out=) to fill; keep=False holds only activations."""
        dims = arch.layer_dims
        acts = [np.empty((rows, d)) for d in dims]
        if not keep:
            return cls(acts, None, None)
        return cls(acts, [np.empty((rows, d)) for d in dims[1:-1]], None,
                   [np.empty((rows, d)) for d in dims[1:]], np.empty(rows * max(dims)))


def _site_dims(arch: Architecture):
    """Noise sites in draw order: (a,0), (w,1), (a,1), ..., (w,L)."""
    dims = arch.layer_dims
    L = arch.n_layers
    order = [("a", 0, dims[0])]
    for l in range(1, L + 1):
        order.append(("w", l, dims[l]))
        if l < L:
            order.append(("a", l, dims[l]))
    return order


def _draw_values(gen: np.random.Generator, family: str, s: float, v: np.ndarray):
    """Fill v with draws of the family at level s; Gaussian families draw in place, the others copy in."""
    if family == "gaussian_additive":
        gen.standard_normal(out=v)
        v *= s  # in place: the same values as s * v, without a second array
    elif family == "uniform":
        v[...] = gen.uniform(-s, s, v.shape)
    elif family == "laplace":
        v[...] = gen.laplace(0.0, s, v.shape)
    elif family == "gaussian_multiplicative":
        gen.standard_normal(out=v)
        v *= s
        v += 1.0  # the factor 1 + s * g, in place
    else:
        raise ValueError(f"unknown noise family {family!r}")


def sample_noise_batch(
    arch: Architecture, model: NoiseModel, gen: np.random.Generator, n: int, out: NoiseDraw | None = None
) -> NoiseDraw:
    """Draw n independent realizations as (n, d) arrays per site from gen's next values.

    A caller that keys a draw passes RngStream.generator(index), so identical
    (seed, stream, index, n) gives identical values. One generator call fills
    the draw's vector, site after site in _site_dims order; the families draw
    each value on its own, so this equals one call per site. With out (from
    NoiseDraw.empty or NoiseDraw.over, at least n rows) the draw is out
    itself when out holds n rows, and otherwise NoiseDraw.over on the front
    of out's vector; without it the draw is fresh.
    """
    n = checked("n", _integer, n)
    if n < 1:
        raise ValueError("batch size must be >= 1")
    draw = NoiseDraw.empty(arch, n) if out is None else out
    rows = draw.vector.size // arch.noise_values_per_row
    if rows < n:
        raise ValueError(f"draw buffers hold {rows} rows, need {n}")
    if rows > n:
        draw = NoiseDraw.over(arch, draw.vector[:n * arch.noise_values_per_row])
    draw.multiplicative = model.family == "gaussian_multiplicative"
    _draw_values(gen, model.family, model.level, draw.vector)
    return draw


def _check_noise_dims(arch: Architecture, noise: NoiseDraw, n: int):
    """Each draw site must be (n, d), one row per row of the pass."""
    dims = arch.layer_dims
    L = arch.n_layers
    if len(noise.act) != L or len(noise.weigh) != L:
        raise ValueError(f"noise draw has {len(noise.act)}+{len(noise.weigh)} vectors, want {L}+{L}")
    for l in range(L):
        if noise.act[l].shape != (n, dims[l]):
            raise ValueError(f"activation noise {l}: shape {noise.act[l].shape}, want {(n, dims[l])}")
        if noise.weigh[l].shape != (n, dims[l + 1]):
            raise ValueError(f"weighing noise {l + 1}: shape {noise.weigh[l].shape}, want {(n, dims[l + 1])}")


def forward_noisy(params: Params, x, noise: NoiseDraw | None = None, repeat: int = 1,
                  out: ForwardTrace | None = None) -> ForwardTrace:
    """The forward recursion under an additive or multiplicative draw, or none; returns its trace.

    x holds (p, d0) per-point inputs, each run repeat times in a row, so the
    draw and the outputs have p * repeat rows, row r reading x[r // repeat].
    The input-site noise is added (or multiplied) by one broadcast of each
    point over its repeat rows, whatever the repeat count; no repeated input
    rows are built. The pass writes into the first rows of out (from
    ForwardTrace.empty) and returns views of them, or into a fresh kept trace
    without it; when out keeps no trace, neither does the returned one. With
    no draw nothing is perturbed: each input runs once, A(0) is x itself, and
    the pass keeps no trace. It forms each layer in a fresh array and drops
    the hidden layer before it, so its activations hold A(0) and A(L), and
    None for every hidden layer.
    """
    arch = params.arch
    dims = arch.layer_dims
    L = arch.n_layers
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dims[0]:
        raise ValueError(f"input shape {x.shape}, want (n, {dims[0]})")
    if noise is None:
        a = x
        for l in range(1, L + 1):
            a = np.matmul(a, params.weights[l - 1].T)  # the last reference to A(l-1) goes here
            a += params.biases[l - 1]
            if l < L:
                np.tanh(a, out=a)
        return ForwardTrace([x] + [None] * (L - 1) + [a], None, None)
    n = x.shape[0] * repeat
    _check_noise_dims(arch, noise, n)
    if out is None:
        out = ForwardTrace.empty(arch, n)
    elif out.activations[0].shape[0] < n:
        raise ValueError(f"trace buffers hold {out.activations[0].shape[0]} rows, need {n}")
    acts = head(out.activations, n)
    kept = head(out.hidden_tanh, n)
    perturb = np.multiply if noise.multiplicative else np.add
    # point p's repeat rows read x[p]
    perturb(x[:, None, :], noise.act[0].reshape(-1, repeat, dims[0]), out=acts[0].reshape(-1, repeat, dims[0]))
    for l in range(1, L + 1):
        # in place, in the order of W a + b + n: the same values as fresh arrays give. A kept hidden
        # layer forms z(l) and then t(l) in its hidden_tanh array; otherwise A(l) overwrites z(l)
        z = acts[l] if kept is None or l == L else kept[l - 1]
        np.matmul(acts[l - 1], params.weights[l - 1].T, out=z)
        z += params.biases[l - 1]
        perturb(z, noise.weigh[l - 1], out=z)
        if l < L:
            np.tanh(z, out=z)
            perturb(z, noise.act[l], out=acts[l])
    return ForwardTrace(acts, kept, noise, head(out.residuals, n), out.scratch)


def forward_deterministic(params: Params, x) -> np.ndarray:
    """Noise-free output: the recursion with no draw, its first product reading x. Keeps no trace."""
    return forward_noisy(params, x).activations[-1]


def project(params: Params, h: Hyperrectangle, out: Params | None = None) -> Params:
    """Euclidean projection onto the box: componentwise clamp (exact for a box).

    The clamped values go to out, which may be params itself, or to a new Params.
    """
    v, nw = params.vector, params.arch.n_weights
    if out is None:
        out = Params.empty(params.arch)
    np.clip(v[:nw], h.w_min, h.w_max, out=out.vector[:nw])
    np.clip(v[nw:], h.b_min, h.b_max, out=out.vector[nw:])
    _finite(out.vector)
    return out


def apply_step(params: Params, coef: float, direction: Params, out: Params | None = None) -> Params:
    """params + coef * direction, into out (neither params nor direction) or a new Params."""
    if out is None:
        out = Params.empty(params.arch)
    elif out is params or out is direction:
        raise ValueError("apply_step writes into a third Params")
    np.multiply(direction.vector, coef, out=out.vector)
    out.vector += params.vector  # in place: the same sum as params + coef * direction
    _finite(out.vector)
    return out


PARAMS_FORMAT_VERSION = 1


@contextlib.contextmanager
def open_atomic(path, mode: str = "w"):
    """Open a temp file beside path for writing ("w" or "wb"), creating path's
    directory first; on a clean exit it replaces path, on an exception it is
    removed. Readers see the old file or the whole new one, never a partial write."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    os.makedirs(head or os.curdir, exist_ok=True)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as f:  # "x": a fresh file, created under the umask
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_params(params: Params, path):
    """Binary params document (npz) with an explicit format-version field."""
    arrays = {
        "format_version": np.array(PARAMS_FORMAT_VERSION, dtype=np.int64),
        "layer_dims": np.array(params.arch.layer_dims, dtype=np.int64),
        "activation": np.array("tanh"),
    }
    for l, (W, b) in enumerate(zip(params.weights, params.biases), start=1):
        arrays[f"W{l}"] = W
        arrays[f"b{l}"] = b
    with open_atomic(path, "wb") as f:  # a file object: savez appends no ".npz" suffix
        np.savez(f, **arrays)


def load_params(path) -> Params:
    with open(path, "rb") as f, np.lib.npyio.NpzFile(f) as data:  # np.load would read a non-zip file as a pickle
        version = int(data["format_version"])
        if version != PARAMS_FORMAT_VERSION:
            raise ValueError(f"params format version {version}, supported {PARAMS_FORMAT_VERSION}")
        if (activation := str(data["activation"])) != "tanh":
            raise ValueError(f"params activation {activation!r}, supported 'tanh'")
        arch = Architecture(tuple(int(d) for d in data["layer_dims"]))
        ws = [data[f"W{l}"] for l in range(1, arch.n_layers + 1)]
        bs = [data[f"b{l}"] for l in range(1, arch.n_layers + 1)]
    return Params(arch, ws, bs)
