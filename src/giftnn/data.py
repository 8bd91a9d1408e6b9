"""Dataset ingestion: IDX-format digit images, synthetic tasks, subsets, batching."""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .checks import _count, _positive, checked
from .model import Architecture, RngStream, forward_deterministic, init_uniform

DATA_DIR_ENV = "GIFTNN_DATA_DIR"

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base for IDX parse failures."""


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


@dataclass
class Dataset:
    """Row-aligned inputs (n, d0) and targets (n, dL); one-hot rows for classification."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.inputs.shape[0]} inputs vs {self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must be nonempty")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":  # gzip magic
        try:
            return gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as e:  # cut short or corrupt
            raise IdxError(f"{path}: cannot decompress: {e}") from e
    return raw


def _unpack_header(buf: bytes, fmt: str, path) -> tuple:
    need = struct.calcsize(fmt)
    if len(buf) < need:
        raise IdxTruncatedError(f"{path}: truncated header at byte {len(buf)}, need {need}")
    return struct.unpack_from(fmt, buf, 0)


def _read_idx(path, kind: str, magic: int, dims: tuple = ()) -> np.ndarray:
    """One IDX file's uint8 items, (count, *dims); kind ("image" or "label") names them in errors."""
    buf = _read_bytes(path)
    got, count, *got_dims = _unpack_header(buf, ">ii" + "i" * len(dims), path)
    if got != magic:
        raise IdxMagicError(f"{path}: {kind} magic 0x{got:08x}, want 0x{magic:08x}")
    if tuple(got_dims) != dims:
        raise IdxError(f"{path}: {kind} dims {'x'.join(map(str, got_dims))}, want {'x'.join(map(str, dims))}")
    if count < 0:
        raise IdxError(f"{path}: negative {kind} count {count}")
    offset, size = 8 + 4 * len(dims), count * math.prod(dims)
    if len(buf) < offset + size:
        raise IdxTruncatedError(f"{path}: truncated at byte {len(buf)}, need {offset + size} for {count} {kind}s")
    return np.frombuffer(buf, dtype=np.uint8, count=size, offset=offset).reshape(count, *dims)


def load_idx(images_path, labels_path):
    """Parse big-endian IDX image/label files (plain or gzipped).

    Returns (images uint8 (n, 28, 28), labels uint8 (n,)). Wrong magic numbers,
    truncation, and image/label count mismatch raise distinct errors; every
    parse failure is an IdxError.
    """
    images = _read_idx(images_path, "image", IDX_IMAGE_MAGIC, (28, 28))
    labels = _read_idx(labels_path, "label", IDX_LABEL_MAGIC)
    if len(labels) != len(images):
        raise IdxCountMismatchError(f"{len(images)} images but {len(labels)} labels")
    return images, labels


def to_dataset(images, labels, one_hot: int = 10, labels_path=None) -> Dataset:
    """Pixels scaled to [0, 1], labels one-hot of length `one_hot`.

    A label out of range raises ValueError, naming labels_path when it is given.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    if labels.size and int(labels.max()) >= one_hot:
        where = "" if labels_path is None else f"{labels_path}: "
        raise ValueError(f"{where}label {int(labels.max())} out of range for {one_hot} classes")
    inputs = images.reshape(images.shape[0], -1).astype(float) / 255.0
    targets = np.zeros((labels.shape[0], one_hot))
    targets[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    return Dataset(inputs, targets)


_MNIST_FILES = {
    (True, "images"): ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    (True, "labels"): ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    (False, "images"): ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    (False, "labels"): ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_idx_file(data_dir, names):
    tried = []
    for name in names:
        for candidate in (name, name + ".gz"):
            path = os.path.join(data_dir, candidate)
            tried.append(path)
            if os.path.exists(path):
                return path
    raise FileNotFoundError("no IDX file found; tried: " + ", ".join(tried))


def resolve_data_dir(data_dir=None) -> str:
    d = data_dir or os.environ.get(DATA_DIR_ENV)
    if not d:
        raise FileNotFoundError(
            f"no data directory: pass --data-dir or set {DATA_DIR_ENV}"
        )
    return d


def load_mnist(data_dir=None, train: bool = True) -> Dataset:
    """Load the digit dataset from IDX files under data_dir (or $GIFTNN_DATA_DIR)."""
    d = resolve_data_dir(data_dir)
    images_path = _find_idx_file(d, _MNIST_FILES[(train, "images")])
    labels_path = _find_idx_file(d, _MNIST_FILES[(train, "labels")])
    images, labels = load_idx(images_path, labels_path)
    return to_dataset(images, labels, labels_path=labels_path)


def synthetic_linear(V, sigma_x: float, n: int, rng: RngStream) -> Dataset:
    """x ~ N(0, sigma_x^2 I) per component, y = V x (noiseless linear targets)."""
    n = checked("n", _count, n)
    sigma_x = checked("sigma_x", _positive, sigma_x)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    gen = rng.generator(0)
    X = gen.standard_normal((n, V.shape[1]))
    X *= sigma_x  # in place: the same values as sigma_x * X, without a second array
    Y = X @ V.T
    return Dataset(X, Y)


def synthetic_teacher(arch: Architecture, n: int, sigma_x: float, rng: RngStream) -> Dataset:
    """x ~ N(0, sigma_x^2 I), y = teacher(x) for a fixed random noise-free teacher net."""
    n = checked("n", _count, n)
    sigma_x = checked("sigma_x", _positive, sigma_x)
    gen = rng.generator(0)
    teacher = init_uniform(arch, gen)
    X = gen.standard_normal((n, arch.layer_dims[0]))
    X *= sigma_x  # in place: the same values as sigma_x * X, without a second array
    Y = forward_deterministic(teacher, X)
    return Dataset(X, Y)


def subset(ds: Dataset, n: int, rng: RngStream) -> Dataset:
    """Seed-selected subset of n rows, without replacement."""
    if n > len(ds):
        raise ValueError(f"subset of {n} from {len(ds)} rows")
    idx = rng.generator(0).choice(len(ds), size=n, replace=False)
    return Dataset(ds.inputs[idx], ds.targets[idx])


def epoch_batches(n: int, batch_size: int, rng: RngStream, epoch: int):
    """Index batches covering each of 0..n-1 exactly once, in a seed-determined order."""
    batch_size = checked("batch_size", _count, batch_size)
    perm = rng.generator(epoch).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
