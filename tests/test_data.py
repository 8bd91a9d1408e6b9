import gzip
import os
import re
import struct

import numpy as np
import pytest

from giftnn.data import (
    DATA_DIR_ENV,
    Dataset,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    epoch_batches,
    load_idx,
    load_mnist,
    resolve_data_dir,
    subset,
    synthetic_linear,
    synthetic_teacher,
    to_dataset,
)
from giftnn.model import Architecture, RngStream, STREAM_DATA


def write_idx(dirpath, images, labels, gz=False, image_name="train-images-idx3-ubyte",
              label_name="train-labels-idx1-ubyte"):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_bytes = struct.pack(">iiii", 0x803, images.shape[0], 28, 28) + images.tobytes()
    lab_bytes = struct.pack(">ii", 0x801, labels.shape[0]) + labels.tobytes()
    opener = gzip.open if gz else open
    suffix = ".gz" if gz else ""
    ipath = os.path.join(dirpath, image_name + suffix)
    lpath = os.path.join(dirpath, label_name + suffix)
    with opener(ipath, "wb") as f:
        f.write(img_bytes)
    with opener(lpath, "wb") as f:
        f.write(lab_bytes)
    return ipath, lpath


def fake_images(n, seed=0):
    gen = RngStream(seed, STREAM_DATA).generator(0)
    return gen.integers(0, 256, size=(n, 28, 28), endpoint=False).astype(np.uint8)


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        imgs = fake_images(3)
        ipath, lpath = write_idx(tmp_path, imgs, [7, 0, 9])
        raw_images, raw_labels = load_idx(ipath, lpath)
        assert raw_images.shape == (3, 28, 28)
        assert np.array_equal(raw_images, imgs)
        assert list(raw_labels) == [7, 0, 9]

    def test_gzip_transparent(self, tmp_path):
        imgs = fake_images(2, seed=1)
        ipath, lpath = write_idx(tmp_path, imgs, [1, 2], gz=True)
        raw_images, raw_labels = load_idx(ipath, lpath)
        assert raw_images.shape == (2, 28, 28)
        assert np.array_equal(raw_images, imgs)
        assert list(raw_labels) == [1, 2]

    def test_wrong_magic(self, tmp_path):
        ipath = tmp_path / "bad-images"
        lpath = tmp_path / "bad-labels"
        ipath.write_bytes(struct.pack(">iiii", 0x802, 1, 28, 28) + bytes(784))
        lpath.write_bytes(struct.pack(">ii", 0x801, 1) + bytes(1))
        with pytest.raises(IdxMagicError):
            load_idx(ipath, lpath)

    def test_truncated_names_offset(self, tmp_path):
        imgs = fake_images(2, seed=2)
        ipath, lpath = write_idx(tmp_path, imgs, [3, 4])
        blob = open(ipath, "rb").read()
        cut = len(blob) - 100  # mid-image
        open(ipath, "wb").write(blob[:cut])
        with pytest.raises(IdxTruncatedError) as exc:
            load_idx(ipath, lpath)
        assert str(16 + 2 * 784) in str(exc.value)  # expected end offset

    @pytest.mark.parametrize("kind", ["image", "label"])
    @pytest.mark.parametrize("count", [-1, -2])
    def test_negative_count(self, tmp_path, kind, count):
        # both headers read the count as signed; two digits' bytes follow, enough for any count <= 2
        paths = dict(zip(("image", "label"), write_idx(tmp_path, fake_images(2, seed=5), [1, 2])))
        blob = open(paths[kind], "rb").read()
        open(paths[kind], "wb").write(blob[:4] + struct.pack(">i", count) + blob[8:])
        with pytest.raises(IdxError, match=f"negative {kind} count {count}$"):
            load_idx(paths["image"], paths["label"])

    def test_truncated_gzip(self, tmp_path):
        ipath, lpath = write_idx(tmp_path, fake_images(2, seed=6), [3, 4], gz=True)
        blob = open(ipath, "rb").read()
        open(ipath, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(IdxError, match="cannot decompress"):
            load_idx(ipath, lpath)

    def test_count_mismatch(self, tmp_path):
        imgs = fake_images(3, seed=3)
        write_idx(tmp_path, imgs, [1, 2, 3])
        # overwrite labels with a shorter file
        lpath = os.path.join(tmp_path, "train-labels-idx1-ubyte")
        open(lpath, "wb").write(struct.pack(">ii", 0x801, 2) + bytes([1, 2]))
        with pytest.raises(IdxCountMismatchError):
            load_idx(os.path.join(tmp_path, "train-images-idx3-ubyte"), lpath)


class TestToDataset:
    def test_scaling_and_one_hot(self, tmp_path):
        imgs = np.zeros((2, 28, 28), dtype=np.uint8)
        imgs[0, 0, 0] = 255
        ipath, lpath = write_idx(tmp_path, imgs, [7, 0])
        raw_images, raw_labels = load_idx(ipath, lpath)
        ds = to_dataset(raw_images, raw_labels)
        assert ds.inputs[0, 0] == 1.0
        assert ds.inputs[0, 1] == 0.0
        assert ds.targets.shape == (2, 10)
        assert ds.targets[0, 7] == 1.0 and ds.targets[0].sum() == 1.0
        assert ds.targets[1, 0] == 1.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            to_dataset(np.zeros((1, 784), dtype=np.uint8), np.array([10], dtype=np.uint8))

    def test_count_preserved(self, tmp_path):
        imgs = fake_images(5, seed=4)
        ipath, lpath = write_idx(tmp_path, imgs, [0, 1, 2, 3, 4])
        ds = to_dataset(*load_idx(ipath, lpath))
        assert len(ds) == 5


class TestLoadMnist:
    def test_loads_train_and_test(self, tmp_path):
        write_idx(tmp_path, fake_images(4), [1, 2, 3, 4])
        write_idx(tmp_path, fake_images(2, seed=9), [5, 6],
                  image_name="t10k-images-idx3-ubyte", label_name="t10k-labels-idx1-ubyte")
        train = load_mnist(tmp_path, train=True)
        test = load_mnist(tmp_path, train=False)
        assert len(train) == 4 and len(test) == 2

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist(tmp_path / "nope", train=True)

    def test_label_out_of_range_names_the_split_file(self, tmp_path):
        write_idx(tmp_path, fake_images(2), [1, 2])
        _, lpath = write_idx(tmp_path, fake_images(2, seed=9), [5, 10],
                             image_name="t10k-images-idx3-ubyte", label_name="t10k-labels-idx1-ubyte")
        assert len(load_mnist(tmp_path, train=True)) == 2
        with pytest.raises(ValueError, match=f"^{re.escape(lpath)}: label 10 out of range for 10 classes$"):
            load_mnist(tmp_path, train=False)

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert resolve_data_dir(None) == str(tmp_path)
        assert resolve_data_dir("explicit") == "explicit"


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([[0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))


class TestSynthetic:
    def test_zero_v_gives_zero_targets(self):
        ds = synthetic_linear(np.zeros((1, 3)), 1.0, 100, RngStream(0, STREAM_DATA))
        assert np.all(ds.targets == 0.0)

    def test_input_covariance(self):
        sigma = 0.7
        ds = synthetic_linear(np.array([[1.0, 1.0]]), sigma, 10**5, RngStream(1, STREAM_DATA))
        cov = np.cov(ds.inputs.T)
        assert np.allclose(np.diag(cov), sigma**2, rtol=0.05)
        assert abs(cov[0, 1]) < 0.01

    def test_ols_recovers_v(self):
        V = np.array([[0.3, -0.2]])
        ds = synthetic_linear(V, 1.0, 10**5, RngStream(2, STREAM_DATA))
        coef, *_ = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)
        assert np.allclose(coef.T, V, atol=1e-3)

    def test_teacher_targets_are_network_outputs(self):
        arch = Architecture((4, 3, 2))
        ds = synthetic_teacher(arch, 50, 1.0, RngStream(3, STREAM_DATA))
        assert ds.inputs.shape == (50, 4)
        assert ds.targets.shape == (50, 2)
        assert np.all(np.isfinite(ds.targets))

    def test_sigma_x_must_be_positive_finite(self):
        arch = Architecture((2, 1))
        for sigma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma_x"):
                synthetic_linear(np.ones((1, 2)), sigma, 10, RngStream(5, STREAM_DATA))
            with pytest.raises(ValueError, match="sigma_x"):
                synthetic_teacher(arch, 10, sigma, RngStream(5, STREAM_DATA))

    def test_teacher_deterministic(self):
        arch = Architecture((3, 2))
        a = synthetic_teacher(arch, 20, 1.0, RngStream(4, STREAM_DATA))
        b = synthetic_teacher(arch, 20, 1.0, RngStream(4, STREAM_DATA))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


class TestSplitsAndBatches:
    def test_subset_size_and_determinism(self):
        ds = synthetic_linear(np.array([[1.0]]), 1.0, 50, RngStream(7, STREAM_DATA))
        s1 = subset(ds, 10, RngStream(8, STREAM_DATA))
        s2 = subset(ds, 10, RngStream(8, STREAM_DATA))
        assert len(s1) == 10
        assert np.array_equal(s1.inputs, s2.inputs)

    def test_epoch_batches_partition(self):
        seen = []
        for batch in epoch_batches(103, 10, RngStream(9, STREAM_DATA), epoch=2):
            assert 1 <= len(batch) <= 10
            seen.extend(batch.tolist())
        assert sorted(seen) == list(range(103))

    def test_epoch_permutation_varies_by_epoch(self):
        b0 = np.concatenate(list(epoch_batches(32, 8, RngStream(10, STREAM_DATA), epoch=0)))
        b1 = np.concatenate(list(epoch_batches(32, 8, RngStream(10, STREAM_DATA), epoch=1)))
        b0_again = np.concatenate(list(epoch_batches(32, 8, RngStream(10, STREAM_DATA), epoch=0)))
        assert not np.array_equal(b0, b1)
        assert np.array_equal(b0, b0_again)
