"""Property-based checks for the pure-math helpers."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from giftnn.data import Dataset, epoch_batches, to_dataset
from giftnn.device import Device
from giftnn.gift import GiftConfig, gift_run, normalize
from giftnn.model import (
    Architecture,
    Hyperrectangle,
    NoiseModel,
    Params,
    RngStream,
    STREAM_EVAL,
    apply_step,
    project,
)

dims_strategy = st.lists(st.integers(1, 5), min_size=2, max_size=4)


def make_params(dims, seed):
    gen = np.random.default_rng(seed)
    arch = Architecture(tuple(dims))
    ws = [gen.uniform(-2, 2, (dims[l + 1], dims[l])) for l in range(arch.n_layers)]
    bs = [gen.uniform(-2, 2, dims[l + 1]) for l in range(arch.n_layers)]
    return Params(arch, ws, bs)


def make_box(seed):
    gen = np.random.default_rng(seed)
    lo_w, lo_b = gen.uniform(-1.5, 0.5, 2)
    return Hyperrectangle(lo_w, lo_w + gen.uniform(0.1, 2.0), lo_b, lo_b + gen.uniform(0.1, 2.0))


class TestProjection:
    @given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_lands_inside_and_is_idempotent(self, dims, seed):
        p = make_params(dims, seed)
        h = make_box(seed + 1)
        q = project(p, h)
        for W in q.weights:
            assert np.all(W >= h.w_min) and np.all(W <= h.w_max)
        for b in q.biases:
            assert np.all(b >= h.b_min) and np.all(b <= h.b_max)
        qq = project(q, h)
        for a, c in zip(q.weights + q.biases, qq.weights + qq.biases):
            assert np.array_equal(a, c)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_interior_points_are_fixed(self, seed):
        gen = np.random.default_rng(seed)
        h = Hyperrectangle(-1.0, 1.0, -0.5, 0.5)
        arch = Architecture((2, 2))
        p = Params(arch, [gen.uniform(-1, 1, (2, 2))], [gen.uniform(-0.5, 0.5, 2)])
        q = project(p, h)
        assert np.array_equal(q.weights[0], p.weights[0])
        assert np.array_equal(q.biases[0], p.biases[0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_clamp_solves_the_box_least_squares_problem(self, seed):
        # independent oracle: bound-constrained quadratic minimization
        gen = np.random.default_rng(seed)
        x = gen.uniform(-3, 3, 3)
        lo, width = gen.uniform(-1, 0), gen.uniform(0.2, 2)
        hi = lo + width
        res = minimize(
            lambda q: 0.5 * np.sum((q - x) ** 2),
            x0=np.full(3, lo + width / 2),
            bounds=[(lo, hi)] * 3,
            method="L-BFGS-B",
            tol=1e-12,
        )
        assert np.allclose(np.clip(x, lo, hi), res.x, atol=1e-6)

    @given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_projection_is_nearest_feasible_point(self, dims, seed):
        p = make_params(dims, seed)
        h = make_box(seed + 1)
        q = project(p, h)
        d_proj = np.linalg.norm(p.to_vector() - q.to_vector())
        gen = np.random.default_rng(seed + 2)
        for _ in range(5):
            ws = [gen.uniform(h.w_min, h.w_max, W.shape) for W in p.weights]
            bs = [gen.uniform(h.b_min, h.b_max, b.shape) for b in p.biases]
            other = Params(p.arch, ws, bs)
            assert d_proj <= np.linalg.norm(p.to_vector() - other.to_vector()) + 1e-12


class TestVectorRoundTrip:
    @given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_to_from_vector_round_trip(self, dims, seed):
        p = make_params(dims, seed)
        vec = p.to_vector()
        n_expected = sum(dims[l + 1] * (dims[l] + 1) for l in range(len(dims) - 1))
        assert vec.size == n_expected
        back = Params.from_vector(p.arch, vec)
        for a, c in zip(p.weights + p.biases, back.weights + back.biases):
            assert np.array_equal(a, c)

    @given(dims=dims_strategy)
    @settings(max_examples=20, deadline=None)
    def test_wrong_length_rejected(self, dims):
        p = make_params(dims, 0)
        try:
            Params.from_vector(p.arch, np.zeros(p.to_vector().size + 1))
        except ValueError:
            return
        raise AssertionError("expected ValueError for a wrong-length vector")


class TestEpochBatches:
    @given(n=st.integers(1, 200), batch=st.integers(1, 64), epoch=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_exactly_once_partition(self, n, batch, epoch):
        rng = RngStream(9, 2)
        batches = epoch_batches(n, batch, rng, epoch)
        assert all(len(b) <= batch for b in batches)
        assert len(batches) == -(-n // batch)
        flat = np.concatenate(batches)
        assert np.array_equal(np.sort(flat), np.arange(n))
        again = epoch_batches(n, batch, RngStream(9, 2), epoch)
        assert all(np.array_equal(a, c) for a, c in zip(batches, again))


class TestOneHot:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), classes=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_valid_one_hot(self, seed, n, classes):
        gen = np.random.default_rng(seed)
        labels = gen.integers(0, classes, n).astype(np.uint8)
        images = gen.integers(0, 256, (n, 28, 28)).astype(np.uint8)
        ds = to_dataset(images, labels, one_hot=classes)
        assert ds.targets.shape == (n, classes)
        assert np.array_equal(ds.targets.sum(axis=1), np.ones(n))
        assert np.array_equal(ds.targets.argmax(axis=1), labels)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


class TestGiftTraceInvariants:
    @given(seed=st.integers(0, 1000), eta=st.floats(0.005, 0.2),
           max_steps=st.integers(1, 6), rule=st.sampled_from(["either_worse", "both_worse"]))
    @settings(max_examples=20, deadline=None)
    def test_trace_is_internally_consistent(self, seed, eta, max_steps, rule):
        gen = np.random.default_rng(seed)
        arch = Architecture((2, 1))
        w0 = Params(arch, [gen.uniform(-1, 1, (1, 2))], [gen.uniform(-0.5, 0.5, 1)])
        data = Dataset(gen.standard_normal((64, 2)), gen.standard_normal((64, 1)))
        direction = normalize(Params(arch, [gen.standard_normal((1, 2))], [gen.standard_normal(1)]))
        device = Device(NoiseModel("gaussian_additive", 0.3), seed=seed)
        config = GiftConfig(eta=eta, k1=16, k2=2, max_steps=max_steps, stop_rule=rule)
        trace = gift_run(device, w0, direction, config, data, RngStream(seed, STREAM_EVAL))

        losses = {(0, 0): trace.baseline.loss}
        losses.update({(i, s): r.loss for i, s, r in trace.records})
        assert trace.improvement == trace.baseline.loss - min(losses.values())
        assert trace.improvement >= 0.0
        assert trace.selected in losses
        assert losses[trace.selected] == min(losses.values())
        assert 1 <= trace.steps_taken <= max_steps
        assert len(trace.records) == 2 * trace.steps_taken
        assert trace.queries == (1 + 2 * trace.steps_taken) * 16 * 2

        i, sign = trace.selected
        expected = apply_step(w0, sign * i * eta, direction)  # eta is the step length along the unit direction
        assert trace.w_f.vector.tobytes() == expected.vector.tobytes()
