import re
import tracemalloc

import numpy as np
import pytest

from giftnn import device as device_module
from giftnn.device import Device
from giftnn.model import (
    CHUNK_ROWS,
    Architecture,
    NOISE_FAMILIES,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DEVICE,
    block_rows,
    forward_deterministic,
    forward_noisy,
    point_blocks,
    sample_noise_batch,
)

from test_model import small_params


def every_row(X):
    """The points that score each row of X once, in order."""
    return np.arange(len(X))


def identity_device(family, s, seed=0, d=2):
    arch = Architecture((d, d))
    p = Params(arch, [np.eye(d)], [np.zeros(d)])
    return Device(NoiseModel(family, s), seed=seed), p


def zero_weight_device(family, s, seed=0, d=1):
    arch = Architecture((d, d))
    p = Params(arch, [np.zeros((d, d))], [np.zeros(d)])
    return Device(NoiseModel(family, s), seed=seed), p


class TestForward:
    def test_matches_in_silico_stream(self):
        # a one-block gaussian call on slot j == forward_noisy on the draw at spawn key (device, j, 0)
        p = small_params([3, 2], seed=1)
        dev = Device(NoiseModel("gaussian_additive", 0.3), seed=11)
        x = np.array([[0.5, -0.2, 0.1]])
        out = dev.forward_batch([p], x, every_row(x), noise_slot=4)
        draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.3),
                                  RngStream(11, STREAM_DEVICE).substream(4).generator(0), 1)
        ref = forward_noisy(p, x, draw).activations[-1]
        assert np.array_equal(out, ref)

    def test_same_seed_same_outputs(self):
        p = small_params([2, 2], seed=2)
        model = NoiseModel("gaussian_additive", 0.2)
        a = Device(model, seed=5)
        b = Device(model, seed=5)
        x = np.array([[0.1, 0.2]])
        assert np.array_equal(a.forward_batch([p], x, every_row(x), 0), b.forward_batch([p], x, every_row(x), 0))

    def test_named_slots_give_different_outputs(self):
        dev, p = identity_device("gaussian_additive", 0.5)
        x = np.zeros((1, 2))
        assert not np.array_equal(dev.forward_batch([p], x, [0], 0), dev.forward_batch([p], x, [0], 1))

    def test_shared_slot_reproduces_noise(self):
        dev, p = identity_device("gaussian_additive", 0.5)
        x = np.array([[0.3, -0.3]])
        slot = 0
        a = dev.forward_batch([p], x, every_row(x), noise_slot=slot)
        b = dev.forward_batch([p], x, every_row(x), noise_slot=slot)
        assert np.array_equal(a, b)

    def test_shape_check(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        with pytest.raises(ValueError):
            dev.forward_batch([p], np.zeros((1, 3)), np.arange(1), 0)
        with pytest.raises(ValueError, match="repeat must be >= 1, got 0"):
            dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0, repeat=0)
        assert dev.query_count == 0

    def test_a_slot_is_one_unsigned_64_bit_integer(self):
        # the spawn key is taken mod 2**64, so 2**64 would replay slot 0 (the fresh pair's and eval's) and True
        # slot 1; each is refused before anything is drawn, and the largest slot draws at its own spawn key
        p = small_params([3, 2], seed=1)
        model = NoiseModel("gaussian_additive", 0.3)
        dev = Device(model, seed=11)
        x = np.array([[0.5, -0.2, 0.1]])
        for slot in (2**64, True, -1, 1.5):
            with pytest.raises(ValueError, match=rf"^noise_slot: .*, got {re.escape(repr(slot))}$"):
                dev.forward_batch([p], x, [0], slot)
        assert dev.query_count == 0
        slot = 2**64 - 1
        draw = sample_noise_batch(p.arch, model, RngStream(11, STREAM_DEVICE).substream(slot).generator(0), 1)
        assert dev.forward_batch([p], x, [0], slot).tobytes() == forward_noisy(p, x, draw).activations[-1].tobytes()

    @pytest.mark.parametrize("points, message", [
        ([0, 3], r"points must index the 3 input rows, got 0\.\.3"),
        ([-1, 0], r"points must index the 3 input rows, got -1\.\.0"),
        ([0.0, 1.0], "points must be a 1-D array of row indices, got float64"),
        ([[0, 1]], r"points must be a 1-D array of row indices, got int64 of shape \(1, 2\)"),
    ], ids=["past_the_end", "negative", "float", "2d"])
    def test_points_must_index_the_input_rows(self, points, message):
        # a negative index would wrap around instead of failing, so the range is checked
        dev, p = identity_device("gaussian_additive", 0.1)
        with pytest.raises(ValueError, match=message):
            dev.forward_batch([p], np.zeros((3, 2)), np.array(points), 0)
        assert dev.query_count == 0

    def test_batch_consistent_with_loop(self):
        dev, p = identity_device("gaussian_additive", 0.4, seed=3)
        X = RngStream(4, 1).generator(0).standard_normal((5, 2))
        slot = 0
        batch = dev.forward_batch([p], X, every_row(X), noise_slot=slot)
        assert batch.shape == (5, 2)
        again = dev.forward_batch([p], X, every_row(X), noise_slot=slot)
        assert np.array_equal(batch, again)


class TestQueryCounter:
    def test_increments_per_forward(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        assert dev.query_count == 0
        dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0)
        assert dev.query_count == 1
        dev.forward_batch([p], np.zeros((7, 2)), np.arange(7), 0)
        assert dev.query_count == 8
        # every repeated row is a query
        assert dev.forward_batch([p], np.zeros((7, 2)), np.arange(7), 0, repeat=3).shape == (21, 2)
        assert dev.query_count == 29

    def test_replayed_slot_counts_every_row(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        slot = 0
        for _ in range(3):
            dev.forward_batch([p], np.zeros((7, 2)), np.arange(7), noise_slot=slot)
        for _ in range(2):
            dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), noise_slot=slot)
        assert dev.query_count == 3 * 7 + 2


def counting_draws(monkeypatch):
    """Record every draw the device makes through giftnn.device.sample_noise_batch."""
    draws = []
    real = device_module.sample_noise_batch

    def counting(*args, **kwargs):
        draws.append(real(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(device_module, "sample_noise_batch", counting)
    return draws


def keyed_block_draw(params, model, seed, slot, block, rows):
    """The draw of block `block` of a call on `slot`: spawn key (STREAM_DEVICE, slot, block)."""
    gen = RngStream(seed, STREAM_DEVICE).substream(slot).generator(block)
    return sample_noise_batch(params.arch, model, gen, rows)


def uncached_output(params, model, seed, slot, X, repeat=1):
    """A call's outputs rebuilt block by block from freshly made keyed draws."""
    return np.concatenate([
        forward_noisy(params, X[start:stop], keyed_block_draw(params, model, seed, slot, c, (stop - start) * repeat),
                      repeat).activations[-1]
        for c, (start, stop) in enumerate(point_blocks(params.arch, X.shape[0], repeat))])


class TestDrawCache:
    @pytest.mark.parametrize("family", ["gaussian_additive", "laplace", "gaussian_multiplicative"])
    def test_interleaved_slots_match_uncached_draws(self, family):
        p = small_params([3, 4, 2], seed=7)
        model = NoiseModel(family, 0.3)
        dev = Device(model, seed=8)
        X = RngStream(9, 1).generator(0).standard_normal((6, 3))
        a, b = 0, 1
        for slot in (a, b, a):
            out = dev.forward_batch([p], X, every_row(X), noise_slot=slot, repeat=300)  # two blocks
            assert out.tobytes() == uncached_output(p, model, 8, slot, X, 300).tobytes()

    def test_repeated_slot_draws_once_and_read_only(self, monkeypatch):
        draws = counting_draws(monkeypatch)
        dev, p = identity_device("gaussian_additive", 0.4)
        slot = 0
        for _ in range(3):
            dev.forward_batch([p], np.ones((5, 2)), np.arange(5), noise_slot=slot)
        assert len(draws) == 1
        for v in [draws[0].vector, *draws[0].act, *draws[0].weigh]:
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[...] = 0.0
        dev.forward_batch([p], np.ones((4, 2)), np.arange(4), noise_slot=slot)  # another batch size is another draw
        assert len(draws) == 2

    @pytest.mark.parametrize("family", ["gaussian_additive", "uniform", "gaussian_multiplicative"])
    def test_overwritten_replay_is_never_stale(self, family, monkeypatch):
        # slot B's draw overwrites slot A's kept draw in place; A again redraws and equals its first call
        draws = counting_draws(monkeypatch)
        p = small_params([3, 4, 2], seed=17)
        dev = Device(NoiseModel(family, 0.3), seed=18)
        X = RngStream(19, 1).generator(0).standard_normal((5, 3))
        first = dev.forward_batch([p], X, every_row(X), noise_slot=1, repeat=4)
        a_draw = draws[0].vector.copy()
        other = dev.forward_batch([p], X, every_row(X), noise_slot=2, repeat=4)
        assert np.shares_memory(draws[0].vector, draws[1].vector)  # one vector holds the kept draw
        assert draws[0].vector.tobytes() != a_draw.tobytes()
        again = dev.forward_batch([p], X, every_row(X), noise_slot=1, repeat=4)
        assert len(draws) == 3
        assert again.tobytes() == first.tobytes()
        assert other.tobytes() != first.tobytes()
        for draw in draws:
            for v in [draw.vector, *draw.act, *draw.weigh]:
                assert not v.flags.writeable

    def test_calls_of_other_sizes_share_one_slot_correctly(self):
        # a larger draw than the kept vector holds gets a larger vector; a smaller one reuses its front
        model = NoiseModel("laplace", 0.3)
        p = small_params([3, 4, 2], seed=20)
        dev = Device(model, seed=21)
        X = RngStream(22, 1).generator(0).standard_normal((700, 3))
        for k1, repeat in [(4, 1), (700, 3), (9, 2), (700, 3), (4, 1)]:
            out = dev.forward_batch([p], X[:k1], np.arange(k1), noise_slot=0, repeat=repeat)
            assert out.tobytes() == uncached_output(p, model, 21, 0, X[:k1], repeat).tobytes()

    def test_new_params_on_one_slot_keep_the_noise(self, monkeypatch):
        draws = counting_draws(monkeypatch)
        p, q = small_params([2, 3, 2], seed=10), small_params([2, 3, 2], seed=11)
        model = NoiseModel("gaussian_additive", 0.3)
        dev = Device(model, seed=12)
        X = RngStream(13, 1).generator(0).standard_normal((4, 2))
        slot = 0
        dev.forward_batch([p], X, every_row(X), noise_slot=slot)
        out = dev.forward_batch([q], X, every_row(X), noise_slot=slot)
        assert len(draws) == 1
        assert out.tobytes() == uncached_output(q, model, 12, slot, X).tobytes()

    def test_architectures_on_one_slot_match_fresh_devices(self, monkeypatch):
        # the replay key names the layer dims: another architecture on the same slot and shapes draws its own noise
        draws = counting_draws(monkeypatch)
        p, q = small_params([2, 3, 2], seed=28), small_params([2, 5, 2], seed=29)
        model = NoiseModel("laplace", 0.3)
        X = RngStream(30, 1).generator(0).standard_normal((4, 2))
        dev = Device(model, seed=31)
        for params in (p, q, p):
            out = dev.forward_batch([params], X, every_row(X), noise_slot=2, repeat=3)
            assert out.tobytes() == Device(model, seed=31).forward_batch([params], X, every_row(X), 2, 3).tobytes()
        assert len(draws) == 2 * 3

    def test_draw_over_the_replay_budget_is_redrawn_per_call(self, monkeypatch):
        # a call keeps its draw only when the whole draw fits REPLAY_BYTES; the outputs never depend on it
        draws = counting_draws(monkeypatch)
        p = small_params([2, 3, 2], seed=14)
        model = NoiseModel("laplace", 0.3)
        X = RngStream(15, 1).generator(0).standard_normal((9, 2))
        n_blocks = len(point_blocks(p.arch, 9, 500))
        assert n_blocks == 5
        outs = {}
        for budget in (device_module.REPLAY_BYTES, 0):
            monkeypatch.setattr(device_module, "REPLAY_BYTES", budget)
            dev = Device(model, seed=16)
            before = len(draws)
            outs[budget] = [dev.forward_batch([p], X, every_row(X), 0, 500) for _ in range(3)]
            assert len(draws) - before == (n_blocks if budget else 3 * n_blocks)
        for kept, streamed in zip(*outs.values()):
            assert kept.tobytes() == streamed.tobytes()


SHALLOW_MNIST = (784, 500, 100, 100, 10)
MIB = 2**20


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


DESK_SMALL = (16, 32, 16, 4)


def wide_params(seed=0):
    arch = Architecture(SHALLOW_MNIST)
    gen = RngStream(seed, 1).generator(0)
    ws = [gen.uniform(-1, 1, (o, i)) / np.sqrt(i) for i, o in zip(SHALLOW_MNIST[:-1], SHALLOW_MNIST[1:])]
    return Params(arch, ws, [np.zeros(o) for o in SHALLOW_MNIST[1:]])


class TestBlockForward:
    """forward_batch runs whole-point blocks, each on its own (slot, block)-keyed draw."""

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("k1, repeat", [(700, 3), (3, CHUNK_ROWS + 5)])
    def test_blocks_match_keyed_draws(self, family, k1, repeat, monkeypatch):
        # 700 x 3: blocks of 341 points and a short last one; CHUNK_ROWS + 5 repeats: one point per block
        draws = counting_draws(monkeypatch)
        p = small_params([3, 5, 4, 2], seed=20)
        model = NoiseModel(family, 0.3)
        dev = Device(model, seed=21)
        X = RngStream(22, 1).generator(0).standard_normal((k1, 3))
        out = dev.forward_batch([p], X, every_row(X), noise_slot=3, repeat=repeat)
        assert dev.query_count == k1 * repeat and out.shape == (k1 * repeat, 2)
        blocks = point_blocks(p.arch, k1, repeat)
        assert len(blocks) == 3 and len(draws) == 3
        for c, (start, stop) in enumerate(blocks):
            rows = (stop - start) * repeat
            assert draws[c].act[0].shape == (rows, 3)  # one block's noise at a time
            draw = keyed_block_draw(p, model, 21, 3, c, rows)
            ref = forward_noisy(p, X[start:stop], draw, repeat).activations[-1]
            assert out[start * repeat:stop * repeat].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("dims, repeat, replayed", [(DESK_SMALL, 300, True), (SHALLOW_MNIST, 500, False)],
                             ids=["desk_small_replayed", "shallow_mnist_streamed"])
    def test_points_out_of_order_and_repeated_match_keyed_draws(self, family, dims, repeat, replayed, monkeypatch):
        # each block gathers its own points' rows, so the reference scores the gathered rows X[points]; a
        # desk_small call keeps its 1.1 MB draw and replays it, a 35 MB shallow_mnist one streams block after block
        draws = counting_draws(monkeypatch)
        arch = Architecture(dims)
        p = wide_params(seed=40) if dims == SHALLOW_MNIST else small_params(dims, seed=40)
        model = NoiseModel(family, 0.3)
        dev = Device(model, seed=41)
        X = RngStream(42, 1).generator(0).standard_normal((6, dims[0]))
        points = np.array([5, 0, 5, 2])
        n_blocks = len(point_blocks(arch, len(points), repeat))
        assert n_blocks > 1
        assert (8 * len(points) * repeat * arch.noise_values_per_row <= device_module.REPLAY_BYTES) == replayed
        want = uncached_output(p, model, 41, 3, X[points], repeat).tobytes()
        for call in (1, 2):
            assert dev.forward_batch([p], X, points, noise_slot=3, repeat=repeat).tobytes() == want
            assert len(draws) == (n_blocks if replayed else call * n_blocks)
        assert dev.query_count == 2 * len(points) * repeat

    def test_sets_share_each_block(self, monkeypatch):
        # m parameter sets give m * n rows, set-major, each as if scored alone; each block is drawn once
        draws = counting_draws(monkeypatch)
        monkeypatch.setattr(device_module, "REPLAY_BYTES", 0)
        sets = [small_params([3, 4, 2], seed=s) for s in (23, 24, 25)]
        model = NoiseModel("gaussian_multiplicative", 0.2)
        X = RngStream(26, 1).generator(0).standard_normal((300, 3))
        dev = Device(model, seed=27)
        together = dev.forward_batch(sets, X, every_row(X), 1, 8)
        assert dev.query_count == 3 * 300 * 8
        assert len(draws) == len(point_blocks(sets[0].arch, 300, 8))
        for p, rows in zip(sets, together.reshape(3, 300 * 8, 2)):
            assert rows.tobytes() == dev.forward_batch([p], X, every_row(X), 1, 8).tobytes()
        with pytest.raises(ValueError, match="no parameter sets"):
            dev.forward_batch([], X, every_row(X), 1, 8)

    def test_wide_call_holds_one_block_of_noise(self):
        # an 8,000-row shallow_mnist call: its whole draw is 140 MB (134 MiB), one 112-row block of it 2.0 MB
        # (BLOCK_BYTES); one block's draw and output-only pass, reused block after block, peak at about 3.8 MiB
        # (29.5 MiB in 1,024-row blocks, 35 MiB when each block's draw and trace were fresh)
        p = wide_params()
        dev = Device(NoiseModel("gaussian_additive", 0.1), seed=1)
        X = RngStream(2, 1).generator(0).standard_normal((1000, SHALLOW_MNIST[0]))
        peak = traced_peak(lambda: dev.forward_batch([p], X, every_row(X), noise_slot=0, repeat=8))
        assert dev.query_count == 8000
        assert peak < 4.2 * MIB, f"peak traced allocation {peak / MIB:.1f} MiB"

    def test_streamed_calls_share_the_device_vector(self):
        # a streamed call draws each block into the front of the device's one draw vector, which outlives the
        # call, so a second 8,000-row shallow_mnist call allocates no block draw (2.0 MB) of its own
        p = wide_params()
        dev = Device(NoiseModel("gaussian_additive", 0.1), seed=1)
        X = RngStream(2, 1).generator(0).standard_normal((1000, SHALLOW_MNIST[0]))
        first = dev.forward_batch([p], X, every_row(X), noise_slot=0, repeat=8)
        peak = traced_peak(lambda: dev.forward_batch([p], X, every_row(X), noise_slot=1, repeat=8))
        block_draw = block_rows(p.arch, 1000, 8) * p.arch.noise_values_per_row * 8
        assert 8 * first.size * p.arch.noise_values_per_row > device_module.REPLAY_BYTES  # streamed, not kept
        assert peak < block_draw, f"peak traced allocation {peak / MIB:.1f} MiB"


class TestFamilies:
    def test_uniform_site_variance(self):
        # W=0 isolates the output-site noise: Var = s^2/3 per component
        s = 0.6
        dev, p = zero_weight_device("uniform", s, d=1)
        outs = dev.forward_batch([p], np.zeros((10**5, 1)), np.arange(10**5), 0)
        assert abs(outs.var() / (s**2 / 3) - 1.0) < 0.05

    def test_uniform_identity_net_total_variance(self):
        # identity net passes input-site noise through: Var = 2 s^2/3
        s = 0.6
        dev, p = identity_device("uniform", s, d=1)
        outs = dev.forward_batch([p], np.zeros((10**5, 1)), np.arange(10**5), 0)
        assert abs(outs.var() / (2 * s**2 / 3) - 1.0) < 0.05

    def test_laplace_excess_kurtosis(self):
        dev, p = zero_weight_device("laplace", 0.5, d=1)
        outs = dev.forward_batch([p], np.zeros((2 * 10**5, 1)), np.arange(2 * 10**5), 0).ravel()
        m2 = (outs**2).mean()
        m4 = (outs**4).mean()
        assert abs(m4 / m2**2 - 3.0 - 3.0) < 0.4

    def test_laplace_scale_parameterization(self):
        # level is the Laplace scale b: Var = 2 b^2
        b = 0.3
        dev, p = zero_weight_device("laplace", b, d=1)
        outs = dev.forward_batch([p], np.zeros((2 * 10**5, 1)), np.arange(2 * 10**5), 0)
        assert abs(outs.var() / (2 * b**2) - 1.0) < 0.05

    def test_multiplicative_zero_input_is_biasless(self):
        # x=0 through zero weights: output = b*(1+sg) terms vanish -> exactly 0
        dev, p = zero_weight_device("gaussian_multiplicative", 0.3, d=2)
        outs = dev.forward_batch([p], np.zeros((100, 2)), np.arange(100), 0)
        assert np.allclose(outs, 0.0)

    def test_multiplicative_scales_with_signal(self):
        s = 0.2
        dev, p = identity_device("gaussian_multiplicative", s, d=1)
        x = np.full((10**5, 1), 2.0)
        outs = dev.forward_batch([p], x, every_row(x), 0)
        assert abs(outs.mean() - 2.0) < 0.02
        assert outs.var() > 0.5 * s**2 * 4.0


class TestSetParams:
    def test_replaces_params(self):
        # each call scores the sets it is given, and only reads them
        dev, p = identity_device("gaussian_additive", 1e-9, d=2)
        q = p.copy()
        q.weights[0][:] = 2 * np.eye(2)
        x = np.array([[1.0, -1.0]])
        assert np.allclose(dev.forward_batch([q], x, every_row(x), 0), 2 * x, atol=1e-6)
        assert np.allclose(dev.forward_batch([p], x, every_row(x), 0), x, atol=1e-6)
        assert np.array_equal(q.vector, 2 * p.vector)

    def test_tiny_level_matches_deterministic(self):
        p = small_params([3, 3, 2], seed=6)
        dev = Device(NoiseModel("gaussian_additive", 1e-9), seed=0)
        x = np.array([[0.2, 0.4, -0.5]])
        assert np.allclose(dev.forward_batch([p], x, every_row(x), 0), forward_deterministic(p, x), atol=1e-7)

    def test_dims_mismatch_rejected(self):
        # the sets of one call share one architecture
        dev, p = identity_device("gaussian_additive", 0.1, d=2)
        for other in (small_params([3, 2]), small_params([2, 3, 2])):
            with pytest.raises(ValueError, match="do not match"):
                dev.forward_batch([p, other], np.zeros((1, 2)), np.arange(1), 0)
        assert dev.query_count == 0

    def test_does_not_reset_counter(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0)
        dev.forward_batch([p.copy()], np.zeros((1, 2)), np.arange(1), 0)
        assert dev.query_count == 2


class TestOpacity:
    def test_no_trace_or_noise_leaks(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        exposed = [a for a in dir(dev) if not a.startswith("_")]
        for attr in exposed:
            assert "trace" not in attr.lower()
            assert "noise_draw" not in attr.lower()
        out = dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0)
        assert isinstance(out, np.ndarray) and out.shape == (1, 2)

    def test_output_is_a_copy(self):
        dev, p = identity_device("gaussian_additive", 0.1)
        out = dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0)
        out[:] = 99.0
        again = dev.forward_batch([p], np.zeros((1, 2)), np.arange(1), 0)
        assert not np.array_equal(out, again)


def test_device_forward_helper():
    dev, p = identity_device("gaussian_additive", 1e-9)
    x = np.array([[0.7, -0.7]])
    assert np.allclose(dev.forward_batch([p], x, every_row(x), 0), x, atol=1e-6)
