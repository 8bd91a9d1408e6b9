import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from giftnn.cli import DEFAULT_CONFIG
from giftnn.data import Dataset, synthetic_linear
from giftnn import device as device_module
from giftnn.device import Device
from giftnn.gift import (
    EvalReport,
    GiftConfig,
    estimate_direction,
    eval_in_situ,
    gift_run,
    mean_se,
    noise_weight_factor,
    normalize,
)
from giftnn.gradients import backward, residual_stack
from giftnn.model import (
    CHUNK_ROWS,
    Architecture,
    NOISE_FAMILIES,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DATA,
    STREAM_ESTIMATE,
    STREAM_EVAL,
    apply_step,
    forward_noisy,
    point_blocks,
    sample_noise_batch,
)

from test_device import (MIB, SHALLOW_MNIST, counting_draws, every_row, keyed_block_draw, traced_peak,
                         wide_params)
from test_model import small_params, zero_draw


class TestNoiseWeightFactor:
    def test_zero_draw_gives_minus_total_dim(self):
        arch = Architecture((3, 5, 2))
        f = noise_weight_factor(zero_draw(arch, 1), 0.2)
        assert f.tolist() == [-(3 + 5 + 5 + 2)]

    def test_unit_scale_draw_vanishes(self):
        # every site holds exactly level-s0 entries: per-site term is 0
        s0 = 0.4
        draw = NoiseDraw.over(Architecture((1, 1)), np.array([s0, s0]))
        assert noise_weight_factor(draw, s0).tolist() == [0.0]

    def test_single_site_contribution(self):
        s0 = 0.4
        draw = NoiseDraw.over(Architecture((1, 1)), np.array([s0, 0.0]))
        assert noise_weight_factor(draw, s0) == pytest.approx([-1.0])

    def test_zero_mean_at_matching_level(self):
        arch = Architecture((2, 3))
        s0 = 0.7
        n = 10**5
        batch = sample_noise_batch(arch, NoiseModel("gaussian_additive", s0),
                                   RngStream(5, STREAM_ESTIMATE).generator(0), n)
        f = noise_weight_factor(batch, s0)
        assert f.shape == (n,)
        # Var per site = 2 d, total dim 5 -> SE = sqrt(10/n)
        assert abs(f.mean()) < 4.0 * np.sqrt(2 * 5 / n)

    def test_requires_positive_s0(self):
        arch = Architecture((1, 1))
        with pytest.raises(ValueError):
            noise_weight_factor(zero_draw(arch, 1), 0.0)


@pytest.mark.parametrize("use, message", [
    (lambda p, x, draw: backward(forward_noisy(p, x, draw), np.zeros((1, 2)), p), "requires a trace from an additive"),
    (lambda p, x, draw: backward(forward_noisy(p, x), np.zeros((1, 2)), p), "requires a trace from an additive"),
    (lambda p, x, draw: noise_weight_factor(draw, 0.1), "defined for additive draws"),
    (lambda p, x, draw: noise_weight_factor(draw, 0.1, np.empty(12)), "defined for additive draws"),
], ids=["backward", "backward_noise_free", "noise_weight_factor", "noise_weight_factor_scratch"])
def test_additive_only_guards_reject_multiplicative_draws(use, message):
    # backprop needs a trace of an additive draw, and the score factor an additive draw; only the device
    # applies multiplicative factors
    p = small_params([2, 3, 2], seed=7)
    draw = sample_noise_batch(p.arch, NoiseModel("gaussian_multiplicative", 0.1),
                              RngStream(8, STREAM_EVAL).generator(0), 1)
    with pytest.raises(ValueError, match=message):
        use(p, np.zeros((1, 2)), draw)


def fresh_block_estimate(params, data, s0, k1, k2, rng):
    """estimate_direction written out with a fresh draw, trace, residuals and weighted terms for every block."""
    arch = params.arch
    idx = rng.generator(0).integers(0, len(data), size=k1)
    total = Params.zeros(arch)
    for c, (start, stop) in enumerate(point_blocks(arch, k1, k2)):
        rows = idx[start:stop]
        noise = sample_noise_batch(arch, NoiseModel("gaussian_additive", s0), rng.generator(1 + c), len(rows) * k2)
        trace = forward_noisy(params, data.inputs[rows], noise, k2)
        R = residual_stack(trace, np.repeat(data.targets[rows], k2, axis=0), params)
        f = noise_weight_factor(noise, s0)
        for l in range(arch.n_layers):
            Rw = R[l] * f[:, None]
            total.weights[l] += Rw.T @ trace.activations[l]
            total.biases[l] += Rw.sum(axis=0)
    return Params.from_vector(arch, total.vector / (k1 * k2))


def linear_dataset(n=1024, seed=3, v=(0.3, -0.4)):
    return synthetic_linear(np.atleast_2d(v), 1.0, n, RngStream(seed, STREAM_DATA))


TWO_OUTPUTS = ((0.3, -0.4), (0.2, 0.1))  # linear_dataset's v for the [2, 2] nets


class TestEstimateDirection:
    def test_degenerate_k1_k2_unwinds_to_one_term(self):
        p = small_params([2, 2, 1], seed=8)
        data = Dataset(np.array([[0.5, -0.5]]), np.array([[0.25]]))
        s0 = 0.3
        rng = RngStream(9, STREAM_ESTIMATE)
        d = estimate_direction(p, data, s0, 1, 1, rng)

        # replay: same index stream, same noise stream
        model = NoiseModel("gaussian_additive", s0)
        draws = sample_noise_batch(p.arch, model, rng.generator(1), 1)
        trace = forward_noisy(p, data.inputs, draws)
        g = backward(trace, data.targets, p)
        f = noise_weight_factor(draws, s0)[0]
        assert np.allclose(d.vector, f * (g.vector / -2.0), rtol=1e-12)

    def test_affine_in_targets_with_shared_streams(self):
        # the estimate is affine in Y under fixed noise: D(2Y) = 2 D(Y) - D(0);
        # the noise offset in the residual is why plain doubling is off by D(0)
        arch = Architecture((2, 1))
        p = Params(arch, [np.zeros((1, 2))], [np.zeros(1)])
        X = RngStream(10, STREAM_DATA).generator(0).standard_normal((64, 2))
        Y = X @ np.array([[0.3], [-0.4]])
        est = lambda targets: estimate_direction(
            p, Dataset(X, targets), 0.2, 16, 4, RngStream(11, STREAM_ESTIMATE))
        d1, d2, d0 = est(Y), est(2 * Y), est(0 * Y)
        assert np.allclose(d2.vector, 2 * d1.vector - d0.vector, rtol=1e-10)

    def test_zero_k1_rejected(self):
        p = small_params([2, 1])
        with pytest.raises(ValueError):
            estimate_direction(p, Dataset(np.zeros((1, 2)), np.zeros((1, 1))), 0.2, 0, 1,
                               RngStream(0, STREAM_ESTIMATE))

    def test_deterministic(self):
        p = small_params([2, 1], seed=12)
        data = linear_dataset(128)
        a = estimate_direction(p, data, 0.2, 32, 8, RngStream(13, STREAM_ESTIMATE))
        b = estimate_direction(p, data, 0.2, 32, 8, RngStream(13, STREAM_ESTIMATE))
        assert np.array_equal(a.vector, b.vector)

    def test_wide_estimate_stays_within_block_memory(self):
        # at k2 = 100 a block is one point (100 rows of 2,194 noise values, under BLOCK_BYTES); one set of 100-row
        # arrays, reused by every block, peaks near 11.9 MiB. 1,000-row blocks peaked at 52.3 MiB, a block drawn
        # while the previous one was still held took ten blocks to 76 MiB, repeated input rows to 82 MiB, and
        # 8,192-row blocks to 429 MiB
        p = wide_params(seed=14)
        X = RngStream(15, STREAM_DATA).generator(0).standard_normal((200, SHALLOW_MNIST[0]))
        data = Dataset(X, np.tanh(X[:, :SHALLOW_MNIST[-1]]))
        one_block, ten_blocks = (
            traced_peak(lambda: estimate_direction(p, data, 0.1, k1, 100, RngStream(16, STREAM_ESTIMATE)))
            for k1 in (1, 10))
        assert ten_blocks < 12.5 * MIB, f"peak traced allocation {ten_blocks / MIB:.1f} MiB"
        assert ten_blocks - one_block < 1 * MIB, f"ten blocks {ten_blocks / MIB:.1f} MiB, one {one_block / MIB:.1f}"

    @pytest.mark.parametrize("dims", [(3, 6, 4, 2), (7, 3, 2)], ids=["widest_hidden", "widest_input"])
    @pytest.mark.parametrize("k1, k2", [(37, 30), (3, 2000)], ids=["short_last_block", "point_per_block"])
    def test_reused_arrays_match_fresh_arrays_per_block(self, dims, k1, k2):
        # 37 x 30: blocks of 34 points and a short last one of 3, over rows the first block left behind;
        # 3 x 2000: one point per block, each block larger than CHUNK_ROWS
        p = small_params(list(dims), seed=30)
        gen = RngStream(31, STREAM_DATA).generator(0)
        data = Dataset(gen.standard_normal((64, dims[0])), gen.standard_normal((64, dims[-1])))
        got = estimate_direction(p, data, 0.2, k1, k2, RngStream(32, STREAM_ESTIMATE))
        want = fresh_block_estimate(p, data, 0.2, k1, k2, RngStream(32, STREAM_ESTIMATE))
        assert got.vector.tobytes() == want.vector.tobytes()

    def test_direction_norm_and_scaling(self):
        d = Params(Architecture((2, 1)), [np.array([[3.0, 0.0]])], [np.array([4.0])])
        assert d.norm() == pytest.approx(5.0)
        assert normalize(d) is d and d.norm() == pytest.approx(1.0)
        assert d.vector.tolist() == [3.0 * (1 / 5.0), 0.0, 4.0 * (1 / 5.0)]


def sample_rows(data, k1, seed):
    """K1 row indices drawn with replacement at stream (seed, STREAM_EVAL) index 0."""
    return RngStream(seed, STREAM_EVAL).generator(0).integers(0, len(data), size=k1)


def repeated_rows_reference(params, model, seed, slot, data, idx, k2):
    """Outputs and report of scoring np.repeat-ed rows: one forward_noisy per block over its keyed draw."""
    X, Y = (np.repeat(a[idx], k2, axis=0) for a in (data.inputs, data.targets))
    k1 = len(idx)
    out = np.concatenate([
        forward_noisy(params, X[start * k2:stop * k2],
                      keyed_block_draw(params, model, seed, slot, c, (stop - start) * k2)).activations[-1]
        for c, (start, stop) in enumerate(point_blocks(params.arch, k1, k2))])
    per_point = ((Y - out) ** 2).sum(axis=1).reshape(k1, k2).mean(axis=1)
    per_point_acc = (np.argmax(out, axis=1) == np.argmax(Y, axis=1)).reshape(k1, k2).mean(axis=1)
    return out, EvalReport(float(per_point.mean()), mean_se(per_point), float(per_point_acc.mean()),
                           mean_se(per_point_acc), k1, k2, slot)


# each entry point that takes a count of rows, with the count as its last argument
COUNTED_CALLS = {
    "repeat": lambda dev, p, X, Y, n: dev.forward_batch([p], X, np.arange(4), 0, n).tobytes(),
    "k2": lambda dev, p, X, Y, n: repr(eval_in_situ(dev, [p], X, Y, np.arange(4), n, 0)),
    "n": lambda dev, p, X, Y, n: sample_noise_batch(p.arch, NoiseModel("laplace", 0.2), RngStream(3).generator(0),
                                                    n).vector.tobytes(),
}


@pytest.mark.parametrize("name", COUNTED_CALLS)
@pytest.mark.parametrize("count", [2.0, True, 2.5])
def test_counts_of_rows_take_an_integral_float_as_its_integer(name, count):
    # 2.0 runs as 2; True and 2.5 are refused by name before any row is queried or drawn
    call = COUNTED_CALLS[name]
    p = small_params([2, 3, 1], seed=4)
    X, Y = RngStream(5).generator(0).standard_normal((4, 2)), np.zeros((4, 1))
    dev = Device(NoiseModel("gaussian_additive", 0.2), seed=6)
    if count == 2:
        assert call(dev, p, X, Y, count) == call(Device(NoiseModel("gaussian_additive", 0.2), seed=6), p, X, Y, 2)
        return
    with pytest.raises(ValueError, match=rf"^{name}: expected an integer, got {re.escape(repr(count))}$"):
        call(dev, p, X, Y, count)
    assert dev.query_count == 0


class TestEvalInSitu:
    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("k1, k2", [(401, 3), (23, 100)])
    def test_per_point_scoring_matches_repeated_rows(self, family, k1, k2):
        # several blocks of whole points, the last one short; neither k2 divides CHUNK_ROWS
        p = small_params([3, 5, 4, 3], seed=30)
        assert len(point_blocks(p.arch, k1, k2)) > 1 and k1 % (CHUNK_ROWS // k2) and CHUNK_ROWS % k2
        gen = RngStream(31, STREAM_DATA).generator(0)
        X = gen.standard_normal((64, 3))
        data = Dataset(X, np.tanh(X @ gen.standard_normal((3, 3))))
        model = NoiseModel(family, 0.3)
        dev = Device(model, seed=32)
        idx = sample_rows(data, k1, 33)
        slot = 5
        ref_out, ref_report = repeated_rows_reference(p, model, 32, slot, data, idx, k2)
        out = dev.forward_batch([p], data.inputs, idx, slot, k2)
        assert dev.query_count == k1 * k2
        assert np.array_equal(out, ref_out)
        for calls in (2, 3):
            assert eval_in_situ(dev, [p], data.inputs, data.targets, idx, k2, slot) == [ref_report]
            assert dev.query_count == calls * k1 * k2

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_one_call_scores_like_single_calls(self, family):
        # [w0, w+, w-] in one call: the reports of three single calls, with as many queries
        w0 = small_params([3, 5, 2], seed=34)
        d = small_params([3, 5, 2], seed=35)
        sets = [w0, apply_step(w0, 0.1, d), apply_step(w0, -0.1, d)]
        gen = RngStream(36, STREAM_DATA).generator(0)
        X = gen.standard_normal((300, 3))
        Y = np.tanh(X[:, :2])
        model = NoiseModel(family, 0.3)
        together_dev, single_dev = Device(model, seed=37), Device(model, seed=37)
        together = eval_in_situ(together_dev, sets, X, Y, every_row(X), 8, 6)
        singles = [eval_in_situ(single_dev, [p], X, Y, every_row(X), 8, 6)[0] for p in sets]
        assert together == singles
        assert together_dev.query_count == single_dev.query_count == 3 * 300 * 8

    def test_needs_a_parameter_set(self):
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=27)
        with pytest.raises(ValueError, match="no parameter sets"):
            eval_in_situ(dev, [], np.zeros((4, 2)), np.zeros((4, 2)), np.arange(4), 4, 0)
        assert dev.query_count == 0

    def test_perfect_predictor_near_zero_loss(self):
        V = np.array([[0.3, -0.4]])
        arch = Architecture((2, 1))
        p = Params(arch, [V.copy()], [np.zeros(1)])
        data = linear_dataset(256)
        dev = Device(NoiseModel("gaussian_additive", 1e-9), seed=1)
        idx = sample_rows(data, 64, 2)
        rep, = eval_in_situ(dev, [p], data.inputs, data.targets, idx, 2, 0)
        assert rep.loss < 1e-12
        assert rep.accuracy == 1.0  # single output: argmax trivially matches

    def test_single_term(self):
        arch = Architecture((1, 1))
        p = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        data = Dataset(np.array([[2.0]]), np.array([[0.0]]))
        dev = Device(NoiseModel("gaussian_additive", 1e-12), seed=0)
        rep, = eval_in_situ(dev, [p], data.inputs, data.targets, every_row(data.inputs), 1, 0)
        assert rep.loss == pytest.approx(4.0, rel=1e-6)
        assert rep.loss_se == 0.0

    def test_matches_independent_objective_estimate(self):
        # device at level s == in-silico J_s, two-estimator agreement at 3 SE
        p = small_params([2, 3, 2], seed=20)
        gen = RngStream(21, STREAM_DATA).generator(0)
        X = gen.standard_normal((512, 2))
        Y = np.tanh(X @ gen.standard_normal((2, 2)))
        data = Dataset(X, Y)
        s = 0.3
        dev = Device(NoiseModel("gaussian_additive", s), seed=22)
        idx = sample_rows(data, 2000, 23)
        rep, = eval_in_situ(dev, [p], X, Y, idx, 8, 0)

        model = NoiseModel("gaussian_additive", s)
        rng = RngStream(24, STREAM_EVAL)
        idx = rng.generator(0).integers(0, len(data), size=200_000)
        losses = []
        for c, start in enumerate(range(0, len(idx), 8192)):
            rows = idx[start:start + 8192]
            noise = sample_noise_batch(p.arch, model, rng.generator(1 + c), rows.size)
            out = forward_noisy(p, X[rows], noise).activations[-1]
            losses.append(((Y[rows] - out) ** 2).sum(axis=1))
        losses = np.concatenate(losses)
        ref, ref_se = losses.mean(), losses.std(ddof=1) / np.sqrt(losses.size)
        pooled = np.sqrt(rep.loss_se**2 + ref_se**2)
        assert abs(rep.loss - ref) < 3 * pooled

    def test_pinned_indices_and_slot_reproduce(self):
        p = small_params([2, 2], seed=25)
        data = linear_dataset(64, seed=26, v=TWO_OUTPUTS)
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=27)
        X, Y = data.inputs[:32], data.targets[:32]
        a, = eval_in_situ(dev, [p], X, Y, every_row(X), 4, 9)
        b, = eval_in_situ(dev, [p], X, Y, every_row(X), 4, 9)
        assert a.loss == b.loss and a.accuracy == b.accuracy
        assert (a.k1, a.k2, a.noise_slot) == (32, 4, 9)

    def test_k2_must_be_positive(self):
        p = small_params([2, 2], seed=25)
        data = linear_dataset(64, seed=26, v=TWO_OUTPUTS)
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=27)
        for k2 in (0, -1):
            with pytest.raises(ValueError, match=f"k2 must be >= 1, got {k2}"):
                eval_in_situ(dev, [p], data.inputs[:8], data.targets[:8], np.arange(8), k2, 0)
        assert dev.query_count == 0

    def test_line_search_call_squares_the_errors_in_its_outputs(self):
        # one [w0, w+, w-] call at shallow_mnist dims, 1,000 points x 8, on a fresh device: the device's block draw,
        # output-only pass and 1.8 MiB output array stay live while each set is scored; forming (Y - out)^2 in two new
        # (1000, 8, 10) arrays per set peaked at 5.76 MiB, squaring in the outputs at 5.23 MiB
        w0, d = wide_params(seed=0), wide_params(seed=1)
        sets = [w0, apply_step(w0, 0.02, d), apply_step(w0, -0.02, d)]
        gen = RngStream(2, 1).generator(0)
        X, Y = gen.standard_normal((1000, SHALLOW_MNIST[0])), gen.standard_normal((1000, SHALLOW_MNIST[-1]))
        dev = Device(NoiseModel("gaussian_additive", 0.1), seed=1)
        peak = traced_peak(lambda: eval_in_situ(dev, sets, X, Y, every_row(X), 8, 0))
        assert dev.query_count == 3 * 8000
        assert peak < 5.5 * MIB, f"peak traced allocation {peak / MIB:.2f} MiB"

    def test_inputs_must_hold_a_data_point(self):
        p = small_params([2, 2], seed=25)
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=27)
        with pytest.raises(ValueError, match="no data points to score"):
            eval_in_situ(dev, [p], np.zeros((4, 2)), np.zeros((4, 2)), np.arange(0), 4, 0)
        assert dev.query_count == 0

    def test_targets_must_match_the_outputs(self):
        # a one-column target would otherwise broadcast over both outputs
        p = small_params([2, 2], seed=25)
        data = linear_dataset(64, seed=26, v=(0.2, 0.1))
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=27)
        assert data.targets.shape == (64, 1)
        with pytest.raises(ValueError, match=r"target shape \(64, 1\), want \(64, 2\)"):
            eval_in_situ(dev, [p], data.inputs, data.targets, every_row(data.inputs), 4, 0)
        # nor do K1 x k2 repeated targets fit K1 per-point inputs
        Y = np.repeat(linear_dataset(64, seed=26, v=TWO_OUTPUTS).targets[:8], 4, axis=0)
        with pytest.raises(ValueError, match=r"target shape \(32, 2\), want \(8, 2\) for input shape \(8, 2\)"):
            eval_in_situ(dev, [p], data.inputs[:8], Y, np.arange(8), 4, 0)
        assert dev.query_count == 0


def quadratic_device_and_data(s_t=1e-9, y=2.0):
    # one data point (x=1, y) on a [1,1] net: loss(w) = (y - w)^2 up to s_t noise
    arch = Architecture((1, 1))
    w0 = Params(arch, [np.array([[0.0]])], [np.zeros(1)])
    data = Dataset(np.array([[1.0]]), np.array([[y]]))
    dev = Device(NoiseModel("gaussian_additive", s_t), seed=0)
    return arch, w0, data, dev


class TestGiftConfig:
    def test_defaults_match_the_config_schema(self):
        gift = DEFAULT_CONFIG["gift"]
        assert sorted(f.name for f in fields(GiftConfig)) == sorted(gift)
        for f in fields(GiftConfig):
            assert f.default is MISSING or f.default == gift[f.name], f.name

    @pytest.mark.parametrize("count", ["k1", "k2", "est_k1", "est_k2"])
    def test_counts_must_be_positive(self, count):
        with pytest.raises(ValueError, match="must be >= 1"):
            GiftConfig(**{"eta": 0.1, "k1": 4, "k2": 2, count: 0})


class TestGiftRun:
    def test_wide_line_search_builds_no_repeated_rows(self):
        # one call scores [w0, w+, w-] block by block, never holding the search's whole 140 MB draw, and the device
        # keeps no copies of the sets (three 3.5 MiB copies put the peak at 63.0 MiB); with one 112-row block's
        # draw and output-only passes reused block after block, each block gathering its own points' rows, and
        # the unit direction taken as given, it peaks at about 12.7 MiB (22.1 MiB with the search's 1,000 x 784
        # gathered points and a unit copy of the direction, 47.2 MiB in 1,024-row blocks, 52.6 when each block
        # was fresh)
        w0, d = wide_params(seed=17), normalize(wide_params(seed=18))
        X = RngStream(19, STREAM_DATA).generator(0).standard_normal((200, SHALLOW_MNIST[0]))
        data = Dataset(X, np.tanh(X[:, :SHALLOW_MNIST[-1]]))
        dev = Device(NoiseModel("gaussian_additive", 0.1), seed=20)
        cfg = GiftConfig(eta=0.01, k1=1000, k2=8, max_steps=1)
        peak = traced_peak(lambda: gift_run(dev, w0, d, cfg, data, RngStream(21, STREAM_EVAL)))
        assert dev.query_count == 3 * 1000 * 8
        assert peak < 13.5 * MIB, f"peak traced allocation {peak / MIB:.1f} MiB"

    def test_quadratic_line_search_finds_minimum(self):
        # (w-1.8)^2 from w0=0 with D=1, eta=0.5: both_worse keeps searching past
        # the immediately-worse minus side and lands on the nearest grid point, w=2.0
        arch, w0, data, dev = quadratic_device_and_data(y=1.8)
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=1, max_steps=10, stop_rule="both_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(1, STREAM_EVAL))
        assert trace.selected == (4, 1)
        assert trace.w_f.weights[0][0, 0] == pytest.approx(2.0, abs=1e-12)
        # at +-4.0 both sides are worse than the baseline (4.84 and 33.64 > 3.24),
        # by far more than the noise, so it stops there
        assert trace.steps_taken == 8
        visited = sorted(i * s * 0.5 for i, s, _ in trace.records)
        assert visited == [x * 0.5 for x in range(-8, 0)] + [x * 0.5 for x in range(1, 9)]
        assert 2.0 in visited
        # the loss at w=2.0 is (1.8 - 2.0)^2 = 0.04
        assert trace.improvement == pytest.approx(trace.baseline.loss - 0.04, rel=1e-6)

    def test_both_worse_walk_returns_the_selected_minus_candidate(self):
        # output w + b along D = (2, 1)/sqrt(5) toward y = -1.8: the plus side is worse from step 1, the minus
        # side passes the minimum near c = -1.34 and is worse than the baseline from step 11 (c = -2.75) on
        arch, w0, data, dev = quadratic_device_and_data(y=-1.8)
        d = normalize(Params(arch, [np.array([[2.0]])], [np.array([1.0])]))
        cfg = GiftConfig(eta=0.25, k1=1, k2=1, max_steps=15, stop_rule="both_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(6, STREAM_EVAL))
        assert trace.stop_reason == "both_worse"
        assert trace.steps_taken == 11
        assert trace.selected == (5, -1)
        i, sign = trace.selected
        want = apply_step(w0, i * sign * cfg.eta, d)
        assert trace.w_f.vector.tobytes() == want.vector.tobytes()
        assert not np.shares_memory(trace.w_f.vector, w0.vector)
        assert not np.shares_memory(trace.w_f.vector, d.vector)

    def test_quadratic_under_paper_literal_rule_stops_early(self):
        # either_worse stops at i=1 because the minus side is already worse
        arch, w0, data, dev = quadratic_device_and_data()
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=1, max_steps=10, stop_rule="either_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(1, STREAM_EVAL))
        assert trace.steps_taken == 1
        assert trace.stop_reason == "either_worse"
        assert trace.selected == (1, 1)
        assert trace.w_f.weights[0][0, 0] == pytest.approx(0.5)

    def test_uphill_direction_keeps_baseline(self):
        # start at the minimum: any step along D is worse, so w_f == w0
        arch = Architecture((1, 1))
        w0 = Params(arch, [np.array([[2.0]])], [np.zeros(1)])
        data = Dataset(np.array([[1.0]]), np.array([[2.0]]))
        dev = Device(NoiseModel("gaussian_additive", 1e-9), seed=0)
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=5.0, k1=1, k2=1, max_steps=10, stop_rule="either_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(2, STREAM_EVAL))
        assert trace.selected == (0, 0)
        assert trace.improvement == 0.0
        assert trace.w_f is w0  # the baseline itself, not a copy

    def test_eta_zero_degenerates_to_baseline(self):
        arch, w0, data, dev = quadratic_device_and_data(s_t=0.3)
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.0, k1=4, k2=2, max_steps=5, stop_rule="either_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(3, STREAM_EVAL))
        assert trace.selected == (0, 0)
        assert trace.improvement == 0.0
        assert trace.steps_taken == 1

    def test_line_search_steps_along_the_unit_direction(self):
        # D = 2 normalized on loss (2 - w)^2: candidates sit at sign*i*eta*D/||D||, so eta is the step length
        arch, w0, data, dev = quadratic_device_and_data()
        raw = Params(arch, [np.array([[2.0]])], [np.zeros(1)])
        d = normalize(raw)
        assert d is raw and d.weights[0][0, 0] == 1.0  # scaled in place
        cfg = GiftConfig(eta=0.25, k1=1, k2=1, max_steps=3, stop_rule="both_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(5, STREAM_EVAL))
        assert trace.direction_norm == 1.0
        assert [(i, s) for i, s, _ in trace.records] == [(i, s) for i in (1, 2, 3) for s in (1, -1)]
        for i, s, rep in trace.records:
            assert rep.loss == pytest.approx((2.0 - s * i * 0.25) ** 2, abs=1e-6)
        assert trace.selected == (3, 1)
        assert trace.w_f.weights[0][0, 0] == 3 * 0.25

    def test_zero_direction_rejected(self):
        arch, w0, data, dev = quadratic_device_and_data()
        d = Params(arch, [np.array([[0.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=1)
        with pytest.raises(ValueError, match="direction must be finite and nonzero"):
            gift_run(dev, w0, d, cfg, data, RngStream(4, STREAM_EVAL))
        with pytest.raises(ValueError, match="direction must be finite and nonzero"):
            normalize(d)
        assert dev.query_count == 0

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, 1.0 - 1e-9])
    def test_non_unit_direction_refused(self, scale):
        # a raw estimate would silently change the step length, so the search takes unit directions only
        arch, w0, data, dev = quadratic_device_and_data()
        d = Params(arch, [np.array([[scale]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=1)
        with pytest.raises(ValueError, match=r"direction norm .* is not 1 within 1e-12"):
            gift_run(dev, w0, d, cfg, data, RngStream(4, STREAM_EVAL))
        assert dev.query_count == 0
        assert gift_run(dev, w0, normalize(d), cfg, data, RngStream(4, STREAM_EVAL)).direction_norm == 1.0

    def test_non_degradation_and_trace_consistency(self):
        p = small_params([2, 3, 2], seed=30)
        data = linear_dataset(256, seed=31, v=(0.3, 0.1))
        gen = RngStream(32, STREAM_DATA).generator(0)
        data = Dataset(data.inputs, np.column_stack([data.targets[:, 0], -data.targets[:, 0]]))
        dev = Device(NoiseModel("gaussian_additive", 0.25), seed=33)
        d = normalize(estimate_direction(p, data, 0.2, 64, 16, RngStream(34, STREAM_ESTIMATE)))
        cfg = GiftConfig(eta=0.05, k1=128, k2=4, max_steps=6, stop_rule="either_worse")
        trace = gift_run(dev, p, d, cfg, data, RngStream(35, STREAM_EVAL))
        assert trace.improvement >= 0.0
        losses = [trace.baseline.loss] + [r.loss for _, _, r in trace.records]
        assert trace.improvement == pytest.approx(trace.baseline.loss - min(losses))
        del gen

    def test_determinism_of_trace(self):
        p = small_params([2, 2], seed=40)
        data = linear_dataset(128, seed=41, v=TWO_OUTPUTS)
        cfg = GiftConfig(eta=0.1, k1=32, k2=4, max_steps=4)
        d = normalize(Params(p.arch, [np.full((2, 2), 0.5)], [np.full(2, 0.1)]))
        traces = []
        for _ in range(2):
            dev = Device(NoiseModel("laplace", 0.3), seed=42)
            traces.append(gift_run(dev, p, d, cfg, data, RngStream(43, STREAM_EVAL)))
        a, b = traces
        assert a.baseline.loss == b.baseline.loss
        assert [(i, s, r.loss) for i, s, r in a.records] == [(i, s, r.loss) for i, s, r in b.records]
        assert a.selected == b.selected

    def test_query_accounting(self):
        # (1 + 2*steps) * K1 * K2 device rows per run
        p = small_params([2, 2], seed=50)
        data = linear_dataset(64, seed=51, v=TWO_OUTPUTS)
        dev = Device(NoiseModel("gaussian_additive", 0.2), seed=52)
        cfg = GiftConfig(eta=0.05, k1=16, k2=3, max_steps=4, stop_rule="either_worse")
        d = normalize(Params(p.arch, [np.full((2, 2), 1.0)], [np.full(2, 0.5)]))
        trace = gift_run(dev, p, d, cfg, data, RngStream(53, STREAM_EVAL))
        assert trace.queries == (1 + 2 * trace.steps_taken) * 16 * 3

    def test_line_search_never_takes_slot_zero(self):
        # slot 0 belongs to the fresh pair and eval; the search draws its slot in [1, 2^62)
        arch, w0, data, dev = quadratic_device_and_data(s_t=0.1)
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=1, max_steps=1)
        slots = {gift_run(dev, w0, d, cfg, data, RngStream(seed, STREAM_EVAL)).baseline.noise_slot
                 for seed in range(500)}
        assert len(slots) == 500 and min(slots) >= 1 and max(slots) < 1 << 62

    def test_replay_budget_changes_no_trace(self, monkeypatch):
        # a walk redraws each step's blocks when its draw is over REPLAY_BYTES, with the same scores
        draws = counting_draws(monkeypatch)
        p = small_params([2, 3, 2], seed=60)
        data = linear_dataset(128, seed=61, v=TWO_OUTPUTS)
        d = normalize(Params(p.arch, [np.full((3, 2), 0.2), np.full((2, 3), -0.1)], [np.full(3, 0.1), np.zeros(2)]))
        cfg = GiftConfig(eta=0.01, k1=300, k2=8, max_steps=4, stop_rule="both_worse")
        traces, n_draws = [], []
        for budget in (device_module.REPLAY_BYTES, 0):
            monkeypatch.setattr(device_module, "REPLAY_BYTES", budget)
            before = len(draws)
            traces.append(gift_run(Device(NoiseModel("laplace", 0.3), seed=62), p, d, cfg, data,
                                   RngStream(63, STREAM_EVAL)))
            n_draws.append(len(draws) - before)
        kept, streamed = traces
        assert kept.steps_taken == streamed.steps_taken > 1
        assert (kept.baseline, kept.records, kept.selected) == (streamed.baseline, streamed.records, streamed.selected)
        assert kept.w_f.vector.tobytes() == streamed.w_f.vector.tobytes()
        n_blocks = len(point_blocks(p.arch, 300, 8))
        assert n_draws == [n_blocks, n_blocks * kept.steps_taken]

    def test_line_search_draws_its_noise_slot_once(self, monkeypatch):
        # each step scores its candidates in one call, and every step replays the shared slot's kept draw;
        # the fresh pair on slot 0 adds one draw
        draws = counting_draws(monkeypatch)
        arch, w0, data, dev = quadratic_device_and_data(s_t=0.1)
        d = Params(arch, [np.array([[1.0]])], [np.zeros(1)])
        cfg = GiftConfig(eta=0.5, k1=1, k2=4, max_steps=3, stop_rule="both_worse")
        trace = gift_run(dev, w0, d, cfg, data, RngStream(1, STREAM_EVAL))
        assert trace.steps_taken == 3 and len(trace.records) == 6
        assert len(draws) == 1
        eval_in_situ(dev, [w0, trace.w_f], data.inputs, data.targets, every_row(data.inputs), 4, 0)
        assert len(draws) == 2
        assert dev.query_count == (1 + 6 + 2) * 4
