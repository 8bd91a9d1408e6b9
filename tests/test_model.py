import pickle

import numpy as np
import pytest

from giftnn.cli import ARCH_PRESETS
from giftnn.model import (
    BLOCK_BYTES,
    CHUNK_ROWS,
    Architecture,
    ForwardTrace,
    Hyperrectangle,
    NOISE_FAMILIES,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    STREAM_VERSION,
    _draw_values,
    _site_dims,
    apply_step,
    block_rows,
    forward_deterministic,
    forward_noisy,
    load_params,
    point_blocks,
    project,
    sample_noise_batch,
    save_params,
)


def small_params(dims, seed=0, scale=0.7):
    arch = Architecture(tuple(dims))
    gen = RngStream(seed, 1).generator(0)
    ws = [gen.uniform(-scale, scale, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    bs = [gen.uniform(-0.3, 0.3, dims[i + 1]) for i in range(len(dims) - 1)]
    return Params(arch, ws, bs)


def zero_draw(arch, n):
    """An all-zero additive draw of n rows."""
    return NoiseDraw.over(arch, np.zeros(n * arch.noise_values_per_row))


class TestArchitecture:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            Architecture((4,))

    def test_requires_positive_dims(self):
        with pytest.raises(ValueError):
            Architecture((4, 0, 2))

    def test_n_layers(self):
        assert Architecture((3, 4, 2)).n_layers == 2


class TestParams:
    def test_shape_mismatch_rejected(self):
        arch = Architecture((2, 3))
        with pytest.raises(ValueError):
            Params(arch, [np.zeros((3, 3))], [np.zeros(3)])

    def test_nonfinite_rejected(self):
        arch = Architecture((2, 1))
        with pytest.raises(ValueError):
            Params(arch, [np.array([[np.inf, 0.0]])], [np.zeros(1)])
        with pytest.raises(ValueError):
            Params.from_vector(arch, [0.0, np.nan, 0.0])

    def test_vector_round_trip(self):
        p = small_params([3, 4, 2])
        q = Params.from_vector(p.arch, p.to_vector())
        for a, b in zip(p.weights, q.weights):
            assert np.array_equal(a, b)
        for a, b in zip(p.biases, q.biases):
            assert np.array_equal(a, b)

    def test_layers_are_views_in_vector_layout(self):
        p = small_params([3, 4, 2], seed=2)
        expected = np.concatenate([p.weights[0].ravel(), p.weights[1].ravel(), p.biases[0], p.biases[1]])
        assert np.array_equal(p.vector, expected)
        for q in (p, pickle.loads(pickle.dumps(p))):
            q.weights[1][1, 3] = 7.0
            q.biases[0][2] = -7.0
            assert q.vector[12 + 7] == 7.0 and q.vector[12 + 8 + 2] == -7.0

    def test_norm_sums_weight_layers_then_bias_layers(self):
        # deep_mnist dims, at a seed where one flat sum of squares differs in
        # the last bit; that bit moves every normalized direction and CSV body
        dims = (784, 500, 250, 250, 100, 50, 10)
        gen = RngStream(1, 9).generator(0)
        ws = [gen.standard_normal((dims[l + 1], dims[l])) for l in range(6)]
        bs = [gen.standard_normal(dims[l + 1]) for l in range(6)]
        p = Params(Architecture(dims), ws, bs)
        sq = sum(float((W**2).sum()) for W in ws)
        sq += sum(float((b**2).sum()) for b in bs)
        assert np.sqrt((p.vector**2).sum()) != np.sqrt(sq)
        assert p.norm() == np.sqrt(sq)

    def test_copy_is_independent(self):
        p = small_params([2, 2])
        q = p.copy()
        q.weights[0][0, 0] += 1.0
        assert p.weights[0][0, 0] != q.weights[0][0, 0]


class TestNoiseModel:
    def test_zero_level_rejected(self):
        for family in ("gaussian_additive", "uniform", "laplace", "gaussian_multiplicative"):
            with pytest.raises(ValueError):
                NoiseModel(family, 0.0)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian_additive", -0.1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("poisson", 0.1)


class TestSampleNoise:
    def test_two_l_vectors_with_matching_dims(self):
        arch = Architecture((3, 5, 4, 2))
        draw = sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.5), RngStream(0, 3).generator(0), 1)
        assert len(draw.act) == 3       # a_0 .. a_{L-1}
        assert len(draw.weigh) == 3     # w_1 .. w_L
        assert [v.shape for v in draw.act] == [(1, 3), (1, 5), (1, 4)]
        assert [v.shape for v in draw.weigh] == [(1, 5), (1, 4), (1, 2)]

    def test_same_seed_bitwise_identical(self):
        arch = Architecture((2, 3))
        model = NoiseModel("gaussian_additive", 1.0)
        a = sample_noise_batch(arch, model, RngStream(7, 3).generator(5), 1)
        b = sample_noise_batch(arch, model, RngStream(7, 3).generator(5), 1)
        for u, v in zip(a.act + a.weigh, b.act + b.weigh):
            assert np.array_equal(u, v)

    def test_gaussian_moments(self):
        # law of large numbers on one site: mean within 4 sigma/sqrt(n), var within 5%
        arch = Architecture((2, 4))
        model = NoiseModel("gaussian_additive", 1.0)
        n = 10**5
        batch = sample_noise_batch(arch, model, RngStream(1, 3).generator(0), n)
        site = batch.weigh[0]
        assert site.shape == (n, 4)
        assert abs(site.mean()) < 4.0 / np.sqrt(n * 4)
        assert abs(site.var() - 1.0) < 0.05

    def test_batch_matches_sequence_distribution(self):
        arch = Architecture((2, 2))
        model = NoiseModel("uniform", 0.3)
        batch = sample_noise_batch(arch, model, RngStream(2, 3).generator(0), 10_000)
        assert np.all(np.abs(batch.act[0]) <= 0.3)
        assert abs(batch.act[0].var() - 0.3**2 / 3) < 0.002


def per_site_draw(arch, model, rng, index, n):
    """A draw made one generator call per site, in _site_dims order: the reference layout."""
    gen = rng.generator(index)
    act, weigh = [None] * arch.n_layers, [None] * arch.n_layers
    for kind, l, d in _site_dims(arch):
        site = np.empty((n, d))
        _draw_values(gen, model.family, model.level, site)
        if kind == "a":
            act[l] = site
        else:
            weigh[l - 1] = site
    return act, weigh


class TestOneVectorDraw:
    """A draw is one generator call over one vector; each family draws every value on
    its own, so that call gives the values one call per site gives."""

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("dims", [(16, 32, 16, 4), (784, 500, 100, 100, 10), (3, 1)])
    @pytest.mark.parametrize("n, rows", [(1, None), (5, 16), (16, 16)])
    def test_one_call_equals_per_site_calls(self, family, dims, n, rows):
        arch = Architecture(dims)
        model = NoiseModel(family, 0.3)
        rng = RngStream(41, 3)
        out = None if rows is None else NoiseDraw.empty(arch, rows)
        draw = sample_noise_batch(arch, model, rng.generator(7), n, out=out)
        act, weigh = per_site_draw(arch, model, rng, 7, n)
        for u, v in zip(draw.act + draw.weigh, act + weigh, strict=True):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()
        assert draw.multiplicative == (family == "gaussian_multiplicative")

    def test_sites_are_consecutive_views_of_the_vector(self):
        arch = Architecture((3, 5, 4, 2))
        assert arch.noise_values_per_row == 3 + 5 + 5 + 4 + 4 + 2
        buf = NoiseDraw.empty(arch, 8)
        draw = sample_noise_batch(arch, NoiseModel("laplace", 0.2), RngStream(42, 3).generator(0), 3, out=buf)
        assert draw.vector.size == 3 * arch.noise_values_per_row
        assert np.shares_memory(draw.vector, buf.vector[:draw.vector.size])
        order = [draw.act[l] if kind == "a" else draw.weigh[l - 1] for kind, l, _ in _site_dims(arch)]
        assert np.concatenate([v.ravel() for v in order]).tobytes() == draw.vector.tobytes()

    def test_too_small_buffer_raises(self):
        arch = Architecture((3, 5, 2))
        buf = NoiseDraw.empty(arch, 4)
        with pytest.raises(ValueError, match="draw buffers hold 4 rows, need 5"):
            sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.2), RngStream(43, 3).generator(0), 5, out=buf)


class TestForward:
    def test_affine_example(self):
        # L=1, W=[[2]], b=[1], x=[3], zero noise -> [7]
        arch = Architecture((1, 1))
        p = Params(arch, [np.array([[2.0]])], [np.array([1.0])])
        trace = forward_noisy(p, np.array([[3.0]]), zero_draw(arch, 1))
        assert np.allclose(trace.activations[-1], [[7.0]])
        assert np.allclose(forward_deterministic(p, np.array([[3.0]])), [[7.0]])

    def test_identity_composition(self):
        # L=2 identity chain: output tanh(0.5)
        arch = Architecture((1, 1, 1))
        p = Params(arch, [np.eye(1), np.eye(1)], [np.zeros(1), np.zeros(1)])
        out = forward_deterministic(p, np.array([[0.5]]))
        assert abs(out[0, 0] - 0.46211715726) < 1e-10

    def test_straight_line_oracle(self):
        # independent reimplementation of the noisy recursion, 1e-12 relative
        p = small_params([3, 4, 2], seed=5)
        arch = p.arch
        draw = sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.4), RngStream(6, 3).generator(0), 1)
        x = RngStream(7, 3).generator(0).standard_normal((1, 3))
        trace = forward_noisy(p, x, draw)

        a = x[0] + draw.act[0][0]
        for l in range(arch.n_layers):
            z = p.weights[l] @ a + p.biases[l] + draw.weigh[l][0]
            if l < arch.n_layers - 1:
                a = np.tanh(z) + draw.act[l + 1][0]
            else:
                a = z
        assert np.allclose(trace.activations[-1][0], a, rtol=1e-12, atol=1e-14)

    def test_trace_invariants_recompute(self):
        p = small_params([2, 3, 3, 1], seed=9)
        arch = p.arch
        draw = sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.2), RngStream(8, 3).generator(0), 1)
        x = np.array([[0.3, -0.8]])
        trace = forward_noisy(p, x, draw)
        assert np.array_equal(trace.activations[0], x + draw.act[0])
        assert len(trace.hidden_tanh) == arch.n_layers - 1
        for l in range(arch.n_layers):
            z = trace.activations[l] @ p.weights[l].T + p.biases[l] + draw.weigh[l]
            if l < arch.n_layers - 1:
                # the kept t(l) = tanh(z(l)) and A(l) = t(l) + noise, bit for bit
                assert np.array_equal(trace.hidden_tanh[l], np.tanh(z))
                assert np.array_equal(trace.activations[l + 1], np.tanh(z) + draw.act[l + 1])
            else:
                assert np.array_equal(trace.activations[l + 1], z)

    @pytest.mark.parametrize("preset", ["desk_small", "shallow_mnist"])
    def test_zero_draw_equals_deterministic_exactly(self, preset):
        # the pass with no draw skips every addition of zero, bit for bit, and never writes x
        dims = ARCH_PRESETS[preset]
        p = small_params(dims, seed=11)
        x = RngStream(12, 3).generator(0).standard_normal((2500, dims[0]))
        before = x.copy()
        det = forward_deterministic(p, x)
        assert x.tobytes() == before.tobytes()
        noisy = forward_noisy(p, x, zero_draw(p.arch, 2500)).activations[-1]
        assert det.shape == (2500, dims[-1]) and det.tobytes() == noisy.tobytes()

    def test_linear_net_reproduces_vx(self):
        V = np.array([[0.3, -0.2]])
        arch = Architecture((2, 1))
        p = Params(arch, [V.copy()], [np.zeros(1)])
        x = np.array([[1.5, -2.0]])
        assert np.allclose(forward_deterministic(p, x), x @ V.T)

    def test_shape_mismatch(self):
        p = small_params([3, 2])
        with pytest.raises(ValueError):
            forward_deterministic(p, np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_input_must_be_rows(self, shape):
        p = small_params([2, 2])
        with pytest.raises(ValueError, match=r"want \(n, 2\)"):
            forward_noisy(p, np.zeros(shape), zero_draw(p.arch, 1))
        with pytest.raises(ValueError, match=r"want \(n, 2\)"):
            forward_deterministic(p, np.zeros(shape))

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_draw_rows_must_match_input_rows(self, rows):
        # one noise row per input row: neither a 1-row draw (which would broadcast), a 3-row one, nor a draw of
        # (d,) sites (rows None) fits 5 inputs
        p = small_params([4, 3, 2], seed=13)
        draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.2), RngStream(14, 3).generator(0), rows or 1)
        if rows is None:
            draw = NoiseDraw([v[0] for v in draw.act], [v[0] for v in draw.weigh], draw.vector)
        shape = "4," if rows is None else f"{rows}, 4"
        with pytest.raises(ValueError, match=rf"activation noise 0: shape \({shape}\), want \(5, 4\)"):
            forward_noisy(p, np.zeros((5, 4)), draw)

    @pytest.mark.parametrize("family", ["gaussian_additive", "gaussian_multiplicative"])
    def test_repeated_inputs_match_repeated_rows(self, family):
        # each point broadcast over its repeat rows gives the pass over np.repeat-ed rows, bit for bit
        p = small_params([3, 4, 2], seed=16)
        draw = sample_noise_batch(p.arch, NoiseModel(family, 0.3), RngStream(17, 3).generator(0), 5 * 4)
        x = RngStream(18, 3).generator(0).standard_normal((5, 3))
        broadcast = forward_noisy(p, x, draw, repeat=4)
        rows = forward_noisy(p, np.repeat(x, 4, axis=0), draw)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(broadcast.activations, rows.activations, strict=True))
        with pytest.raises(ValueError, match=r"want \(15, 3\)"):
            forward_noisy(p, x, draw, repeat=3)

    def test_l1_output_variance_closed_form(self):
        # out = W(x + Na0) + b + Nw: var per component = s^2 (1 + ||W row||^2)
        arch = Architecture((3, 2))
        W = np.array([[0.5, -1.0, 0.25], [2.0, 0.0, -0.5]])
        p = Params(arch, [W], [np.zeros(2)])
        s = 0.3
        model = NoiseModel("gaussian_additive", s)
        x = np.array([0.1, 0.2, -0.3])
        n = 10**5
        draws = sample_noise_batch(arch, model, RngStream(21, 3).generator(0), n)
        outs = (x + draws.act[0]) @ W.T + draws.weigh[0]
        expected = s**2 * (1.0 + (W**2).sum(axis=1))
        assert np.all(np.abs(outs.var(axis=0) / expected - 1.0) < 0.05)


def out_of_place_forward(params, x, noise):
    """The noisy recursion written with a new array for every operation."""
    perturb = (lambda v, n: v * n) if noise.multiplicative else (lambda v, n: v + n)
    a = perturb(x, noise.act[0])
    acts, tanhs = [a], []
    for l in range(params.arch.n_layers):
        z = perturb(acts[-1] @ params.weights[l].T + params.biases[l], noise.weigh[l])
        if l + 1 < params.arch.n_layers:
            tanhs.append(np.tanh(z))
            acts.append(perturb(tanhs[-1], noise.act[l + 1]))
        else:
            acts.append(z)
    return acts, tanhs


def version_6_blocks(n_points, k2):
    """The block plan of stream versions 4-6: whole points in at most CHUNK_ROWS rows, whatever the dims."""
    per_block = max(1, CHUNK_ROWS // k2)
    return [(start, min(start + per_block, n_points)) for start in range(0, n_points, per_block)]


class TestPointBlocks:
    DESK_SMALL = Architecture(ARCH_PRESETS["desk_small"])

    @pytest.mark.parametrize("n_points, k2, want", [
        (10, 100, [(0, 10)]),
        (25, 100, [(0, 10), (10, 20), (20, 25)]),
        (3, CHUNK_ROWS + 1, [(0, 1), (1, 2), (2, 3)]),
        (CHUNK_ROWS + 1, 1, [(0, CHUNK_ROWS), (CHUNK_ROWS, CHUNK_ROWS + 1)]),
    ])
    def test_blocks_hold_whole_points(self, n_points, k2, want):
        assert point_blocks(self.DESK_SMALL, n_points, k2) == want

    @pytest.mark.parametrize("k2", [1, 8, 100, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("n_points", [1, 300, 2500])
    def test_desk_small_keeps_the_version_6_plan(self, n_points, k2):
        # 116 noise values per row: a full 1,024-row block draws 950,272 B, under BLOCK_BYTES
        assert self.DESK_SMALL.noise_values_per_row == 116
        assert 8 * CHUNK_ROWS * 116 == 950_272 < BLOCK_BYTES
        assert point_blocks(self.DESK_SMALL, n_points, k2) == version_6_blocks(n_points, k2)

    @pytest.mark.parametrize("preset", ["shallow_mnist", "deep_mnist"])
    @pytest.mark.parametrize("k2", [1, 8, 100, CHUNK_ROWS + 1])
    def test_wide_blocks_draw_at_most_block_bytes(self, preset, k2):
        # a block takes as many whole points as fit in BLOCK_BYTES of draw, or one point when its k2 rows
        # alone exceed it (deep_mnist at k2 = 100: 100 rows of 3,094 values, 2.5 MB)
        arch = Architecture(ARCH_PRESETS[preset])
        n_points = 500
        blocks = point_blocks(arch, n_points, k2)
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == n_points
        point_bytes = 8 * k2 * arch.noise_values_per_row
        draws = [(stop - start) * point_bytes for start, stop in blocks]
        if point_bytes > BLOCK_BYTES:
            assert all(stop - start == 1 for start, stop in blocks)
        else:
            assert max(draws) <= BLOCK_BYTES
            assert all(d + point_bytes > BLOCK_BYTES for d in draws[:-1])  # no full block has room for another point

    @pytest.mark.parametrize("preset", sorted(ARCH_PRESETS))
    @pytest.mark.parametrize("n_points, k2", [(1, 1), (5, 8), (300, 8), (25, 100), (3000, 1), (3, CHUNK_ROWS + 1)])
    def test_block_rows_are_the_largest_blocks_rows(self, preset, n_points, k2):
        arch = Architecture(ARCH_PRESETS[preset])
        want = max((stop - start) * k2 for start, stop in point_blocks(arch, n_points, k2))
        assert block_rows(arch, n_points, k2) == want


class TestInPlaceForward:
    @pytest.mark.parametrize("family", ["gaussian_additive", "gaussian_multiplicative", "laplace"])
    @pytest.mark.parametrize("n, repeat", [(1, 1), (5, 1), (5, 3)], ids=["1", "5", "5x3"])
    def test_matches_out_of_place_reference_and_leaves_draw_intact(self, family, n, repeat):
        # the reference runs np.repeat-ed input rows, so every repeat count meets a pass built of new arrays
        p = small_params([3, 4, 4, 2], seed=13)
        model = NoiseModel(family, 0.3)
        rng = RngStream(14, 3)
        draw = sample_noise_batch(p.arch, model, rng.generator(0), n * repeat)
        x = RngStream(15, 3).generator(0).standard_normal((n, 3))
        before = [v.copy() for v in draw.act + draw.weigh]
        x_before = x.copy()
        trace = forward_noisy(p, x, draw, repeat)
        acts, tanhs = out_of_place_forward(p, np.repeat(x, repeat, axis=0), draw)
        assert all(np.array_equal(u, v) for u, v in zip(trace.activations, acts, strict=True))
        assert all(np.array_equal(u, v) for u, v in zip(trace.hidden_tanh, tanhs, strict=True))
        assert all(np.array_equal(u, v) for u, v in zip(draw.act + draw.weigh, before))
        assert np.array_equal(x, x_before)

    def test_untraced_arrays_hold_the_output_and_no_trace(self):
        # keep=False holds activations alone: no t(l), no residuals, no scratch, and the same output bits
        p = small_params([3, 4, 4, 2], seed=13)
        draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.3), RngStream(14, 3).generator(0), 5)
        x = RngStream(15, 3).generator(0).standard_normal((5, 3))
        kept = forward_noisy(p, x, draw)
        assert [r.shape for r in kept.residuals] == [(5, 4), (5, 4), (5, 2)] and kept.scratch.size == 5 * 4
        out = ForwardTrace.empty(p.arch, 8, keep=False)
        untraced = forward_noisy(p, x, draw, out=out)
        assert untraced.activations[-1].tobytes() == kept.activations[-1].tobytes()
        for trace in (out, untraced, forward_noisy(p, x)):
            assert trace.hidden_tanh is trace.residuals is trace.scratch is None


class TestProject:
    def test_fixed_point_inside(self):
        p = small_params([2, 2], scale=0.4)
        h = Hyperrectangle(-1.0, 1.0, -1.0, 1.0)
        q = project(p, h)
        for a, b in zip(p.weights, q.weights):
            assert np.array_equal(a, b)

    def test_clamps_weight(self):
        arch = Architecture((1, 1))
        p = Params(arch, [np.array([[5.0]])], [np.array([0.0])])
        q = project(p, Hyperrectangle(-1.0, 1.0, -1.0, 1.0))
        assert q.weights[0][0, 0] == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Hyperrectangle(1.0, -1.0, 0.0, 1.0)

    def test_in_place_equals_a_new_params(self):
        p = small_params([3, 4, 2], seed=9)
        box = Hyperrectangle(-0.2, 0.2, -0.1, 0.1)
        want = project(p, box).vector.tobytes()
        assert project(p, box, out=p) is p
        assert p.vector.tobytes() == want


class TestApplyStep:
    def test_linear_combination(self):
        p = small_params([2, 2])
        d = Params(p.arch, [np.ones_like(w) for w in p.weights], [np.ones_like(b) for b in p.biases])
        q = apply_step(p, -0.5, d)
        assert np.allclose(q.weights[0], p.weights[0] - 0.5)
        assert np.allclose(q.biases[0], p.biases[0] - 0.5)

    def test_into_a_third_params(self):
        p, d = small_params([3, 4, 2], seed=7), small_params([3, 4, 2], seed=8)
        out = Params.empty(p.arch)
        assert apply_step(p, -0.3, d, out=out) is out
        assert out.vector.tobytes() == apply_step(p, -0.3, d).vector.tobytes()
        for alias in (p, d):
            with pytest.raises(ValueError, match="third Params"):
                apply_step(p, -0.3, d, out=alias)
        with pytest.raises(ValueError, match="non-finite"):
            apply_step(p, np.inf, d, out=out)

    def test_results_never_alias_the_start(self):
        # the line search builds every candidate from the same w0
        p = small_params([3, 4, 2], seed=5)
        d = small_params([3, 4, 2], seed=6)
        p_before, d_before = p.to_vector(), d.to_vector()
        box = Hyperrectangle(-0.1, 0.1, -0.1, 0.1)
        for q in (apply_step(p, 0.0, d), apply_step(p, 0.3, d), project(p, box), p.copy()):
            assert not np.shares_memory(q.vector, p.vector)
            assert not np.shares_memory(q.vector, d.vector)
            q.weights[0][...] = 9.0
            q.biases[-1][...] = 9.0
        assert np.array_equal(p.vector, p_before)
        assert np.array_equal(d.vector, d_before)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = small_params([3, 5, 2], seed=3)
        path = tmp_path / "params.npz"
        save_params(p, path)
        q = load_params(path)
        assert q.arch.layer_dims == p.arch.layer_dims
        for a, b in zip(p.weights, q.weights):
            assert np.array_equal(a, b)
        for a, b in zip(p.biases, q.biases):
            assert np.array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        p = small_params([2, 2])
        save_params(p, tmp_path / "a.npz")
        save_params(p, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_save_creates_the_directory(self, tmp_path):
        # every artifact is written through open_atomic, which makes the target's directory
        p = small_params([2, 2])
        path = tmp_path / "new" / "seed_0" / "params.npz"
        save_params(p, path)
        assert np.array_equal(load_params(path).vector, p.vector)


class TestRngStream:
    def test_distinct_streams_differ(self):
        a = RngStream(0, 1).generator(0).standard_normal(8)
        b = RngStream(0, 2).generator(0).standard_normal(8)
        assert not np.allclose(a, b)

    def test_index_advances_counter(self):
        a = RngStream(0, 1).generator(0).standard_normal(4)
        b = RngStream(0, 1).generator(1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_child_streams_are_stable(self):
        assert RngStream(3, 1).child(2) == RngStream(3, 1).child(2)
        assert RngStream(3, 1).child(2) != RngStream(3, 1).child(3)

    def test_substream_keys_are_longer(self):
        # substream(j).generator(i) is spawn key (stream, j, i), apart from every index of the parent
        sub = RngStream(3, 7).substream(5)
        seq = np.random.SeedSequence(3, spawn_key=(7, 5, 2))
        assert sub.generator(2).standard_normal(4).tolist() == \
            np.random.Generator(np.random.SFC64(seq)).standard_normal(4).tolist()
        parent = RngStream(3, 7).generator(5).standard_normal(4)
        assert not np.allclose(sub.generator(0).standard_normal(4), parent)
        assert not np.allclose(RngStream(3, 7).substream(6).generator(2).standard_normal(4),
                               sub.generator(2).standard_normal(4))

    def test_stream_version_fingerprint(self):
        # SFC64 seeded by SeedSequence(seed, spawn_key=(stream, index)) since stream version 2;
        # a change to these values is a new stream version (versions 4 to 7 moved blocks, keys and the training
        # stream's generators, not these)
        assert STREAM_VERSION == 7
        got = RngStream(0, 1).generator(0).standard_normal(4)
        want = [-1.2540797385549642, -0.057374060490056056, 0.1831656089569397, -0.25374987556925]
        assert got.tolist() == want
