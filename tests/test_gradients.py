import numpy as np
import pytest

from giftnn.gradients import GradBuffers, backward, batch_gradient
from giftnn.model import (
    Architecture,
    NoiseModel,
    Params,
    RngStream,
    forward_noisy,
    sample_noise_batch,
)

from test_model import small_params, zero_draw


def test_zero_residual_gives_zero_gradients():
    p = small_params([2, 3, 2], seed=1)
    draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.3), RngStream(2, 3).generator(0), 1)
    trace = forward_noisy(p, np.array([[0.4, -0.1]]), draw)
    g = backward(trace, trace.activations[-1].copy(), p)
    assert np.all(g.vector == 0.0)


def test_l1_linear_hand_expansion():
    # dW = -2 (y - Wx - b) x^T, db = -2 (y - Wx - b) at zero noise
    arch = Architecture((2, 1))
    W = np.array([[0.7, -0.2]])
    b = np.array([0.3])
    p = Params(arch, [W.copy()], [b.copy()])
    x = np.array([[1.5, -0.5]])
    y = np.array([[2.0]])
    trace = forward_noisy(p, x, zero_draw(arch, 1))
    g = backward(trace, y, p)
    r = y[0] - (W @ x[0] + b)
    assert np.allclose(g.weights[0], -2.0 * np.outer(r, x), rtol=1e-12)
    assert np.allclose(g.biases[0], -2.0 * r, rtol=1e-12)


def test_residual_recursion_shapes_and_values():
    p = small_params([3, 4, 2], seed=4)
    draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.2), RngStream(5, 3).generator(0), 1)
    x = np.array([[0.2, -0.6, 1.0]])
    y = np.array([[0.5, -0.5]])
    trace = forward_noisy(p, x, draw)
    g = backward(trace, y, p)
    r2 = y - trace.activations[-1]
    z = trace.activations[0] @ p.weights[0].T + p.biases[0] + draw.weigh[0]
    assert np.array_equal(trace.hidden_tanh[0], np.tanh(z))  # the kept t(1), bit for bit
    sig = 1.0 - np.tanh(z) ** 2
    r1 = (r2 @ p.weights[1]) * sig
    assert np.allclose(trace.residuals[1], r2, rtol=1e-12)
    assert np.allclose(trace.residuals[0], r1, rtol=1e-12)
    assert np.allclose(g.weights[0], -2.0 * np.outer(r1, trace.activations[0]), rtol=1e-12)


def test_fd_agreement_fixed_noise():
    # every component of a [3,4,2] tanh net matches central differences < 1e-5 rel
    p = small_params([3, 4, 2], seed=6)
    arch = p.arch
    draw = sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.3), RngStream(7, 3).generator(0), 1)
    x = RngStream(8, 3).generator(0).standard_normal((1, 3)) * 0.8
    y = np.array([[0.3, -0.7]])
    trace = forward_noisy(p, x, draw)
    g = backward(trace, y, p)

    def loss_at(vec):
        q = Params.from_vector(arch, vec)
        t = forward_noisy(q, x, draw)
        return float(((y - t.activations[-1]) ** 2).sum())

    v0 = p.to_vector()
    analytic = g.to_vector()
    h = 1e-6
    for i in range(v0.size):
        e = np.zeros_like(v0)
        e[i] = h
        fd = (loss_at(v0 + e) - loss_at(v0 - e)) / (2 * h)
        denom = max(abs(analytic[i]), abs(fd), 1e-8)
        assert abs(fd - analytic[i]) / denom < 1e-5


def test_ones_activation_ties_dw_rows_to_db():
    # when A^(l-1) is all ones, each dW row is constant and equals the db entry
    arch = Architecture((3, 2))
    p = Params(arch, [np.zeros((2, 3))], [np.zeros(2)])
    x = np.ones((1, 3))
    y = np.array([[1.0, -2.0]])
    trace = forward_noisy(p, x, zero_draw(arch, 1))
    g = backward(trace, y, p)
    for j in range(2):
        assert np.allclose(g.weights[0][j], g.biases[0][j])


def test_target_shape_mismatch():
    p = small_params([2, 2])
    trace = forward_noisy(p, np.zeros((1, 2)), zero_draw(p.arch, 1))
    with pytest.raises(ValueError):
        backward(trace, np.zeros((1, 3)), p)


def test_unbatched_trace_rejected():
    # a 1-D input builds no trace, so backward only ever sees (n, d) rows
    p = small_params([2, 2])
    with pytest.raises(ValueError, match=r"want \(n, 2\)"):
        forward_noisy(p, np.zeros(2), zero_draw(p.arch, 1))


def test_batch_mean_is_average_of_members():
    p = small_params([2, 2], seed=12)
    gen = RngStream(13, 3).generator(0)
    X = gen.standard_normal((6, 2))
    Y = gen.standard_normal((6, 2))
    g, _ = batch_gradient(p, X, Y, 0.2, RngStream(14, 3).generator(0))

    draws = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.2), RngStream(14, 3).generator(0), 6)
    acc_w = np.zeros_like(p.weights[0])
    for i in range(6):
        d = zero_draw(p.arch, 1)
        for site, drawn in zip(d.act + d.weigh, draws.act + draws.weigh):
            site[...] = drawn[i:i + 1]
        trace = forward_noisy(p, X[i:i + 1], d)
        acc_w += backward(trace, Y[i:i + 1], p).weights[0]
    assert np.allclose(g.weights[0], acc_w / 6, rtol=1e-10)


def test_generator_steps_draw_its_next_rows():
    # each call draws the generator's next values: two 3-row steps from one generator take
    # the rows a fresh generator gives two 3-row draws in turn, and the workspace gives the fresh arrays' values
    p = small_params([2, 3, 2], seed=12)
    gen = RngStream(13, 3).generator(0)
    X = gen.standard_normal((6, 2))
    Y = gen.standard_normal((6, 2))
    model = NoiseModel("gaussian_additive", 0.2)
    steps, ref = RngStream(14, 3).generator(0), RngStream(14, 3).generator(0)
    buffers = GradBuffers.empty(p.arch, 4)
    for rows in (slice(0, 3), slice(3, 6)):
        g, loss = batch_gradient(p, X[rows], Y[rows], 0.2, steps, out=buffers)
        draw = sample_noise_batch(p.arch, model, ref, 3)
        trace = forward_noisy(p, X[rows], draw)
        want = backward(trace, Y[rows], p)
        assert g.vector.tobytes() == want.vector.tobytes()
        assert loss == float(np.mean(np.sum(trace.residuals[-1] ** 2, axis=1)))


def test_short_batches_write_into_the_workspace_leading_rows():
    # a 5-row batch in an 8-row workspace gives the fresh arrays' values, its residuals in the workspace's rows
    p = small_params([2, 3, 2], seed=15)
    gen = RngStream(16, 3).generator(0)
    X, Y = gen.standard_normal((9, 2)), gen.standard_normal((9, 2))
    buffers = GradBuffers.empty(p.arch, 8)
    g, loss = batch_gradient(p, X[:5], Y[:5], 0.2, RngStream(17, 3).generator(0), out=buffers)
    want, want_loss = batch_gradient(p, X[:5], Y[:5], 0.2, RngStream(17, 3).generator(0))
    assert g is buffers.grad and g.vector.tobytes() == want.vector.tobytes()
    assert loss == want_loss
    draw = sample_noise_batch(p.arch, NoiseModel("gaussian_additive", 0.2), RngStream(17, 3).generator(0), 5)
    trace = forward_noisy(p, X[:5], draw)
    backward(trace, Y[:5], p)
    for r_want, room in zip(trace.residuals, buffers.trace.residuals, strict=True):
        assert room[:5].tobytes() == r_want.tobytes()
    with pytest.raises(ValueError, match="hold 8 rows, need 9"):
        batch_gradient(p, X, Y, 0.2, RngStream(17, 3).generator(0), out=buffers)


def test_empty_batch_rejected():
    p = small_params([2, 2])
    with pytest.raises(ValueError):
        batch_gradient(p, np.zeros((0, 2)), np.zeros((0, 2)), 0.1, RngStream(0, 3).generator(0))


def test_mean_gradient_matches_fd_of_mc_objective():
    # E[batch_gradient] ~ grad of J_s0 on a 3-parameter net, within 3 SE
    arch = Architecture((2, 1))
    V = np.array([[0.3, -0.2]])
    p = Params(arch, [np.array([[0.2, -0.1]])], [np.array([0.05])])
    s0 = 0.4
    gen = RngStream(20, 3).generator(0)
    X = gen.standard_normal((512, 2))
    Y = X @ V.T

    n_reps = 400
    samples = np.empty((n_reps, 3))
    for r in range(n_reps):
        g, _ = batch_gradient(p, X, Y, s0, RngStream(21, 3).generator(r))
        samples[r] = g.vector
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_reps)

    # closed form for the empirical distribution: J = mean((Vx-Wx-b)^2) + s^2(||W||^2+1)
    W, b = p.weights[0], p.biases[0]
    resid = Y[:, 0] - X @ W[0] - b[0]
    gw = -2.0 * (resid[:, None] * X).mean(axis=0) + 2.0 * s0**2 * W[0]
    gb = np.array([-2.0 * resid.mean() + 0.0])
    target = np.concatenate([gw, gb])
    assert np.all(np.abs(mean - target) < 3.0 * se + 1e-9)


def test_batch_loss_matches_residuals():
    p = small_params([2, 2], seed=30)
    gen = RngStream(31, 3).generator(0)
    X = gen.standard_normal((5, 2))
    Y = gen.standard_normal((5, 2))
    buffers = GradBuffers.empty(p.arch, 5)
    _, loss = batch_gradient(p, X, Y, 0.3, RngStream(32, 3).generator(1), out=buffers)
    assert np.isfinite(loss) and loss > 0
    assert np.isclose(loss, np.mean(np.sum(buffers.trace.residuals[-1] ** 2, axis=1)))
