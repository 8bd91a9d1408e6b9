from dataclasses import MISSING, fields

import numpy as np
import pytest

from giftnn.cli import DEFAULT_CONFIG
from giftnn.data import Dataset, epoch_batches, synthetic_linear
from giftnn.gradients import batch_gradient
from giftnn.model import (
    Architecture,
    Hyperrectangle,
    RngStream,
    STREAM_DATA,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_TRAIN_NOISE,
    apply_step,
    init_uniform,
    project,
)
from giftnn.trainer import (
    LOSS_GUARD,
    LossHistory,
    TrainConfig,
    TrainingDiverged,
    step_size,
    train,
)

V = np.array([[0.3, -0.2]])
ARCH = Architecture((2, 1))


def linear_data(n=4096, seed=1):
    return synthetic_linear(V, 1.0, n, RngStream(seed, STREAM_DATA))


class TestConfig:
    def test_decay_exponent_range(self):
        with pytest.raises(ValueError):
            TrainConfig(s0=0.1, decay_p=0.5)
        with pytest.raises(ValueError):
            TrainConfig(s0=0.1, decay_p=1.2)
        TrainConfig(s0=0.1, decay_p=1.0)

    def test_defaults_match_the_config_schema(self):
        # a library caller trains as the CLI does; seed is set per run, not in the config's train section
        train = DEFAULT_CONFIG["train"]
        assert sorted(f.name for f in fields(TrainConfig) if f.name != "seed") == sorted(train)
        for f in fields(TrainConfig):
            if f.name != "seed":
                assert f.default is MISSING or f.default == train[f.name], f.name

    def test_positive_s0(self):
        with pytest.raises(ValueError):
            TrainConfig(s0=0.0)

    def test_schedule_partial_sums(self):
        # sum eps diverges (grows with the integral), sum eps^2 converges
        cfg = TrainConfig(s0=0.1, eps0=1.0, decay_p=0.75, tau=100.0)
        k = np.arange(10**6, dtype=float)
        eps = cfg.eps0 / (1.0 + k / cfg.tau) ** cfg.decay_p
        assert np.allclose(eps[:5], [step_size(cfg, i) for i in range(5)])
        # integral bounds: sum_{0}^{N-1} eps_k >= int_0^N eps dx - eps_0
        integral = cfg.eps0 * cfg.tau / 0.25 * ((1 + 10**6 / cfg.tau) ** 0.25 - 1)
        assert eps.sum() > 0.9 * integral
        # p=0.75 -> sum eps^2 ~ zeta-like tail, bounded by integral + first term
        sq_integral = cfg.eps0**2 * cfg.tau / 0.5
        assert (eps**2).sum() < cfg.eps0**2 + sq_integral


class TestInit:
    def test_reproducible(self):
        a = init_uniform(ARCH, RngStream(3, 1).generator(0))
        b = init_uniform(ARCH, RngStream(3, 1).generator(0))
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_zero_biases_and_uniform_range(self):
        arch = Architecture((100, 50))
        p = init_uniform(arch, RngStream(4, 1).generator(0))
        assert np.all(p.biases[0] == 0.0)
        a = 1.0 / np.sqrt(100)
        w = p.weights[0]
        assert np.all(np.abs(w) <= a)
        assert abs(w.var() - a**2 / 3) / (a**2 / 3) < 0.1


class TestTrain:
    def test_linear_converges_to_ridge_minimizer(self):
        # s0=1 shrinks W* to V/2
        cfg = TrainConfig(s0=1.0, epochs=120, batch_size=256, eps0=0.1,
                          decay_p=1.0, tau=150.0)
        params, _ = train(ARCH, cfg, linear_data(8192), 0)
        target = V / 2.0
        assert np.linalg.norm(params.weights[0] - target) < 1e-2

    def test_tiny_s0_recovers_v(self):
        cfg = TrainConfig(s0=1e-6, epochs=60, batch_size=256, eps0=0.1,
                          decay_p=1.0, tau=150.0)
        params, _ = train(ARCH, cfg, linear_data(4096), 0)
        assert np.linalg.norm(params.weights[0] - V) < 1e-2

    def test_projection_binds_on_boundary(self):
        h = Hyperrectangle(-0.05, 0.05, -0.05, 0.05)
        cfg = TrainConfig(s0=0.1, epochs=40, batch_size=128, eps0=0.1,
                          decay_p=1.0, tau=100.0, projection=h)
        params, _ = train(ARCH, cfg, linear_data(2048), 0)
        W = params.weights[0]
        assert np.all(W <= 0.05 + 1e-15) and np.all(W >= -0.05 - 1e-15)
        # unconstrained optimum ~ [0.297, -0.198]: both coordinates clamp
        assert np.isclose(abs(W[0, 0]), 0.05)
        assert np.isclose(abs(W[0, 1]), 0.05)

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(s0=0.3, epochs=3, batch_size=64, eps0=0.05, tau=1000.0)
        data = linear_data(512)
        a, ha = train(ARCH, cfg, data, 7)
        b, hb = train(ARCH, cfg, data, 7)
        assert np.array_equal(a.weights[0], b.weights[0])
        assert ha.losses == hb.losses

    def test_smoothed_loss_decreases_on_linear_task(self):
        for seed in range(3):
            cfg = TrainConfig(s0=0.2, epochs=15, batch_size=64, eps0=0.1,
                              decay_p=0.75, tau=300.0)
            _, hist = train(ARCH, cfg, linear_data(2048, seed=seed + 10), seed)
            sm = hist.smoothed()
            assert sm[-1] < sm[0]

    def test_divergence_guard(self):
        cfg = TrainConfig(s0=0.2, epochs=50, batch_size=8, eps0=1e4,
                          decay_p=0.75, tau=1e6)
        with pytest.raises(TrainingDiverged):
            train(ARCH, cfg, linear_data(256), 0)

    def test_history_records_schedule(self):
        cfg = TrainConfig(s0=0.2, epochs=2, batch_size=128, eps0=0.05,
                          decay_p=0.75, tau=1000.0)
        _, hist = train(ARCH, cfg, linear_data(512), 1)
        assert hist.eps[0] == 0.05
        assert hist.eps == sorted(hist.eps, reverse=True)
        assert hist.steps == list(range(len(hist.steps)))


DESK_SMALL = Architecture((16, 32, 16, 4))


def desk_data(n, seed=2):
    gen = RngStream(seed, STREAM_DATA).generator(0)
    return Dataset(gen.standard_normal((n, 16)), 0.5 * gen.standard_normal((n, 4)))


def fresh_arrays_train(arch, config, data, seed):
    """The training loop with a fresh gradient, step and projection per step: the reference for train().

    Each epoch's steps draw their noise rows in turn from the epoch's generator, (STREAM_TRAIN_NOISE, epoch).
    """
    params = init_uniform(arch, RngStream(seed, STREAM_INIT).generator(0))
    shuffle_rng = RngStream(seed, STREAM_SHUFFLE)
    noise_rng = RngStream(seed, STREAM_TRAIN_NOISE)
    losses, k = [], 0
    for epoch in range(config.epochs):
        noise_gen = noise_rng.generator(epoch)
        for idx in epoch_batches(len(data), config.batch_size, shuffle_rng, epoch):
            grad, loss = batch_gradient(params, data.inputs[idx], data.targets[idx], config.s0, noise_gen)
            if not np.isfinite(loss) or loss > LOSS_GUARD:
                raise TrainingDiverged(f"loss {loss:.6g} at step {k} (epoch {epoch}); guard {LOSS_GUARD:g}")
            params = apply_step(params, -step_size(config, k), grad)
            if config.projection is not None:
                params = project(params, config.projection)
            losses.append(loss)
            k += 1
    return params, losses


class TestWorkspace:
    """train() steps on one set of arrays; its results equal fresh arrays per step, bit for bit."""

    @pytest.mark.parametrize("config, n", [  # config is a (TrainConfig, seed) pair
        ((TrainConfig(s0=0.1), 3), 2000),  # the default schedule: 2000 = 31 x 64 + 16, a short last batch
        ((TrainConfig(s0=0.2, epochs=5, batch_size=100), 4), 40),  # one batch, smaller than batch_size
        ((TrainConfig(s0=0.1, epochs=3, eps0=0.5, projection=Hyperrectangle(-0.05, 0.05, -0.02, 0.02)), 5), 500),
    ])
    def test_matches_fresh_arrays_per_step(self, config, n):
        config, seed = config
        data = desk_data(n)
        params, history = train(DESK_SMALL, config, data, seed)
        ref, ref_losses = fresh_arrays_train(DESK_SMALL, config, data, seed)
        assert params.vector.tobytes() == ref.vector.tobytes()
        assert history.losses == ref_losses
        if config.projection is not None:
            box = config.projection
            nw = DESK_SMALL.n_weights
            assert np.abs(params.vector[:nw]).max() == box.w_max  # the box binds
            assert np.abs(params.vector[nw:]).max() == box.b_max

    def test_divergence_fires_at_the_same_step(self):
        config = TrainConfig(s0=0.2, epochs=50, batch_size=8, eps0=1e4, decay_p=0.75, tau=1e6)
        data = linear_data(256)
        with pytest.raises(TrainingDiverged) as ref:
            fresh_arrays_train(ARCH, config, data, 0)
        with pytest.raises(TrainingDiverged) as got:
            train(ARCH, config, data, 0)
        assert str(got.value) == str(ref.value)

    def test_non_finite_parameters_raise(self):
        # a loss under the guard and a step that overflows: the parameters leave the reals at step 0
        data = desk_data(200)
        data = Dataset(data.inputs, 100 * data.targets)
        config = TrainConfig(s0=0.1, epochs=1, eps0=1e308)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            fresh_arrays_train(DESK_SMALL, config, data, 1)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            train(DESK_SMALL, config, data, 1)


def test_loss_history_smoothing_constant_series():
    h = LossHistory(steps=[0, 1, 2], epochs=[0, 0, 0], eps=[0.1] * 3, losses=[2.0, 2.0, 2.0])
    assert np.allclose(h.smoothed(), 2.0)
