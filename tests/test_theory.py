from dataclasses import replace

import numpy as np
import pytest

from giftnn import gift as gift_module
from giftnn import theory as theory_module
from giftnn.data import Dataset, synthetic_linear
from giftnn.gift import DirEstimate, GiftConfig, estimate_direction, mean_se
from giftnn.gradients import residual_stack
from giftnn.model import (
    CHUNK_ROWS,
    Architecture,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    STREAM_DATA,
    STREAM_ESTIMATE,
    STREAM_THEORY,
    forward_noisy,
    mix64,
    sample_noise_batch,
)
from giftnn.theory import (
    check_gaussian_product_cases,
    check_gaussian_product_derivative,
    check_hierarchical_sampler,
    check_theorem1_empirically,
    condition_report,
    d2_ds2_grad_fd_report,
    d_ds_grad_fd_report,
    gradient_fd_check,
    linear_condition_bound,
    mc_objective_pair,
)
from giftnn.trainer import TrainConfig, train

from test_device import wide_params
from test_model import small_params, zero_draw

V = np.array([[0.3, -0.4]])
LINEAR_ARCH = Architecture((2, 1))


def linear_params(W=None, b=0.0):
    W = V.copy() if W is None else np.asarray(W, dtype=float)
    return Params(LINEAR_ARCH, [W], [np.array([b])])


def linear_data(n=4096, seed=3):
    return synthetic_linear(V, 1.0, n, RngStream(seed, STREAM_DATA))


class TestGaussianProductDerivative:
    def test_single_zero_point(self):
        # the estimator's factor at a zero draw is -D, so d/ds log density is -D/s; the finite difference agrees
        assert check_gaussian_product_derivative(zero_draw(Architecture((1, 1)), 1), 0.7) < 1e-6

    def test_random_blocks(self):
        s = 0.7
        draw = sample_noise_batch(Architecture((2, 3)), NoiseModel("gaussian_additive", s),
                                  RngStream(1, STREAM_THEORY).generator(0), 1)
        assert check_gaussian_product_derivative(draw, s) < 1e-6

    def test_many_random_cases(self):
        worst = check_gaussian_product_cases(50, RngStream(2, STREAM_THEORY))
        assert worst < 1e-6

    def test_checks_the_estimators_factor(self, monkeypatch):
        # the factor with its squares over s0 instead of s0^2, sum(||N||^2/s0 - d), fails the check
        real = theory_module.noise_weight_factor
        monkeypatch.setattr(theory_module, "noise_weight_factor",
                            lambda draw, s0: (real(draw, s0) + draw.vector.size) * s0 - draw.vector.size)
        assert check_gaussian_product_cases(50, RngStream(2, STREAM_THEORY)) > 1e-6


class TestDsGradFd:
    def test_linear_net_matches_4sw(self):
        p = linear_params(W=[[0.25, -0.35]], b=0.0)
        s = 0.4
        rep = d_ds_grad_fd_report(p, s, linear_data(), h=0.05, mc_samples=200_000, seed=0)
        vec, se = rep.to_vectors()
        target = np.concatenate([4 * s * p.weights[0].ravel(), [0.0]])
        assert np.all(np.abs(vec - target) < 3 * se + 1e-9)

    def test_richardson_h_halving_is_noise_free_on_quadratic(self):
        # common draws make the MC gradient exactly quadratic in s, so the
        # central difference is h-independent up to float rounding
        p = linear_params()
        a = d_ds_grad_fd_report(p, 0.4, linear_data(), h=0.05, mc_samples=50_000, seed=1).value
        b = d_ds_grad_fd_report(p, 0.4, linear_data(), h=0.025, mc_samples=50_000, seed=1).value
        assert np.allclose(a.weights[0], b.weights[0], rtol=1e-8, atol=1e-10)

    def test_second_derivative_matches_4w(self):
        # d2/ds2 of the loss gradient is 4W for the one-layer linear net,
        # independent of s and of the data
        p = linear_params(W=[[0.25, -0.35]])
        rep = d2_ds2_grad_fd_report(p, 0.4, linear_data(), h=0.1, mc_samples=200_000, seed=2)
        vec, se = rep.to_vectors()
        target = np.concatenate([4 * p.weights[0].ravel(), [0.0]])
        assert np.all(np.abs(vec - target) < 3 * se + 1e-9)

    def test_h_validation(self):
        with pytest.raises(ValueError):
            d_ds_grad_fd_report(linear_params(), 0.1, linear_data(64), h=0.1, mc_samples=100, seed=0)


def reference_fd_report(params, s_values, coeffs, data, mc_samples, seed):
    """The finite-difference oracle written out over CHUNK_ROWS-row blocks, with a fresh s * Z draw,
    trace and residuals per level and block."""
    arch = params.arch
    m = len(s_values)
    rng = RngStream(seed, STREAM_THEORY)
    idx = rng.generator(0).integers(0, len(data), size=mc_samples)
    total, sq = Params.zeros(arch), Params.zeros(arch)
    for c, start in enumerate(range(0, mc_samples, CHUNK_ROWS)):
        rows = idx[start:start + CHUNK_ROWS]
        X, Y = data.inputs[rows], data.targets[rows]
        Z = sample_noise_batch(arch, NoiseModel("gaussian_additive", 1.0), rng.generator(1 + c), rows.size)
        Rs, As = [], []
        for sv in s_values:
            fresh = NoiseDraw.over(arch, sv * Z.vector)
            trace = forward_noisy(params, X, fresh)
            Rs.append(residual_stack(trace, Y, params))
            As.append(trace.activations)
        for l in range(arch.n_layers):
            for j in range(m):
                total.weights[l] += (-2.0 * coeffs[j]) * (Rs[j][l].T @ As[j][l])
                total.biases[l] += (-2.0 * coeffs[j]) * Rs[j][l].sum(axis=0)
                for j2 in range(j, m):
                    w = 4.0 * coeffs[j] * coeffs[j2] * (1.0 if j2 == j else 2.0)
                    RR = Rs[j][l] * Rs[j2][l]
                    sq.weights[l] += w * (RR.T @ (As[j][l] * As[j2][l]))
                    sq.biases[l] += w * RR.sum(axis=0)
    mean = total.vector / mc_samples
    return mean, np.sqrt(np.maximum(sq.vector / mc_samples - mean**2, 0.0) / mc_samples)


class TestMonteCarloBlocks:
    """The block plan since stream version 4 (model.point_blocks): at most CHUNK_ROWS = 1,024 rows,
    block c drawing at index 1 + c; since version 7 also at most BLOCK_BYTES of draw, which binds
    above 256 noise values per row.

    The oracles (k2 = 1) fill whole blocks; the estimator keeps each data point's
    k2 rows in one block, so k2 = 100 gives 1,000-row blocks on these small nets.
    """

    @pytest.fixture
    def draw_calls(self, monkeypatch):
        calls = []
        real = gift_module.sample_noise_batch

        def recording(arch, model, gen, n, out=None):
            calls.append((gen.bit_generator.seed_seq.spawn_key[-1], n))  # the block's stream index
            return real(arch, model, gen, n, out=out)

        monkeypatch.setattr(gift_module, "sample_noise_batch", recording)
        return calls

    def test_oracles_draw_one_block_per_chunk_rows(self, draw_calls):
        p, data, n = linear_params(), linear_data(256), 2 * CHUNK_ROWS + 5
        mc_objective_pair(p, p, 0.3, data, mc_samples=n, seed=1)
        assert draw_calls == [(1, CHUNK_ROWS), (2, CHUNK_ROWS), (3, 5)]
        draw_calls.clear()
        d_ds_grad_fd_report(p, 0.3, data, h=0.05, mc_samples=n, seed=1)
        assert draw_calls == [(1, CHUNK_ROWS), (2, CHUNK_ROWS), (3, 5)]

    def test_wide_oracles_draw_blocks_of_block_bytes(self, draw_calls):
        # shallow_mnist rows hold 2,194 noise values, so a 2 MiB block is 119 rows
        p = wide_params(seed=42)
        X = RngStream(43, STREAM_DATA).generator(0).standard_normal((64, p.arch.layer_dims[0]))
        data = Dataset(X, np.tanh(X[:, :p.arch.layer_dims[-1]]))
        mc_objective_pair(p, p, 0.3, data, mc_samples=250, seed=1)
        assert draw_calls == [(1, 119), (2, 119), (3, 12)]
        draw_calls.clear()
        d_ds_grad_fd_report(p, 0.3, data, h=0.05, mc_samples=250, seed=1)
        assert draw_calls == [(1, 119), (2, 119), (3, 12)]

    def test_estimator_blocks_hold_whole_points(self, draw_calls):
        estimate_direction(linear_params(), linear_data(256), 0.2, 25, 100, RngStream(0, STREAM_ESTIMATE))
        assert CHUNK_ROWS == 1024
        assert draw_calls == [(1, 1000), (2, 1000), (3, 500)]

    def test_estimator_with_k2_above_chunk_rows_draws_one_block_per_point(self, draw_calls):
        k2 = CHUNK_ROWS + 3
        estimate_direction(linear_params(), linear_data(256), 0.2, 3, k2, RngStream(0, STREAM_ESTIMATE))
        assert draw_calls == [(1, k2), (2, k2), (3, k2)]

    def test_reused_scale_buffer_equals_fresh_scaled_draws(self):
        p = small_params([2, 3, 1], seed=40)
        data = linear_data(512)
        rep = d_ds_grad_fd_report(p, 0.3, data, h=0.05, mc_samples=2 * CHUNK_ROWS + 5, seed=2)
        h = 0.05
        mean, se = reference_fd_report(p, [0.3 - h, 0.3 + h], [-0.5 / h, 0.5 / h], data, 2 * CHUNK_ROWS + 5, seed=2)
        assert np.array_equal(rep.value.vector, mean)
        assert np.array_equal(rep.se.vector, se)

    def test_three_levels_keep_their_own_traces(self):
        # the three-point stencil holds three levels' traces and residuals at once, each in its own arrays
        p = small_params([2, 5, 3, 1], seed=41)
        data = linear_data(512)
        n, h = 2 * CHUNK_ROWS + 5, 0.05
        rep = d2_ds2_grad_fd_report(p, 0.3, data, h=h, mc_samples=n, seed=3)
        hh = h * h
        mean, se = reference_fd_report(p, [0.3 - h, 0.3, 0.3 + h], [1.0 / hh, -2.0 / hh, 1.0 / hh], data, n, seed=3)
        assert rep.value.vector.tobytes() == mean.tobytes()
        assert rep.se.vector.tobytes() == se.tobytes()


MC_ENTRY_POINTS = {
    "estimate_direction_k1": lambda p, data, n: estimate_direction(p, data, 0.2, n, 1, RngStream(0, STREAM_ESTIMATE)),
    "estimate_direction_k2": lambda p, data, n: estimate_direction(p, data, 0.2, 1, n, RngStream(0, STREAM_ESTIMATE)),
    "d_ds_grad_fd_report": lambda p, data, n: d_ds_grad_fd_report(p, 0.3, data, mc_samples=n),
    "d2_ds2_grad_fd_report": lambda p, data, n: d2_ds2_grad_fd_report(p, 0.3, data, mc_samples=n),
    "mc_objective_pair": lambda p, data, n: mc_objective_pair(p, p, 0.3, data, mc_samples=n),
}


class EmptyData:
    """A data set with no rows; Dataset itself refuses to be empty."""

    inputs, targets = np.zeros((0, 2)), np.zeros((0, 1))

    def __len__(self):
        return 0


@pytest.mark.parametrize("rows, count", [(64, 0), (64, -1), (0, 1)], ids=["zero", "negative", "empty_data"])
@pytest.mark.parametrize("entry", MC_ENTRY_POINTS)
def test_monte_carlo_passes_refuse_counts_below_one(entry, rows, count):
    # gift.mc_blocks checks the counts before any array is allocated: 0 used to divide by zero or report
    # non-finite params, and -1 to fail inside numpy on a negative dimension
    data = linear_data(rows) if rows else EmptyData()
    with pytest.raises(ValueError, match=rf"got {rows} data rows, n_points=-?\d+, k2=-?\d+: each must be >= 1"):
        MC_ENTRY_POINTS[entry](linear_params(), data, count)


@pytest.mark.parametrize("count", [2.5, True], ids=["fraction", "boolean"])
@pytest.mark.parametrize("entry", MC_ENTRY_POINTS)
def test_monte_carlo_passes_refuse_counts_that_are_not_integers(entry, count):
    # refused by name before numpy sees them: numpy would take True as 1
    with pytest.raises(ValueError, match=rf"(n_points|k2): expected an integer, got {count}"):
        MC_ENTRY_POINTS[entry](linear_params(), linear_data(64), count)


THEOREM_CONFIGS = (TrainConfig(s0=0.2, epochs=2, batch_size=32, eps0=0.05, decay_p=1.0, tau=150.0),
                   GiftConfig(eta=0.02, k1=8, k2=2, max_steps=2, est_k1=4, est_k2=3))

INTEGRAL_COUNT_ENTRY_POINTS = {
    **MC_ENTRY_POINTS,
    "check_theorem1_n_seeds": lambda p, data, n: check_theorem1_empirically(
        LINEAR_ARCH, data, 0.3, *THEOREM_CONFIGS, n_seeds=n, mc_samples=64),
    "check_theorem1_mc_samples": lambda p, data, n: check_theorem1_empirically(
        LINEAR_ARCH, data, 0.3, *THEOREM_CONFIGS, n_seeds=1, mc_samples=n),
}


def result_bits(result) -> list:
    """A result's numbers as (dtype, bytes) pairs in a fixed order: equal lists for bit-equal results."""
    if isinstance(result, dict):
        return [bits for key in sorted(result) for bits in result_bits(result[key])]
    if isinstance(result, DirEstimate):
        return result_bits(result.value) + result_bits(result.se)
    a = np.asarray(result.vector if isinstance(result, Params) else result)
    return [(a.dtype.str, a.tobytes())]


@pytest.mark.parametrize("entry", INTEGRAL_COUNT_ENTRY_POINTS)
def test_monte_carlo_passes_take_an_integral_float_as_its_integer(entry):
    # the checked counts size the pass: 3.0 used to reach np.repeat, an array shape or range() as a float
    run, data = INTEGRAL_COUNT_ENTRY_POINTS[entry], linear_data(64)
    assert result_bits(run(linear_params(), data, 3.0)) == result_bits(run(linear_params(), data, 3))


class TestLinearConditionBound:
    def test_half_norm_limit(self):
        assert linear_condition_bound([0.3, -0.4], 1e-12, 1.0) == pytest.approx(1.0)

    def test_unit_case(self):
        assert linear_condition_bound([1.0], 1.0, 1.0) == pytest.approx(1.0)

    def test_doubling_v_halves(self):
        b1 = linear_condition_bound([0.6, -0.8], 0.5, 1.0)
        b2 = linear_condition_bound([1.2, -1.6], 0.5, 1.0)
        assert b1 == pytest.approx(2 * b2)

    def test_zero_v_rejected(self):
        with pytest.raises(ValueError):
            linear_condition_bound([0.0, 0.0], 0.1, 1.0)


class TestConditionReport:
    def test_linear_quotient_matches_closed_form(self):
        # for the linear net the quotient is 1/(2 ||W||) at every zeta
        W = np.array([[0.28, -0.37]])
        p = linear_params(W=W)
        rep = condition_report(p, linear_data(8192), 0.2, 0.6, mc_samples=150_000, seed=0)
        expected = 1.0 / (2 * np.linalg.norm(W))
        assert np.all(np.abs(rep.quotients / expected - 1.0) < 0.05)
        assert rep.satisfied
        assert "grid" in rep.caveat

    def test_reseeding_stays_within_mc_error(self):
        p = linear_params(W=[[0.28, -0.37]])
        data = linear_data(4096)
        a = condition_report(p, data, 0.2, 0.5, mc_samples=100_000, seed=0)
        b = condition_report(p, data, 0.2, 0.5, mc_samples=100_000, seed=99)
        assert abs(a.bound - b.bound) / a.bound < 0.05

    def test_equal_levels_rejected(self):
        with pytest.raises(ValueError):
            condition_report(linear_params(), linear_data(64), 0.3, 0.3, mc_samples=100)


class TestMcObjectivePair:
    def test_analytic_objective_on_linear_model(self):
        # J(W, b) over the empirical inputs: mean((V-W)x)^2 + s^2(||W||^2 + 1) + b^2
        data = linear_data(50_000)
        s = 0.5
        for W, b in (([[0.15, -0.2]], 0.1), ([[0.3, -0.4]], 0.0)):
            p = linear_params(W=W, b=b)
            pair = mc_objective_pair(p, p, s, data, mc_samples=200_000, seed=4)
            diff = data.targets[:, 0] - data.inputs @ np.asarray(W).ravel()
            analytic = (diff**2).mean() + s**2 * (np.sum(np.square(W)) + 1.0) + b**2 - 2 * b * diff.mean()
            se = abs(pair["j_a"]) / np.sqrt(200_000) * 3  # crude scale bound
            assert abs(pair["j_a"] - analytic) < max(3 * se, 0.01)
            assert pair["diff"] == 0.0 and pair["diff_se"] == 0.0

    def test_paired_difference_matches_gap(self):
        s0, s_t = 0.2, 0.6
        w0 = linear_params(W=V / (1 + s0**2))
        wt = linear_params(W=V / (1 + s_t**2))
        pair = mc_objective_pair(w0, wt, s_t, linear_data(50_000), mc_samples=300_000, seed=5)
        exact = (1 + s_t**2) * np.linalg.norm(V / (1 + s_t**2) - V / (1 + s0**2)) ** 2
        assert abs(pair["diff"] - exact) < 4 * pair["diff_se"] + 5e-4


class TestHierarchicalSampler:
    def test_nested_expectation_within_4se(self):
        out = check_hierarchical_sampler(100, 100, 20, RngStream(1, STREAM_THEORY))
        assert out["all_within_4se"]
        assert abs(np.mean(out["estimates"]) - 1 / 3) < 4 * out["se_pred"] / np.sqrt(20)

    def test_error_decreases_with_more_samples(self):
        small = check_hierarchical_sampler(100, 100, 20, RngStream(2, STREAM_THEORY))
        big = check_hierarchical_sampler(1000, 100, 20, RngStream(3, STREAM_THEORY))
        assert big["mean_abs_error"] < small["mean_abs_error"]

    def test_k2_one_degenerates_to_plain_mean(self):
        out = check_hierarchical_sampler(5000, 1, 10, RngStream(4, STREAM_THEORY))
        assert out["all_within_4se"]


class TestGradientFdCheck:
    def test_random_nets_meet_tolerance(self):
        assert gradient_fd_check(10, RngStream(5, STREAM_THEORY)) < 1e-5


def objective_gaps(data, s_t, cfg, n_seeds, mc_samples):
    """Per seed, w0 trained at cfg.s0 and the paired Monte Carlo gap J(w0) - J(w_t) at s_t, w_t trained at s_t.

    Returns (w0s, gaps, gap SEs); the gap at seed k draws on mix64(k).
    """
    w0s, pairs = [], []
    for seed in range(n_seeds):
        w0s.append(train(LINEAR_ARCH, cfg, data, seed)[0])
        w_t, _ = train(LINEAR_ARCH, replace(cfg, s0=s_t), data, seed)
        pairs.append(mc_objective_pair(w0s[-1], w_t, s_t, data, mc_samples, seed=mix64(seed)))
    return w0s, np.array([p["diff"] for p in pairs]), np.array([p["diff_se"] for p in pairs])


class TestTheorem1Empirically:
    def test_linear_gap_positive_inside_bound(self):
        cfg = TrainConfig(s0=0.2, epochs=150, batch_size=256, eps0=0.1,
                          decay_p=1.0, tau=150.0)
        gift = GiftConfig(eta=0.02, k1=256, k2=4, max_steps=10, est_k1=200, est_k2=50)
        data = linear_data(4096)
        stats = check_theorem1_empirically(LINEAR_ARCH, data, 0.6, cfg, gift, n_seeds=3, mc_samples=100_000)
        w0s, gaps, gap_ses = objective_gaps(data, 0.6, cfg, 3, 100_000)
        assert np.all(gaps > 0)
        assert gaps.mean() > 3 * max(mean_se(gaps), np.max(gap_ses))
        assert condition_report(w0s[0], data, cfg.s0, 0.6, mc_samples=100_000).satisfied
        assert np.all(stats["improvement_estimate"]["values"] >= 0)

    def test_equal_levels_gap_is_zero(self):
        cfg = TrainConfig(s0=0.3, epochs=10, batch_size=128, eps0=0.05,
                          decay_p=0.75, tau=500.0)
        gift = GiftConfig(eta=0.02, k1=64, k2=2, max_steps=3, est_k1=50, est_k2=20)
        data = linear_data(1024)
        stats = check_theorem1_empirically(LINEAR_ARCH, data, 0.3, cfg, gift, n_seeds=2, mc_samples=20_000)
        w0s, gaps, _ = objective_gaps(data, 0.3, cfg, 2, 20_000)
        with pytest.raises(ValueError, match="s0 and s_t must differ"):  # the condition needs an interval
            condition_report(w0s[0], data, cfg.s0, 0.3)
        assert np.allclose(gaps, 0.0)
        assert np.all(stats["improvement_estimate"]["values"] >= 0)


def test_default_spec_variances_match_analytic():
    # two (K1, K2) pairs pin both variance components of the predicted SE
    for k1, k2 in ((10, 3), (7, 1)):
        out = check_hierarchical_sampler(k1, k2, 1, RngStream(6, STREAM_THEORY))
        assert out["true_mean"] == pytest.approx(1 / 3)
        assert out["se_pred"] == pytest.approx(np.sqrt((4 / 45) / k1 + (2 / 5) / (k1 * k2)))

    # direct Monte-Carlo confirmation of both variance components
    gen = RngStream(6, STREAM_THEORY).generator(0)
    A = gen.uniform(0, 1, 2_000_000)
    assert abs(np.var(A**2) - 4 / 45) < 1e-3
    B = np.sqrt(A) * gen.standard_normal(A.size)
    f = A * B**2
    assert abs(f.mean() - 1 / 3) < 2e-3
