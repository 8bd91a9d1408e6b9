"""Numeric verification tools: derivative-in-s oracles, closed-form condition
bounds, the Gaussian-product derivative identity, and the hierarchical sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _count, checked
from .device import Device
from .gift import (DirEstimate, GiftConfig, estimate_direction, gift_run, mc_blocks, mc_gradient, mean_se,
                   noise_weight_factor, normalize)
from .gradients import residual_stack  # noqa: F401  bound only for perfbench/tracer.py PATCHES
from .model import (
    Architecture,
    ForwardTrace,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    STREAM_ESTIMATE,
    STREAM_EVAL,
    STREAM_THEORY,
    block_rows,
    forward_noisy,
    mix64,
    sample_noise_batch,
)
from .trainer import TrainConfig, TrainingDiverged, train


def d_ds_grad_fd_report(params: Params, s: float, data, h: float = 0.05,
                        mc_samples: int = 200_000, seed: int = 0) -> DirEstimate:
    """Central difference in s of the Monte Carlo loss gradient: mc_gradient, the -2 in its coefficients."""
    if not 0 < h < s:
        raise ValueError(f"need 0 < h < s, got h={h}, s={s}")
    return mc_gradient(params, data, [s - h, s + h], [1.0 / h, -1.0 / h], mc_samples, 1,
                       RngStream(seed, STREAM_THEORY), moment=True)


def d2_ds2_grad_fd_report(params: Params, s: float, data, h: float = 0.05,
                          mc_samples: int = 200_000, seed: int = 0) -> DirEstimate:
    """Three-point stencil in s of the Monte Carlo loss gradient: mc_gradient, the -2 in its coefficients."""
    if not 0 < h < s:
        raise ValueError(f"need 0 < h < s, got h={h}, s={s}")
    hh = h * h
    return mc_gradient(params, data, [s - h, s, s + h], [-2.0 / hh, 4.0 / hh, -2.0 / hh], mc_samples, 1,
                       RngStream(seed, STREAM_THEORY), moment=True)


def check_gaussian_product_derivative(draw: NoiseDraw, s: float) -> float:
    """Relative error between noise_weight_factor(draw, s) / s, the analytic
    d/ds of the one-row draw's log density -D log s - ||N||^2 / (2 s^2) (D
    values in the draw), and a fourth-order central finite difference in s of
    that log density. Log space keeps the difference accurate where the
    factor is near zero."""
    h = 1e-4
    analytic = float(noise_weight_factor(draw, s)[0]) / s
    D, sq = draw.vector.size, float(draw.vector @ draw.vector)

    def log_density(sv: float) -> float:
        return -D * np.log(sv) - sq / (2.0 * sv**2)

    fd = (-log_density(s + 2 * h) + 8 * log_density(s + h) - 8 * log_density(s - h)
          + log_density(s - 2 * h)) / (12.0 * h)
    return abs(fd - analytic) / max(abs(analytic), 1e-12)


def check_gaussian_product_cases(n_cases: int, rng: RngStream) -> float:
    """Worst relative error over random cases: per case a random architecture
    (2-4 dims, each 1-4) and level s in [0.3, 1.5], and one level-s row drawn
    through sample_noise_batch."""
    worst = 0.0
    for c in range(n_cases):
        gen = rng.generator(c)
        n_dims = int(gen.integers(2, 5))
        arch = Architecture(tuple(int(d) for d in gen.integers(1, 5, n_dims)))
        s = float(gen.uniform(0.3, 1.5))
        draw = sample_noise_batch(arch, NoiseModel("gaussian_additive", s), gen, 1)
        worst = max(worst, check_gaussian_product_derivative(draw, s))
    return worst


def linear_condition_bound(V, s0: float, Ex2: float) -> float:
    """Permissible |s_t - s0| for the linear task: (1 + s0^2/Ex2) / (2 ||V||)."""
    V = np.asarray(V, dtype=float).ravel()
    nv = float(np.linalg.norm(V))
    if nv == 0.0:
        raise ValueError("V must be nonzero")
    if s0 < 0:
        raise ValueError("s0 must be >= 0")
    if not Ex2 > 0:
        raise ValueError("Ex2 must be positive")
    return (1.0 + s0**2 / Ex2) / (2.0 * nv)


@dataclass
class ConditionReport:
    """Numeric check of the improvement condition between noise levels.

    The quotient ||d/ds grad J|| / (0.5 |<d2/ds2 grad J(zeta), d/ds grad J>|)
    is sampled on a finite interior zeta grid; `bound` is its minimum and
    `satisfied` says whether 0 < |s_t - s0| < bound on that grid.
    """

    s0: float
    s_t: float
    grad_norm: float
    grad_norm_se: float
    zetas: np.ndarray
    inner_products: np.ndarray
    quotients: np.ndarray
    bound: float
    satisfied: bool
    caveat: str = "condition sampled on a finite zeta grid; values between grid points are not certified"


def condition_report(params: Params, data, s0: float, s_t: float,
                     mc_samples: int = 200_000, seed: int = 0) -> ConditionReport:
    h, n_zeta = 0.05, 9  # the largest finite-difference step in s; zetas inside (s0, s_t)
    if s0 == s_t:
        raise ValueError("s0 and s_t must differ")
    g1 = d_ds_grad_fd_report(params, s0, data, h=min(h, 0.45 * s0), mc_samples=mc_samples, seed=seed)
    v1, se1 = g1.to_vectors()
    norm = float(np.linalg.norm(v1))
    norm_se = float(np.linalg.norm(v1 * se1) / norm) if norm > 0 else float(np.linalg.norm(se1))

    lo, hi = sorted((s0, s_t))
    zetas = np.linspace(lo, hi, n_zeta + 2)[1:-1]
    inner, quot = [], []
    for i, zeta in enumerate(zetas):
        g2 = d2_ds2_grad_fd_report(params, float(zeta), data, h=min(h, 0.45 * lo),
                                   mc_samples=mc_samples, seed=seed + 1 + i)
        v2, _ = g2.to_vectors()
        ip = float(v2 @ v1)
        inner.append(ip)
        half = 0.5 * abs(ip)
        quot.append(np.inf if half == 0.0 else norm / half)
    inner = np.array(inner)
    quot = np.array(quot)
    bound = float(quot.min()) if len(quot) else np.inf
    gap = abs(s_t - s0)
    return ConditionReport(
        s0=s0, s_t=s_t, grad_norm=norm, grad_norm_se=norm_se, zetas=zetas,
        inner_products=inner, quotients=quot, bound=bound,
        satisfied=bool(0.0 < gap < bound),
    )


def mc_objective_pair(params_a: Params, params_b: Params, s: float, data,
                      mc_samples: int = 200_000, seed: int = 0) -> dict:
    """Monte Carlo estimates of the expected squared loss at level s for two
    parameter sets under shared draws; the difference gets a paired SE."""
    model = NoiseModel("gaussian_additive", s)
    arch = params_a.arch
    mc_samples, _, blocks = mc_blocks(arch, model, data, mc_samples, 1, RngStream(seed, STREAM_THEORY))
    outputs = ForwardTrace.empty(arch, block_rows(arch, mc_samples, 1), keep=False)  # both sets' passes, in turn
    sums = np.zeros(3)  # sum_a, sum_b, sum of squared diff
    sum_d = 0.0
    for X, Y, noise in blocks:
        la = ((Y - forward_noisy(params_a, X, noise, out=outputs).activations[-1]) ** 2).sum(axis=1)
        lb = ((Y - forward_noisy(params_b, X, noise, out=outputs).activations[-1]) ** 2).sum(axis=1)
        d = la - lb
        sums += [la.sum(), lb.sum(), (d**2).sum()]
        sum_d += d.sum()
    n = float(mc_samples)
    ja, jb = sums[0] / n, sums[1] / n
    diff = sum_d / n
    diff_se = np.sqrt(max(sums[2] / n - diff**2, 0.0) / n)
    return {"j_a": ja, "j_b": jb, "diff": diff, "diff_se": float(diff_se)}


def check_theorem1_empirically(
    arch: Architecture,
    data,
    s_t: float,
    train_config: TrainConfig,
    gift_config: GiftConfig,
    n_seeds: int,
    mc_samples: int = 200_000,
) -> dict:
    """Per seed, train at s0 = train_config.s0, estimate the direction, fine-tune
    against a device at s_t and measure the improvement both at the selection
    estimate and by an independent Monte Carlo objective at s_t. gift_config sets
    the direction estimate's size and the line search, as it does for the gift
    command.

    s_t == s0 is allowed (the well-specified case; fine-tuning stays
    non-degrading). The device runs Gaussian additive noise at s_t, the noise
    model of the Monte Carlo objective, so both improvements measure the same
    objective.
    """
    n_seeds = checked("n_seeds", _count, n_seeds)
    imp_est, imp_true, imp_true_ses = [], [], []
    diverged = 0
    for seed in range(n_seeds):
        try:
            w0, _ = train(arch, train_config, data, seed)
        except TrainingDiverged:
            diverged += 1
            continue
        direction = normalize(estimate_direction(w0, data, train_config.s0, gift_config.est_k1, gift_config.est_k2,
                                                 RngStream(seed, STREAM_ESTIMATE)))
        device = Device(NoiseModel("gaussian_additive", s_t), seed=mix64(seed))
        trace = gift_run(device, w0, direction, gift_config, data, RngStream(seed, STREAM_EVAL))
        imp_est.append(trace.improvement)
        pair = mc_objective_pair(w0, trace.w_f, s_t, data, mc_samples, seed=mix64(seed + 10_000))
        imp_true.append(pair["diff"])
        imp_true_ses.append(pair["diff_se"])

    def _stats(xs):
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return {"values": xs, "mean": np.nan, "se": np.nan}
        return {"values": xs, "mean": float(xs.mean()), "se": mean_se(xs)}

    return {
        "improvement_estimate": _stats(imp_est),
        "improvement_true": _stats(imp_true),
        "improvement_true_ses": np.asarray(imp_true_ses),
        "n_diverged": diverged,
        "n_seeds": n_seeds,
    }


def check_hierarchical_sampler(k1: int, k2: int, n_reps: int, rng: RngStream) -> dict:
    """Estimate a nested expectation n_reps times from K1 outer draws A and K2
    inner draws B per A, and compare against the predicted standard error
    sqrt(Var(E[f|A])/K1 + E[Var(f|A)]/(K1 K2)).

    The target: A ~ U(0,1), B | A ~ Normal(0, variance A) and f = A B^2, so
    E f = E A^2 = 1/3, Var(E[f|A]) = Var(A^2) = 4/45 and E[Var(f|A)] = E[2 A^4] = 2/5.
    """
    estimates = np.empty(n_reps)
    for r in range(n_reps):
        gen = rng.generator(r)
        A = gen.uniform(0.0, 1.0, k1)
        B = np.sqrt(A)[:, None] * gen.standard_normal((k1, k2))
        estimates[r] = float(np.mean(A[:, None] * B**2))
    true_mean = 1.0 / 3.0
    errors = estimates - true_mean
    se_pred = float(np.sqrt(4.0 / 45.0 / k1 + 2.0 / 5.0 / (k1 * k2)))
    return {
        "k1": k1,
        "k2": k2,
        "n_reps": n_reps,
        "estimates": estimates,
        "true_mean": true_mean,
        "errors": errors,
        "mean_abs_error": float(np.abs(errors).mean()),
        "se_pred": se_pred,
        "all_within_4se": bool(np.all(np.abs(errors) <= 4.0 * se_pred)),
    }


def gradient_fd_check(n_cases: int, rng: RngStream) -> float:
    """Worst relative error between backprop and central finite differences of
    the fixed-noise squared loss, over random small networks."""
    from .gradients import backward

    dim_caps, step = (5, 7, 4, 3), 1e-6
    worst = 0.0
    dims_rng = rng.child(1)
    noise_rng = rng.child(2)
    for c in range(n_cases):
        gen = dims_rng.generator(c)
        dims = tuple(int(gen.integers(1, cap + 1)) for cap in dim_caps)
        arch = Architecture(dims)
        ws = [gen.uniform(-0.7, 0.7, (dims[l + 1], dims[l])) for l in range(arch.n_layers)]
        bs = [gen.uniform(-0.3, 0.3, dims[l + 1]) for l in range(arch.n_layers)]
        params = Params(arch, ws, bs)
        x = 0.8 * gen.standard_normal((1, dims[0]))
        y = gen.standard_normal((1, dims[-1]))
        noise = sample_noise_batch(arch, NoiseModel("gaussian_additive", 0.3), noise_rng.generator(c), 1)

        trace = forward_noisy(params, x, noise)
        analytic = backward(trace, y, params).vector

        vec = params.to_vector()
        outputs = ForwardTrace.empty(arch, 1, keep=False)  # the loss reads only the output: keep no trace
        loss = lambda p: float(((y - forward_noisy(p, x, noise, out=outputs).activations[-1]) ** 2).sum())
        for k in range(vec.size):
            e = np.zeros_like(vec)
            e[k] = step
            fd = (loss(Params.from_vector(arch, vec + e)) - loss(Params.from_vector(arch, vec - e))) / (2 * step)
            denom = max(abs(analytic[k]), abs(fd), 1e-8)
            worst = max(worst, abs(analytic[k] - fd) / denom)
    return worst
