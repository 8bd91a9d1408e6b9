"""Fine-tuning against the device: direction estimation, in-situ scoring, line search.

The search direction D is the hierarchical sample mean of
noise_weight_factor(N) * (R(l) A(l-1)^T, R(l)) over K1 data pairs times K2
level-s0 draws. Its mean is (-s0/2) times the s-derivative of the average-loss
gradient; the bidirectional line search absorbs that sign and scale, so no
constant is applied here.

D lives in parameter space, so it is a Params: one flat vector in the
parameters' layout, and each candidate w0 + c*D is one vector operation
(apply_step).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checks import _choice, _count, _finite, _where, check_leaves, leaf
from .device import Device
from .gradients import layer_sums, residual_stack
from .model import (
    ForwardTrace,
    NoiseDraw,
    NoiseModel,
    Params,
    RngStream,
    apply_step,
    block_rows,
    forward_noisy,
    point_blocks,
    sample_noise_batch,
)

# A step stops the search when this rule over its two losses is at or above the baseline's.
STOP_RULES = {"either_worse": max, "both_worse": min}

# How far from 1 the norm of a direction gift_run steps along may be.
UNIT_NORM_TOLERANCE = 1e-12


@dataclass
class GiftConfig:
    """The config's gift section: the fine-tuning chain's settings.

    The line search takes step scale eta, eval sample sizes K1/K2, max_steps
    and the stop rule. The direction estimate draws est_k1 x est_k2 rows.
    Every in-situ score queries each point k2 times: the line search, the
    fresh re-evaluation and eval. Each field states its leaf's default and
    check once.

    eta = 0 is allowed and degenerates to returning the initial weights: all
    candidates coincide, shared noise makes scores exactly equal, and the
    baseline wins the tie.
    """

    eta: float = leaf(0.02, _where(_finite, ">= 0", lambda x: x >= 0))
    k1: int = leaf(1000, _count)
    k2: int = leaf(8, _count)
    max_steps: int = leaf(25, _count)
    stop_rule: str = leaf("either_worse", _choice(STOP_RULES))
    est_k1: int = leaf(500, _count)
    est_k2: int = leaf(100, _count)

    __post_init__ = check_leaves


@dataclass
class EvalReport:
    """In-situ score: mean squared device error with hierarchical standard errors."""

    loss: float
    loss_se: float
    accuracy: float
    accuracy_se: float
    k1: int
    k2: int
    noise_slot: int


@dataclass
class GiftTrace:
    """Everything a line search visited. selected == (0, 0) means the baseline.

    Candidate i,sign has params w0 + sign*i*eta*D; w_f is the argmin over all
    recorded scores including the baseline, so improvement is never negative.
    w_f is w0 itself when the baseline wins. best is w_f's report: the
    baseline's when selected == (0, 0).
    """

    baseline: EvalReport
    best: EvalReport
    records: list
    selected: tuple
    w_f: Params
    improvement: float
    steps_taken: int
    queries: int
    stop_reason: str
    direction_norm: float


def noise_weight_factor(noise: NoiseDraw, s0: float, scratch: np.ndarray | None = None):
    """Per row, the sum over the 2L noise vectors of (||N||^2 / s0^2 - d); an (n,) array.

    Zero-mean at level s0. The squares go to scratch, a flat array with room
    for the widest site's (n, d) values, or to a fresh array without it.
    """
    if not s0 > 0:
        raise ValueError("s0 must be positive")
    if noise.multiplicative:
        raise ValueError("factor is defined for additive draws")
    sites = list(noise.act) + list(noise.weigh)
    if scratch is None:
        scratch = np.empty(max(v.size for v in sites))
    total = 0.0
    for v in sites:
        sq = np.square(v, out=scratch[:v.size].reshape(v.shape)).sum(axis=-1)
        sq /= s0**2
        total = total + sq - v.shape[-1]
    return total


@dataclass
class DirEstimate:
    """A parameter-space estimate plus its componentwise standard errors."""

    value: Params
    se: Params

    def to_vectors(self):
        return self.value.to_vector(), self.se.to_vector()


def mc_blocks(arch, model: NoiseModel, data, n_points: int, k2: int, rng: RngStream):
    """Monte Carlo blocks (X, Y, noise) over n_points data rows drawn at rng index 0.

    X and Y hold one row per drawn point; the draw holds k2 rows per point, in
    a row, for a pass that repeats each point k2 times. The blocks are those of
    model.point_blocks(arch, n_points, k2), the device's block plan too: each
    draws at most model.BLOCK_BYTES, or holds one point; block c draws its
    noise from model at rng index 1 + c. Every block's draw is written into
    the front of one draw of block_rows(arch, n_points, k2) rows, so a
    yielded block is valid until the next one is drawn. The counts are checked
    when called, before anything is allocated: take the blocks first.
    """
    if len(data) < 1 or n_points < 1 or k2 < 1:
        raise ValueError(f"got {len(data)} data rows, n_points={n_points}, k2={k2}: each must be >= 1")
    idx = rng.generator(0).integers(0, len(data), size=n_points)
    draw = NoiseDraw.empty(arch, block_rows(arch, n_points, k2))

    def blocks():
        for c, (start, stop) in enumerate(point_blocks(arch, n_points, k2)):
            rows = idx[start:stop]
            noise = sample_noise_batch(arch, model, rng.generator(1 + c), len(rows) * k2, out=draw)
            yield data.inputs[rows], data.targets[rows], noise

    return blocks()


def mc_gradient(params: Params, data, levels, coeffs, n_points: int, k2: int, rng: RngStream,
                score: bool = False, moment: bool = False):
    """Mean over n_points x k2 rows of sum_j coeffs[j] * (R_j A_j^T, R_j) under noise N_j = levels[j] * Z.

    Every level shares the row's unit draw Z and data point, so differences in
    s are exact up to Monte Carlo error in Z and the data subsample; the loss
    gradient is -2 times a level's term. score weights each row's term by
    noise_weight_factor(N_j, levels[j]); moment returns a DirEstimate whose SE
    treats rows as independent, as they are at k2 = 1. np.multiply forms s * Z,
    bit equal to a level-s draw, in one level draw, or in Z itself for the last
    level. Each level keeps one trace, sized for the largest block. Terms are
    added in level order, square terms in level-pair order.
    """
    arch = params.arch
    blocks = mc_blocks(arch, NoiseModel("gaussian_additive", 1.0), data, n_points, k2, rng)
    rows = block_rows(arch, n_points, k2)
    level_noise = NoiseDraw.empty(arch, rows) if len(levels) > 1 else None
    trace_bufs = [ForwardTrace.empty(arch, rows) for _ in levels]
    total = Params.zeros(arch)
    sq = Params.zeros(arch) if moment else None
    term = Params.empty(arch)  # one block's sums for a level or a level pair, added to a total
    for X, Y, Z in blocks:
        Y = np.repeat(Y, k2, axis=0)
        traces = []
        for j, (s, trace_buf) in enumerate(zip(levels, trace_bufs)):
            noise = Z if j == len(levels) - 1 else level_noise.leading(arch, len(Y))
            np.multiply(Z.vector, s, out=noise.vector)
            traces.append(forward_noisy(params, X, noise, k2, trace_buf))
            R = residual_stack(traces[-1], Y, params)
            if score:
                f = noise_weight_factor(noise, s, traces[-1].scratch)  # the squares fit the widest layer's room
                for r in R:
                    r *= f[:, None]  # R(l) is read again only by the square terms: weight it in place
            layer_sums(R, traces[-1].activations, term).vector *= coeffs[j]
            total.vector += term.vector
        if moment:
            for j, a in enumerate(traces):
                for j2, b in enumerate(traces[j:], start=j):  # generators: one layer's products exist at a time
                    RR = (ra * rb for ra, rb in zip(a.residuals, b.residuals))
                    AA = (xa * xb for xa, xb in zip(a.activations, b.activations))
                    layer_sums(RR, AA, term).vector *= coeffs[j] * coeffs[j2] * (1.0 if j2 == j else 2.0)
                    sq.vector += term.vector
    n = n_points * k2
    total.vector /= n  # in place: the same values as a new quotient
    mean = Params.from_vector(arch, total.vector)
    if not moment:
        return mean
    se = np.sqrt(np.maximum(sq.vector / n - mean.vector**2, 0.0) / n)
    return DirEstimate(mean, Params.from_vector(arch, se))


def estimate_direction(params: Params, data, s0: float, k1: int, k2: int, rng: RngStream) -> Params:
    """Hierarchical mean over K1 data pairs x K2 level-s0 draws of factor(N) * (R(l) A(l-1)^T, R(l)).

    mc_gradient at the one level s0 with the score weight; the module
    docstring gives its scale relative to the s-derivative of the gradient.
    """
    return mc_gradient(params, data, [s0], [1.0], k1, k2, rng, score=True)


def normalize(direction: Params) -> Params:
    """Scale the direction to unit norm in place, D *= 1 / ||D||, and return it.

    No second vector is made: callers normalize an estimate once, where it is
    made, and gift_run steps along it. A zero or non-finite norm is refused.
    """
    dn = direction.norm()
    if not np.isfinite(dn) or dn == 0.0:
        raise ValueError("direction must be finite and nonzero")
    direction.vector *= 1.0 / dn
    return direction


def mean_se(values: np.ndarray) -> float:
    """Standard error of a sample mean, std(ddof=1) / sqrt(n); 0 for one value."""
    return float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0


def eval_in_situ(device: Device, params: Sequence[Params], X, Y, points, k2: int,
                 noise_slot: int) -> list[EvalReport]:
    """Mean squared device error of each parameter set over K1 data points, each queried k2 times, on a noise slot.

    X is (n, d0) and Y is (n, dL), row-aligned; points holds the K1 data
    points as row indices into both. The device gathers each block's input
    rows itself and runs each point k2 times in a row.
    Returns one EvalReport per parameter set, in order, from one device call
    on the sets as given (the device rejects an empty list), so every set sees
    the same noise and each block is drawn once. Also reports argmax-vs-argmax
    accuracy. Standard errors come from the K1 per-data-point means. Calls
    that pass the same architecture, points, k2 and slot share their random
    numbers.
    """
    if k2 < 1:
        raise ValueError(f"k2 must be >= 1, got {k2}")
    k1 = len(points)
    if k1 == 0:
        raise ValueError("no data points to score")
    for p in params:
        want = (X.shape[0], p.arch.layer_dims[-1])
        if Y.shape != want:
            raise ValueError(f"target shape {Y.shape}, want {want} for input shape {X.shape}")
    outs = device.forward_batch(params, X, points, noise_slot, k2).reshape(len(params), k1, k2, -1)
    Y = Y[points]

    reports = []
    for out in outs:
        per_point = ((Y[:, None, :] - out) ** 2).sum(axis=2).mean(axis=1)
        per_point_acc = (np.argmax(out, axis=2) == np.argmax(Y, axis=1)[:, None]).mean(axis=1)
        reports.append(EvalReport(
            loss=float(per_point.mean()),
            loss_se=mean_se(per_point),
            accuracy=float(per_point_acc.mean()),
            accuracy_se=mean_se(per_point_acc),
            k1=k1,
            k2=k2,
            noise_slot=noise_slot,
        ))
    return reports


def gift_run(
    device: Device,
    w0: Params,
    direction: Params,
    config: GiftConfig,
    data,
    rng: RngStream,
) -> GiftTrace:
    """Symmetric line search from w0 along the unit direction D, scored on the device.

    D must have unit norm (within UNIT_NORM_TOLERANCE; see normalize), so eta
    is the step length in parameter space and a raw estimate is refused
    rather than stepped along; direction_norm reports D's norm (1 up to
    rounding). Candidates w0 +- i*eta*D share one data subsample, drawn once
    per search as row indices into data, and one device noise slot drawn from
    rng in [1, 2^62) (slot 0 belongs to the fresh re-evaluation and eval), so
    their scores differ only through the parameters. Each step scores its
    candidates in one device call, step 1 the baseline with them. Stops per
    stop_rule (either_worse: one side at or above the baseline; both_worse:
    both sides) or at max_steps. The argmin over everything visited, baseline
    included, is kept as the search runs; w_f is that candidate itself, or
    w0 itself when the baseline wins.
    """
    dn = direction.norm()
    if not np.isfinite(dn) or dn == 0.0:
        raise ValueError("direction must be finite and nonzero")
    if abs(dn - 1.0) > UNIT_NORM_TOLERANCE:
        raise ValueError(f"direction norm {dn!r} is not 1 within {UNIT_NORM_TOLERANCE}: normalize it first")
    gen = rng.generator(0)
    idx = gen.integers(0, len(data), size=config.k1)
    slot = int(gen.integers(1, 1 << 62))
    assert 0 < slot < 1 << 62, "the line search never takes slot 0"

    q_before = device.query_count
    stop = STOP_RULES[config.stop_rule]
    records, stop_reason = [], "max_steps"
    selected, w_f = (0, 0), None
    for i in range(1, config.max_steps + 1):
        coef = i * config.eta
        candidates = [apply_step(w0, +coef, direction), apply_step(w0, -coef, direction)]
        sets = [w0, *candidates] if i == 1 else candidates
        reports = eval_in_situ(device, sets, data.inputs, data.targets, idx, config.k2, slot)
        if i == 1:
            baseline = best = reports.pop(0)
        for sign, w, rep in zip((+1, -1), candidates, reports):
            records.append((i, sign, rep))
            if rep.loss < best.loss:
                best, selected, w_f = rep, (i, sign), w
        if stop(reports[0].loss, reports[1].loss) >= baseline.loss:
            stop_reason = config.stop_rule
            break

    return GiftTrace(
        baseline=baseline,
        best=best,
        records=records,
        selected=selected,
        w_f=w0 if w_f is None else w_f,
        improvement=baseline.loss - best.loss,
        steps_taken=i,
        queries=device.query_count - q_before,
        stop_reason=stop_reason,
        direction_norm=dn,
    )
