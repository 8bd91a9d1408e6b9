"""Backpropagation of the squared loss through a stored noisy forward pass.

The backward recursion reuses the exact forward realization: derivatives of the
activation are 1 - t(l)^2 at the stored t(l) = tanh(z(l)), whose z(l) already
contain the weighing noise of that pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ForwardTrace,
    NoiseDraw,
    NoiseModel,
    Params,
    forward_noisy,
    sample_noise_batch,
)


def residual_stack(trace: ForwardTrace, target, params: Params) -> list:
    """Backprop vectors R(1)..R(L) for a kept trace, written into its residuals; rows are samples when batched.

    Each hidden layer's activation derivative is formed in the trace's scratch.
    """
    L = params.arch.n_layers
    y = np.asarray(target, dtype=float)
    outputs = trace.activations[-1]
    if y.shape != outputs.shape:
        raise ValueError(f"target shape {y.shape}, output shape {outputs.shape}")
    R = trace.residuals
    np.subtract(y, outputs, out=R[L - 1])
    for l in range(L - 1, 0, -1):
        # R(l) = (W(l+1)^T R(l+1)) .* (1 - t(l)^2); row form: R(l+1) @ W(l+1)
        np.matmul(R[l], params.weights[l], out=R[l - 1])
        t = trace.hidden_tanh[l - 1]
        deriv = np.square(t, out=trace.scratch[:t.size].reshape(t.shape))
        np.subtract(1.0, deriv, out=deriv)
        R[l - 1] *= deriv
    return R


def layer_sums(R, activations, out: Params) -> Params:
    """Write the row sums of R(l) A(l-1)^T and of R(l) into out's weights and biases, layer by layer.

    R and activations may be generators: one layer's pair is read at a time.
    Each sum lands in out's own view, with no temporary.
    """
    for W, b, r, a in zip(out.weights, out.biases, R, activations):
        np.matmul(r.T, a, out=W)
        np.add.reduce(r, axis=0, out=b)
    return out


@dataclass
class GradBuffers:
    """Arrays batch_gradient(out=) writes into, for batches of at most `rows` rows:
    a draw, a trace (which holds the residuals) and the gradient it returns. A
    shorter batch uses their leading rows, so one set serves every step of a
    training run."""

    noise: NoiseDraw
    trace: ForwardTrace
    grad: Params

    @classmethod
    def empty(cls, arch, rows: int) -> "GradBuffers":
        return cls(NoiseDraw.empty(arch, rows), ForwardTrace.empty(arch, rows), Params.empty(arch))


def backward(trace: ForwardTrace, target, params: Params, out: Params | None = None) -> Params:
    """Mean gradient of (y - output)^2 over the rows of a batched trace, its noise held fixed.

    Traces hold (n, d) rows, as the forward pass requires; a one-row batch gives
    the per-sample gradient. R(1)..R(L), R(L) = y - A(L), are written into the
    trace's residuals, where the caller reads them. The gradient carries the
    explicit -2 of the squared loss, dW(l) = -2 R(l) A(l-1)^T and db(l) = -2 R(l),
    each a mean over the rows. It is written into out, or into a fresh Params
    without it, and not checked for finite entries; the batch loss is what
    detects divergence.
    """
    if trace.noise is None or trace.noise.multiplicative:
        raise ValueError("backward requires a trace from an additive-noise forward pass")
    R = residual_stack(trace, target, params)
    grad = layer_sums(R, trace.activations, Params.empty(params.arch) if out is None else out)
    # then every layer's scaling at once, entry by entry as per layer: weight sums times -2/n, and
    # bias sums divided by n, the mean as np.mean forms it, then times -2
    n, nw = R[0].shape[0], params.arch.n_weights
    grad.vector[:nw] *= -2.0 / n
    biases = grad.vector[nw:]
    biases /= n
    biases *= -2.0
    return grad


def batch_gradient(params: Params, X, Y, s0: float, gen: np.random.Generator,
                   out: GradBuffers | None = None) -> tuple:
    """(gradient, loss): the mean gradient and mean squared-error loss over the rows of X, Y, each row
    under an independent level-s0 Gaussian draw.

    The draw takes gen's next values (sample_noise_batch). The draw, trace
    (with its residuals) and gradient are written into out (from
    GradBuffers.empty, at least len(X) rows), or into fresh arrays without it.
    The loss is formed from the trace's R(L): its per-row sums and their mean
    are the reductions np.sum and np.mean make, called without their wrappers.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"batch needs nonempty 2-D inputs and targets, got {X.shape} and {Y.shape}")
    n = X.shape[0]
    if out is None:
        out = GradBuffers.empty(params.arch, n)
    noise = sample_noise_batch(params.arch, NoiseModel("gaussian_additive", s0), gen, n, out.noise)
    trace = forward_noisy(params, X, noise, out=out.trace)
    grad = backward(trace, Y, params, out.grad)
    R = trace.residuals[-1]
    return grad, float(np.add.reduce(np.add.reduce(np.square(R), axis=1))) / n
