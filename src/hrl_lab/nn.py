"""Small feedforward networks in plain numpy.

ReLU hidden layers, identity output, mean-squared-error loss, Adam, and a
central-difference gradient check. Everything takes an explicit rng or seed;
there is no hidden global state.

Training runs in place: ``flatten`` packs the params into one flat buffer
whose weights and biases are views, and ``adam_update`` changes that buffer
with preallocated scratch. Likewise ``backward`` accepts the activations
from ``trace`` so that a training step runs the forward pass once, and can
write its gradients into the ``flatten`` views. Products use
``ndarray.dot``, which costs less per call than ``@`` on small 2-D operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to output, e.g. (24, 32, 64, 64, 3)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive: {self.layer_sizes}")


@dataclass
class MlpParams:
    """Weights are (n_out, n_in) per layer; biases are (n_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])


def init_params(spec: MlpSpec, seed: int) -> MlpParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim == 2:
        return x
    raise ValueError(f"input must be 1-D or 2-D, got shape {x.shape}")


def trace(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a single vector or a (batch, n_in) matrix:
    the input as a batch first, the (batch, n_out) output last."""
    batch = _as_batch(x)
    if batch.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input width {batch.shape[1]} != first layer fan-in "
            f"{params.weights[0].shape[1]}"
        )
    acts = [batch]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1].dot(w.T)
        z += b
        if i != last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Network output for a single vector or a (batch, n_in) matrix."""
    out = trace(params, x)[-1]
    return out[0] if np.ndim(x) == 1 else out


def backward(
    params: MlpParams,
    x: np.ndarray,
    grad_out: np.ndarray,
    acts: list[np.ndarray] | None = None,
    out: MlpParams | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backpropagate dLoss/dOutput through the net.

    ``acts`` may carry ``trace(params, x)`` from the forward pass just run on
    the same params and input; without it the forward pass is recomputed.
    ``out`` may carry C-contiguous float64 params-shaped arrays to write the
    gradients into, such as the views that ``flatten`` returns; without it
    they are allocated.
    Returns (weight_grads, bias_grads) with the same shapes as the params,
    summed over the batch.
    """
    g = _as_batch(grad_out)
    if acts is None:
        acts = trace(params, x)
    if g.shape != acts[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} != output shape {acts[-1].shape}")
    if out is None:
        out = MlpParams(
            [np.empty(w.shape) for w in params.weights],
            [np.empty(b.shape) for b in params.biases],
        )
    delta = g
    for i in range(len(params.weights) - 1, -1, -1):
        np.dot(delta.T, acts[i], out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
        if i:  # the gradient w.r.t. the input itself is never needed
            delta = delta.dot(params.weights[i]) * (acts[i] > 0.0)
    return out.weights, out.biases


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(pred - target)/n w.r.t. pred."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    return float(np.mean(diff * diff)), 2.0 * diff / n


def flatten(params: MlpParams) -> tuple[np.ndarray, MlpParams]:
    """Copy params into one flat buffer, laid out as ``MlpParams.flat``.

    Returns the buffer and params whose weights and biases are views into
    it, so an in-place update of the buffer updates the network.
    """
    buf = params.flat()
    views, offset = [], 0
    for a in params.weights + params.biases:
        views.append(buf[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    n = len(params.weights)
    return buf, MlpParams(views[:n], views[n:])


# Adam's published defaults (Kingma & Ba 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; flat moments live here, params stay outside.

    ``m`` and ``v`` follow the ``MlpParams.flat`` layout and are created on
    the first update, along with two scratch buffers of the same size.
    """

    lr: float = 1e-3
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def adam_update(state: AdamState, flat: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update of the flat parameter buffer ``flat``, in place.

    ``grad`` is the flat gradient in the same layout. Advances the state.
    """
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
        state._scratch = (np.empty_like(flat), np.empty_like(flat))
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    step, den = state._scratch
    # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=step)
    step *= grad
    v += step
    # flat -= lr*(m/c1) / (sqrt(v/c2) + eps)
    np.divide(m, c1, out=step)
    step *= state.lr
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step /= den
    flat -= step


def gradient_check(
    spec: MlpSpec, seed: int, h: float = 1e-5, backward_fn=backward
) -> float:
    """Largest relative disagreement between backprop and central differences.

    The probe is an MSE loss on one random input/target pair drawn from the
    seed. A healthy implementation lands well under 1e-4.
    """
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed)
    x = rng.normal(size=spec.layer_sizes[0])
    target = rng.normal(size=spec.layer_sizes[-1])

    def loss(p: MlpParams) -> float:
        return mse(forward(p, x), target)[0]

    _, grad_out = mse(forward(params, x), target)
    dws, dbs = backward_fn(params, x, grad_out)
    analytic = np.concatenate([a.ravel() for a in dws + dbs])

    numeric = np.empty_like(analytic)
    idx = 0
    for arr in params.weights + params.biases:
        flat = arr.ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = loss(params)
            flat[j] = keep - h
            down = loss(params)
            flat[j] = keep
            numeric[idx] = (up - down) / (2.0 * h)
            idx += 1

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))
