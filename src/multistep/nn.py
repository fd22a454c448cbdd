"""Dense feed-forward network core.

Explicit forward/backward passes, inverted dropout, MSE loss and Adam,
all in float64 numpy. No autograd framework: gradients are checked
against finite differences in the test suite instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "linear", "sigmoid", "tanh")


@dataclass(frozen=True)
class Layer:
    """One dense layer. Inside an Mlp, weights and bias are views into
    Mlp.params: write them in place, never rebind them."""

    weights: np.ndarray  # [out_dim, in_dim]
    bias: np.ndarray  # [out_dim]
    activation: str = "relu"

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    """A dense network whose parameters live in one flat float64 vector,
    `params`, laid out W0 (row-major), b0, W1, b1, ... Construction copies
    the given layers into that vector and rebuilds them as views of it."""

    layers: list[Layer]
    dropout_rate: float = 0.0
    metadata: dict = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False)
    # per layer (weights slice, bias slice) of the flat layout, for backward
    grad_slices: list[tuple[slice, slice]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("Mlp needs at least one layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {layer.activation!r}")
            if layer.bias.shape != (layer.out_dim,):
                raise ShapeError(f"layer {i}: bias shape {layer.bias.shape} != ({layer.out_dim},)")
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ShapeError(
                    f"layer {i} in_dim {layer.in_dim} != layer {i - 1} out_dim "
                    f"{self.layers[i - 1].out_dim}"
                )
            if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
                raise NumericError(f"layer {i} has non-finite parameters")
        self.params = np.concatenate(
            [a.ravel() for l in self.layers for a in (l.weights, l.bias)], dtype=float
        )
        views, slices, off = [], [], 0
        for layer in self.layers:
            w_end = off + layer.weights.size
            b_end = w_end + layer.out_dim
            w = self.params[off:w_end].reshape(layer.weights.shape)
            views.append(Layer(w, self.params[w_end:b_end], layer.activation))
            slices.append((slice(off, w_end), slice(w_end, b_end)))
            off = b_end
        self.layers = views
        self.grad_slices = slices

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "Mlp":
        return Mlp(list(self.layers), self.dropout_rate, dict(self.metadata))


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0
    dropout_rate: float = 0.0
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")


@dataclass
class AdamState:
    first_moment: np.ndarray  # flat, like Mlp.params
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    # scratch vectors adam_step writes its temporaries into
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def init_mlp(
    dims: Sequence[int],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | int | None = None,
    final_activation: str = "linear",
    hidden_activation: str = "relu",
) -> Mlp:
    """He-style uniform initialization, U(+-sqrt(6/fan_in)), biases zero."""
    if len(dims) < 2:
        raise ConfigError("need at least input and output dims")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = final_activation if i == len(dims) - 2 else hidden_activation
        layers.append(Layer(w, b, act))
    return Mlp(layers, dropout_rate=dropout_rate)


@dataclass(slots=True)
class LayerCache:
    inputs: np.ndarray  # [batch, in_dim]
    act_out: np.ndarray  # [batch, out_dim] activation output before dropout
    mask: np.ndarray | None  # inverted-dropout mask, or None


@dataclass(slots=True)
class ForwardCache:
    layer_caches: list[LayerCache]
    single: bool  # input was a 1-D vector


def forward(
    net: Mlp,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    buffers: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network. Accepts a single vector or a [batch, in_dim] matrix.

    Dropout (train mode only) uses inverted scaling and is applied to
    hidden-layer outputs, never to the input or the final layer. Each
    layer applies its activation in place on its pre-activation, so it
    keeps one array.

    `buffers`, if given, holds one float64 [batch, out_dim] array per
    layer, and layer i writes into buffers[i] instead of a fresh array.
    The output and the cache then alias the buffers: the next call with
    the same buffers overwrites them.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    if buffers is not None:
        shapes = [(a.shape[0], layer.out_dim) for layer in net.layers]
        got = [np.shape(buf) for buf in buffers]
        if got != shapes or not all(
            isinstance(buf, np.ndarray) and buf.dtype == np.float64 for buf in buffers
        ):
            raise ShapeError(f"buffers must be float64 arrays of shapes {shapes}, got {got}")
    if not np.isfinite(a).all():
        raise NumericError("non-finite input")
    use_dropout = mode == "train" and net.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout requires an rng")

    caches = []
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        if buffers is None:
            h = a @ layer.weights.T
        else:
            h = np.matmul(a, layer.weights.T, out=buffers[i])
        h += layer.bias
        # each in-place step is one operation of the textbook formula, so
        # the bits equal max(z, 0), 1 / (1 + exp(-z)) and tanh(z)
        act = layer.activation
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "sigmoid":
            np.negative(h, out=h)
            np.exp(h, out=h)
            h += 1.0
            np.divide(1.0, h, out=h)
        elif act == "tanh":
            np.tanh(h, out=h)
        mask = None
        out = h
        if use_dropout and i < last:
            keep = 1.0 - net.dropout_rate
            mask = (rng.random(h.shape) < keep).astype(float)
            mask /= keep
            out = h * mask
        caches.append(LayerCache(inputs=a, act_out=h, mask=mask))
        a = out
    y = a[0] if single else a
    return y, ForwardCache(caches, single)


def _output_grad(net: Mlp, cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """loss_grad as a [batch, output_dim] matrix, checked against the cache."""
    if len(cache.layer_caches) != len(net.layers):
        raise ShapeError("cache does not match network depth")
    g = np.asarray(loss_grad, dtype=float)
    if cache.single:
        g = g[None, :]
    batch = cache.layer_caches[0].inputs.shape[0]
    if g.shape != (batch, net.output_dim):
        raise ShapeError(f"loss_grad shape {loss_grad.shape} incompatible with output")
    return g


def _preact_grad(layer: Layer, lc: LayerCache, g: np.ndarray) -> np.ndarray:
    """d loss / d layer output -> d loss / d pre-activation."""
    if lc.inputs.shape[1] != layer.in_dim or lc.act_out.shape[1] != layer.out_dim:
        raise ShapeError("cache does not match layer shapes")
    if lc.mask is not None:
        g = g * lc.mask
    act = layer.activation
    if act == "linear":
        return g
    # f'(z) into a fresh array, then times g in place: the bits of g * f'(z)
    # with one temporary fewer (a bool-times-float g * (z > 0) measured slower).
    # relu(z) > 0 is the same boolean as z > 0, NaN included.
    out = lc.act_out
    if act == "relu":
        d = (out > 0.0).astype(float)
    elif act == "sigmoid":
        d = 1.0 - out
        d *= out
    else:  # tanh
        d = out * out
        np.subtract(1.0, d, out=d)
    d *= g
    return d


def backward(net: Mlp, cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """Backpropagate loss_grad (d loss / d output) through the cached pass.

    Returns the parameter gradient as one flat vector in the layout of
    net.params. Batch inputs are summed, so scale loss_grad by 1/batch
    for a mean loss. `input_grad` gives the gradient w.r.t. the input.
    """
    g = _output_grad(net, cache, loss_grad)
    grad = np.empty_like(net.params)
    for i in range(len(net.layers) - 1, -1, -1):
        layer, lc = net.layers[i], cache.layer_caches[i]
        g = _preact_grad(layer, lc, g)
        w, b = net.grad_slices[i]
        np.matmul(g.T, lc.inputs, out=grad[w].reshape(layer.weights.shape))
        g.sum(axis=0, out=grad[b])
        if i:
            g = g @ layer.weights
    return grad


def input_grad(net: Mlp, cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """Backpropagate loss_grad to the network input: d loss / d x.

    This is what chains networks (a generator trained through a
    discriminator); no parameter gradient is formed. The result has the
    shape of the input the cached pass was run on.
    """
    g = _output_grad(net, cache, loss_grad)
    for layer, lc in zip(reversed(net.layers), reversed(cache.layer_caches)):
        g = _preact_grad(layer, lc, g) @ layer.weights
    return g[0] if cache.single else g


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over one vector; grad = 2*(pred-target)/len."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def init_adam(
    params: np.ndarray,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    return AdamState(
        first_moment=np.zeros_like(params),
        second_moment=np.zeros_like(params),
        step_count=0,
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of params, m and v, all in place.

    Each in-place operation reproduces one operation of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g and p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t))
    + eps), in that order, so the result is bit-identical to that formula.
    The temporaries go into state.scratch, so a step allocates nothing.
    """
    m, v = state.first_moment, state.second_moment
    if params.shape != grad.shape or params.shape != m.shape:
        raise ShapeError(
            f"shape mismatch: param {params.shape}, grad {grad.shape}, moment {m.shape}"
        )
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    step, denom = state.scratch
    m *= b1
    np.multiply(grad, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v += step
    np.divide(m, 1.0 - b1**t, out=step)
    np.divide(v, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step *= state.learning_rate
    step /= denom
    params -= step
    state.step_count = t


def fit(net: Mlp, dataset, cfg: TrainConfig) -> tuple[Mlp, list[float]]:
    """Mini-batch Adam training on (histories, futures) pairs.

    `dataset` is anything exposing float matrices `histories` [n, input_dim]
    and `futures` [n, output_dim]. Deterministic given cfg.seed; the input
    net is left untouched and a trained copy is returned. Raises
    NumericError before training when a dataset value is not finite,
    and at the first batch whose loss is not finite.
    """
    x = np.asarray(dataset.histories, dtype=float)
    y = np.asarray(dataset.futures, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"bad dataset shapes {x.shape}, {y.shape}")
    if x.shape[0] == 0:
        raise ConfigError("empty dataset")
    if x.shape[1] != net.input_dim or y.shape[1] != net.output_dim:
        raise ShapeError(
            f"dataset dims ({x.shape[1]}, {y.shape[1]}) != net dims "
            f"({net.input_dim}, {net.output_dim})"
        )
    for name, values in (("histories", x), ("futures", y)):
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise NumericError(f"dataset {name} row {int(bad.argmax())} is not finite")

    trained = net.copy()
    if cfg.epochs == 0:
        return trained, []
    rng = np.random.default_rng(cfg.seed)
    state = init_adam(trained.params, learning_rate=cfg.learning_rate)
    n = x.shape[0]
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            yb = y_epoch[start : start + cfg.batch_size]
            pred, cache = forward(
                trained, x_epoch[start : start + cfg.batch_size], mode="train", rng=rng
            )
            diff = pred - yb
            batch_loss = float((diff * diff).sum()) / yb.shape[1]
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {start // cfg.batch_size} (both 0-based)"
                )
            epoch_loss += batch_loss
            diff *= 2.0
            diff /= yb.size  # now d loss / d pred of the batch mean loss
            adam_step(trained.params, backward(trained, cache, diff), state)
        history.append(epoch_loss / n)
    return trained, history
