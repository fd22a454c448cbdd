"""Dense feed-forward network core.

Explicit forward/backward passes, inverted dropout and Adam, all in
float64 numpy; `fit` forms the MSE loss and its gradient in place. No
autograd framework: gradients are checked against finite differences of
the test suite's MSE oracle instead.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import schema
from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "linear", "sigmoid", "tanh")
ACTIVATION = schema.OneOf(ACTIVATIONS)
DROPOUT = schema.Real(ge=0, lt=1)  # every net's dropout rate
# the predictor's budget: TrainConfig's and the `model.train` config section's
TRAIN = {
    "epochs": schema.Int(0, default=200),
    "batch_size": schema.Int(1, default=64),
    "learning_rate": schema.Real(gt=0, default=1e-3),
}
# a net's architecture, as `init_net` and the `model` config section take it
ARCH = {
    "hidden_layers": schema.Int(0, default=2),
    "hidden_units": schema.Int(1, default=150),
    "dropout": replace(DROPOUT, default=0.1),
}
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


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


def layer_slices(shapes) -> list[tuple[slice, slice]]:
    """Per layer (weights slice, bias slice) of the flat layout W0, b0, W1,
    b1, ... of layers whose weights have `shapes` [out_dim, in_dim]; the
    last bias slice ends at the layout's size."""
    slices, off = [], 0
    for out_dim, in_dim in shapes:
        w_end = off + out_dim * in_dim
        slices.append((slice(off, w_end), slice(w_end, w_end + out_dim)))
        off = w_end + out_dim
    return slices


@dataclass
class Mlp:
    """A dense network whose parameters live in one flat float64 vector,
    `params`, laid out W0 (row-major), b0, W1, b1, ... Construction copies
    the given layers into that vector and rebuilds them as views of it."""

    layers: list[Layer]
    dropout_rate: float = 0.0
    params: np.ndarray = field(init=False, repr=False)
    # per layer (weights slice, bias slice) of the flat layout, from layer_slices
    grad_slices: list[tuple[slice, slice]] = field(init=False, repr=False, compare=False)
    # per layer (W, W.T, bias, activation, product), planned once for every pass
    plan: list[tuple] = field(init=False, repr=False, compare=False)
    input_dim: int = field(init=False, repr=False, compare=False)
    output_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("Mlp needs at least one layer")
        DROPOUT.check(self.dropout_rate, "dropout_rate")
        for i, layer in enumerate(self.layers):
            ACTIVATION.check(layer.activation, "activation")
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
        self.grad_slices = layer_slices([l.weights.shape for l in self.layers])
        self.layers = [
            Layer(self.params[w].reshape(l.weights.shape), self.params[b], l.activation)
            for (w, b), l in zip(self.grad_slices, self.layers)
        ]
        # np.dot goes straight to cblas, skipping np.matmul's gufunc dispatch,
        # and gives np.matmul's bits, save that it multiplies two 1 x 1
        # operands as scalars: a -0.0 product stays -0.0 where np.matmul's
        # sum makes it +0.0. So a 1 -> 1 layer keeps np.matmul.
        self.plan = [
            (l.weights, l.weights.T, l.bias, l.activation,
             np.matmul if l.weights.shape == (1, 1) else np.dot)
            for l in self.layers
        ]
        self.input_dim = self.layers[0].in_dim
        self.output_dim = self.layers[-1].out_dim

    def copy(self) -> "Mlp":
        return Mlp(list(self.layers), self.dropout_rate)


TrainConfig = schema.record("TrainConfig", TRAIN, seed=schema.Int(0, default=0))
BUDGET = schema.Kind("a TrainConfig", lambda v: isinstance(v, TrainConfig))


@dataclass
class AdamState:
    """Adam's state for the flat vector `params`, like Mlp.params: zero moments at step 0."""

    params: InitVar[np.ndarray]
    learning_rate: float = 1e-3
    step_count: int = field(default=0, init=False)
    first_moment: np.ndarray = field(init=False)
    second_moment: np.ndarray = field(init=False)
    # scratch vectors adam_step writes its temporaries into
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self, params):
        self.first_moment, self.second_moment = np.zeros_like(params), np.zeros_like(params)
        self.scratch = (np.zeros_like(params), np.zeros_like(params))


def init_mlp(
    dims: Sequence[int],
    dropout_rate: float = 0.0,
    *,
    rng: np.random.Generator | int | tuple,
    final_activation: str = "linear",
    hidden_activation: str = "relu",
) -> Mlp:
    """He-style uniform initialization, U(+-sqrt(6/fan_in)), biases zero, drawn from `rng`."""
    if len(dims) < 2:
        raise ConfigError("need at least input and output dims")
    schema.Seq(schema.Int(1), "integers >= 1").check(list(dims), "dims")
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = final_activation if i == len(dims) - 2 else hidden_activation
        layers.append(Layer(w, b, act))
    return Mlp(layers, dropout_rate=dropout_rate)


def init_net(
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator | int | tuple,
    hidden_layers: int = 2,
    hidden_units: int = 150,
    dropout: float = 0.0,
    final_activation: str = "linear",
) -> Mlp:
    """The one architecture of every model: in_dim -> `hidden_layers` relu
    layers (0: none) of `hidden_units` -> out_dim, at dropout rate `dropout`,
    drawn from `rng` (a Generator, or a seed of one)."""
    ARCH["hidden_layers"].check(hidden_layers, "hidden_layers")
    dims = [in_dim, *[hidden_units] * hidden_layers, out_dim]
    return init_mlp(dims, dropout, rng=rng, final_activation=final_activation)


@dataclass(slots=True)
class LayerCache:
    inputs: np.ndarray  # [batch, in_dim]
    act_out: np.ndarray  # [batch, out_dim] activation output before dropout
    mask: np.ndarray | None  # inverted-dropout mask, or None


class Workspace:
    """Every array that passes of `net` over `rows` rows write, and the
    cache of the last pass: its layer caches, which `backward` and
    `input_grad` read.

    The layer outputs and their layer caches are made at construction;
    the dropout masks and dropped outputs by the first train-mode pass
    with dropout; the deltas, input gradients and flat parameter gradient
    by the first backward walk. So an eval-only workspace holds the layer
    outputs alone. `forward`'s output, `backward`'s gradient and
    `input_grad`'s result alias these arrays: the next pass through the
    workspace overwrites them.
    """

    __slots__ = ("net", "rows", "outputs", "caches", "dropout_caches", "dropped", "deltas",
                 "input_grads", "grad", "grad_views", "layer_caches")

    def __init__(self, net: Mlp, rows: int):
        self.net, self.rows = net, rows
        self.outputs = [np.empty((rows, wt.shape[1])) for _, wt, *_ in net.plan]
        # each pass sets layer 0's input; layer i > 0 reads layer i - 1's output
        self.caches = self._layer_caches(self.outputs[:-1], [None] * len(net.plan))
        self.dropout_caches = self.dropped = self.grad = self.layer_caches = None

    def _layer_caches(self, inputs, masks) -> list[LayerCache]:
        return [LayerCache(*c) for c in zip([None, *inputs], self.outputs, masks)]

    def dropout_layer_caches(self) -> list[LayerCache]:
        """The layer caches of a pass with dropout: one mask per hidden
        layer, and layer i > 0 reads layer i - 1's dropped output."""
        if self.dropout_caches is None:
            hidden = self.outputs[:-1]
            self.dropped = [np.empty_like(h) for h in hidden]
            masks = [np.empty_like(h) for h in hidden]
            self.dropout_caches = self._layer_caches(self.dropped, [*masks, None])
        return self.dropout_caches

    def backward_arrays(self):
        """Per layer a delta, d loss / d input and (W, b) views of the gradient."""
        if self.grad is None:
            self.deltas = [np.empty_like(h) for h in self.outputs]
            self.input_grads = [np.empty((self.rows, self.net.input_dim))]
            self.input_grads += [np.empty_like(h) for h in self.outputs[:-1]]
            self.grad = np.empty_like(self.net.params)
            self.grad_views = [
                (self.grad[w].reshape(weights.shape), self.grad[b])
                for (w, b), (weights, *_) in zip(self.net.grad_slices, self.net.plan)
            ]
        return self.deltas, self.input_grads, self.grad_views


def forward(
    net: Mlp,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, Workspace]:
    """Run the network on a [rows, in_dim] batch; any other shape, a 1-D
    vector included, raises ShapeError. One input is a one-row batch.

    Dropout (train mode only) uses inverted scaling and is applied to
    hidden-layer outputs, never to the input or the final layer. Each
    layer applies its activation in place on its pre-activation, so it
    keeps one array.

    Every layer writes into `workspace`, made for this net and row count
    (a fresh one if None); a workspace of another net or row count raises
    ShapeError before anything is written. The workspace, which records
    the pass, is returned as the cache; the output aliases it: the next
    pass through it overwrites both.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} is not [rows, input_dim {net.input_dim}]")
    rows = x.shape[0]
    if workspace is None:
        workspace = Workspace(net, rows)
    elif workspace.net is not net or workspace.rows != rows:
        raise ShapeError(f"workspace is not one of this network over {rows} rows")
    if not np.isfinite(x).all():
        raise NumericError("non-finite input")
    caches = workspace.caches
    if mode == "train" and net.dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("train-mode forward with dropout requires an rng")
        caches = workspace.dropout_layer_caches()
        keep = 1.0 - net.dropout_rate
        scale = 1.0 / keep  # a mask of 0.0 and 1.0 times scale has the bits of mask / keep

    caches[0].inputs = x
    for i, ((_, wt, bias, act, product), lc) in enumerate(zip(net.plan, caches)):
        h = product(lc.inputs, wt, out=lc.act_out)
        h += bias
        # each in-place step is one operation of the textbook formula, so
        # the bits equal max(z, 0), 1 / (1 + exp(-z)) and tanh(z)
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "sigmoid":
            np.negative(h, out=h)
            np.exp(h, out=h)
            h += 1.0
            np.divide(1.0, h, out=h)
        elif act == "tanh":
            np.tanh(h, out=h)
        if lc.mask is not None:  # a hidden layer under dropout
            mask = lc.mask
            rng.random(out=mask)
            np.less(mask, keep, out=mask)
            mask *= scale
            np.multiply(h, mask, out=workspace.dropped[i])
    workspace.layer_caches = caches
    return h, workspace


def _backprop(net: Mlp, cache: Workspace, loss_grad: np.ndarray, params: bool) -> np.ndarray:
    """The one backward walk of the cache's last pass, writing into it.

    With `params`, it forms every layer's parameter gradient and stops at
    layer 0; without, it carries the gradient through layer 0 to the
    input and returns it as a [batch, input_dim] matrix.
    """
    if cache.net is not net:
        raise ShapeError("cache was made by a pass of another network")
    if cache.layer_caches is None:
        raise ShapeError("cache is a workspace that no forward pass has written")
    g = np.asarray(loss_grad, dtype=float)
    if g.shape != (cache.rows, net.output_dim):
        raise ShapeError(f"loss_grad shape {np.shape(loss_grad)} incompatible with output")
    deltas, input_grads, grad_views = cache.backward_arrays()
    # np.dot's weight gradient differs from np.matmul's when an operand is
    # strided (neither C- nor F-contiguous), which only the caller's loss
    # gradient and input can be
    plain = g.flags.forc and cache.layer_caches[0].inputs.flags.forc
    for i in range(len(net.plan) - 1, -1, -1):
        weights, _, _, act, product = net.plan[i]
        lc = cache.layer_caches[i]
        if lc.mask is not None:
            g *= lc.mask  # g is input_grads[i + 1]: the final layer has no mask
        if act != "linear":
            # f'(z) into the delta, then times g: the bits of g * f'(z).
            # relu(z) > 0 is the same boolean as z > 0, NaN included.
            d, out = deltas[i], lc.act_out
            if act == "relu":
                np.greater(out, 0.0, out=d)
            elif act == "sigmoid":
                np.subtract(1.0, out, out=d)
                d *= out
            else:  # tanh
                np.multiply(out, out, out=d)
                np.subtract(1.0, d, out=d)
            d *= g
            g = d
        if params:
            dw, db = grad_views[i]
            (product if plain else np.matmul)(g.T, lc.inputs, out=dw)
            np.add.reduce(g, axis=0, out=db)
            if i == 0:
                break
        g = product(g, weights, out=input_grads[i])
    return g


def backward(net: Mlp, cache: Workspace, loss_grad: np.ndarray) -> np.ndarray:
    """Backpropagate loss_grad (d loss / d output) through the cached pass.

    Returns the parameter gradient as one flat vector in the layout of
    net.params. Batch inputs are summed, so scale loss_grad by 1/batch
    for a mean loss. `input_grad` gives the gradient w.r.t. the input.
    The vector aliases the cache, the workspace `forward` returned: the
    next backward through it overwrites it. The workspace of another
    network, or one that no pass has written, raises ShapeError.
    """
    _backprop(net, cache, loss_grad, params=True)
    return cache.grad


def input_grad(net: Mlp, cache: Workspace, loss_grad: np.ndarray) -> np.ndarray:
    """Backpropagate loss_grad to the network input: d loss / d x.

    This is what chains networks (a generator trained through a
    discriminator); no parameter gradient is formed. The result is a
    [rows, input_dim] matrix, the shape of the cached pass's input, and,
    like `backward`'s, aliases the cache.
    """
    return _backprop(net, cache, loss_grad, params=False)


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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
    denom += ADAM_EPSILON
    step *= state.learning_rate
    step /= denom
    params -= step
    state.step_count = t


def batches(n: int, batch_size: int, make) -> tuple[range, dict]:
    """The starts of `n` rows' minibatches of `batch_size`, and `make(rows)`
    for each of their row counts: the full batch and the remainder."""
    starts = range(0, n, batch_size)
    return starts, {rows: make(rows) for rows in {min(batch_size, n), n - starts[-1]}}


def fit(net: Mlp, dataset, cfg: TrainConfig) -> tuple[Mlp, list[float]]:
    """Mini-batch Adam training on (histories, futures) pairs.

    `dataset` is anything exposing float matrices `histories` [n, input_dim]
    and `futures` [n, output_dim]. Deterministic given cfg.seed; the input
    net is left untouched and a trained copy is returned, trained at
    net.dropout_rate. Raises NumericError before training when a dataset
    value is not finite, and at the first batch whose loss is not finite.
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
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(trained.params, cfg.learning_rate)
    n, bs, q = x.shape[0], cfg.batch_size, y.shape[1]
    # a workspace and the loss's diff and square buffers per batch row count
    starts, work = batches(
        n, bs, lambda rows: (Workspace(trained, rows), np.empty((rows, q)), np.empty((rows, q)))
    )
    # each epoch's shuffled rows, gathered into the same two buffers; no index of
    # the permutation clips, and a take that may raise gathers into a copy first
    x_epoch, y_epoch = np.empty(x.shape), np.empty(y.shape)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(y, order, axis=0, out=y_epoch, mode="clip")
        epoch_loss = 0.0
        for start in starts:
            yb = y_epoch[start : start + bs]
            ws, diff, square = work[yb.shape[0]]
            pred, cache = forward(
                trained, x_epoch[start : start + bs], mode="train", rng=rng, workspace=ws
            )
            np.subtract(pred, yb, out=diff)
            np.multiply(diff, diff, out=square)
            batch_loss = float(np.add.reduce(square, axis=None)) / q
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {start // bs} (both 0-based)"
                )
            epoch_loss += batch_loss
            diff *= 2.0
            diff /= yb.size  # now d loss / d pred of the batch mean loss
            adam_step(trained.params, backward(trained, cache, diff), state)
        history.append(epoch_loss / n)
    return trained, history
