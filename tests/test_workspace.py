"""nn.Workspace: training through reused arrays gives the bits of the
fresh-array engine, refuses a workspace or cache of another network, and
allocates nothing of batch size per minibatch step.

The oracle below is the engine as it was before workspaces: forward,
backward and input_grad into fresh arrays on every call, and `fit`'s and
`train_cgan`'s minibatch loops built on them. Of the package it calls
only `adam_step`, the initialisers, `Mlp.copy`, `cgan.PROB_EPS` and, for
the holdout accuracy, `cgan.discriminator_accuracy`. It forms every
product with np.matmul, so it also checks that the engine's np.dot
calls keep np.matmul's bits.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import cgan, nn
from multistep.data import make_windows
from multistep.errors import ShapeError


def oracle_forward(net, x, mode="eval", rng=None):
    """Forward into fresh arrays; the cache is one (inputs, act_out, mask) per layer."""
    a = np.asarray(x, dtype=float)
    caches = []
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        h = a @ layer.weights.T
        h += layer.bias
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        elif layer.activation == "sigmoid":
            np.negative(h, out=h)
            np.exp(h, out=h)
            h += 1.0
            np.divide(1.0, h, out=h)
        elif layer.activation == "tanh":
            np.tanh(h, out=h)
        mask, out = None, h
        if mode == "train" and net.dropout_rate > 0.0 and i < last:
            keep = 1.0 - net.dropout_rate
            mask = (rng.random(h.shape) < keep).astype(float)
            mask /= keep
            out = h * mask
        caches.append((a, h, mask))
        a = out
    return a, caches


def oracle_backprop(net, caches, loss_grad, params):
    """The flat parameter gradient (params=True) or d loss / d input, into
    fresh arrays."""
    g = np.asarray(loss_grad, dtype=float)
    grad = np.empty_like(net.params)
    for i in range(len(net.layers) - 1, -1, -1):
        layer, (inputs, out, mask) = net.layers[i], caches[i]
        if mask is not None:
            g = g * mask
        if layer.activation == "relu":
            d = (out > 0.0).astype(float)
        elif layer.activation == "sigmoid":
            d = 1.0 - out
            d *= out
        elif layer.activation == "tanh":
            d = out * out
            np.subtract(1.0, d, out=d)
        if layer.activation != "linear":
            d *= g
            g = d
        if params:
            w, b = net.grad_slices[i]
            np.matmul(g.T, inputs, out=grad[w].reshape(layer.weights.shape))
            g.sum(axis=0, out=grad[b])
            if i == 0:
                return grad
        g = g @ layer.weights
    return g


def oracle_fit(net, x, y, cfg):
    trained = net.copy()
    rng = np.random.default_rng(cfg.seed)
    state = nn.init_adam(trained.params, learning_rate=cfg.learning_rate)
    n, history = x.shape[0], []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            yb = y_epoch[start : start + cfg.batch_size]
            pred, caches = oracle_forward(
                trained, x_epoch[start : start + cfg.batch_size], "train", rng
            )
            diff = pred - yb
            epoch_loss += float((diff * diff).sum()) / yb.shape[1]
            diff *= 2.0
            diff /= yb.size
            nn.adam_step(trained.params, oracle_backprop(trained, caches, diff, True), state)
        history.append(epoch_loss / n)
    return trained, history


def oracle_train_cgan(data, cfg, holdout=None):
    """train_cgan's loop with concatenated inputs and fresh arrays."""
    p, q = data.p, data.q
    rng = np.random.default_rng(cfg.seed)
    hidden = [cfg.hidden_units] * cfg.hidden_layers
    gen = nn.init_mlp([cfg.noise_dim + q, *hidden, p], dropout_rate=cfg.dropout, rng=rng)
    disc = nn.init_mlp([p + q, *hidden, 1], dropout_rate=cfg.dropout, rng=rng,
                       final_activation="sigmoid")
    g_state = nn.init_adam(gen.params, learning_rate=cfg.lr_generator)
    d_state = nn.init_adam(disc.params, learning_rate=cfg.lr_discriminator)
    lo, hi = cgan.PROB_EPS, 1 - cgan.PROB_EPS  # np.clip bounds of the probabilities
    n, log = len(data), []
    eval_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x60DA)))
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        d_losses, g_losses, acc_hits, acc_total = [], [], 0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            real_h, futures = data.histories[idx], data.futures[idx]
            b = len(idx)
            z = rng.standard_normal((b, cfg.noise_dim))
            fake_h, _ = oracle_forward(gen, np.concatenate([z, futures], axis=1))
            d_real, cache_r = oracle_forward(
                disc, np.concatenate([real_h, futures], axis=1), "train", rng
            )
            d_fake, cache_f = oracle_forward(
                disc, np.concatenate([fake_h, futures], axis=1), "train", rng
            )
            pr, pf = np.clip(d_real, lo, hi), np.clip(d_fake, lo, hi)
            d_loss = float(-np.mean(np.log(pr)) - np.mean(np.log(1.0 - pf)))
            d_grad = oracle_backprop(disc, cache_r, -1.0 / (pr * b), True)
            d_grad += oracle_backprop(disc, cache_f, 1.0 / ((1.0 - pf) * b), True)
            nn.adam_step(disc.params, d_grad, d_state)
            z = rng.standard_normal((b, cfg.noise_dim))
            fake_h, cache_g = oracle_forward(
                gen, np.concatenate([z, futures], axis=1), "train", rng
            )
            d_out, cache_d = oracle_forward(disc, np.concatenate([fake_h, futures], axis=1))
            pg = np.clip(d_out, lo, hi)
            g_loss = float(-np.mean(np.log(pg)))
            dx = oracle_backprop(disc, cache_d, -1.0 / (pg * b), False)
            nn.adam_step(gen.params, oracle_backprop(gen, cache_g, dx[:, :p], True), g_state)
            d_losses.append(d_loss)
            g_losses.append(g_loss)
            acc_hits += int(np.sum(d_real[:, 0] > 0.5)) + int(np.sum(d_fake[:, 0] <= 0.5))
            acc_total += 2 * b
        epoch_acc = acc_hits / acc_total
        if holdout is not None:
            epoch_acc = cgan.discriminator_accuracy(cgan.CganPair(gen, disc), holdout, eval_rng)
        log.append({"d_loss": float(np.mean(d_losses)), "g_loss": float(np.mean(g_losses)),
                    "d_accuracy": epoch_acc})
    return gen, disc, log


class _Pairs:
    def __init__(self, x, y):
        self.histories = x
        self.futures = y


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dims=st.lists(st.integers(1, 7), min_size=2, max_size=4),
    acts=st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=3, max_size=3),
    dropout=st.sampled_from([0.0, 0.3]),
    n=st.integers(1, 40),
    batch=st.integers(1, 16),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_fit_equals_fresh_array_loop_bitwise(dims, acts, dropout, n, batch, epochs, seed):
    rng = np.random.default_rng(seed)
    layers = [nn.Layer(rng.uniform(-1, 1, (o, i)), rng.uniform(-0.5, 0.5, o), act)
              for i, o, act in zip(dims[:-1], dims[1:], acts)]
    net = nn.Mlp(layers, dropout_rate=dropout)
    x, y = rng.uniform(-1, 1, (n, dims[0])), rng.uniform(-1, 1, (n, dims[-1]))
    cfg = nn.TrainConfig(epochs=epochs, batch_size=batch, seed=seed)
    trained, history = nn.fit(net, _Pairs(x, y), cfg)
    expected, expected_history = oracle_fit(net, x, y, cfg)
    assert np.array_equal(trained.params, expected.params)
    assert history == expected_history


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 4),
    q=st.integers(1, 3),
    noise_dim=st.integers(1, 3),
    hidden_layers=st.integers(1, 2),
    hidden_units=st.integers(1, 6),
    batch=st.integers(1, 16),
    length=st.integers(8, 40),
    dropout=st.sampled_from([0.0, 0.25]),
    with_holdout=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_train_cgan_equals_fresh_array_loop_bitwise(
    p, q, noise_dim, hidden_layers, hidden_units, batch, length, dropout, with_holdout, seed,
):
    data = make_windows(np.random.default_rng(seed).uniform(0, 1, length + p + q), p, q)
    holdout = make_windows(np.linspace(0.1, 0.9, p + q + 3), p, q) if with_holdout else None
    cfg = cgan.CganConfig(noise_dim=noise_dim, lr_discriminator=2e-3, lr_generator=1e-3,
                          epochs=2, batch_size=batch, seed=seed, hidden_layers=hidden_layers,
                          hidden_units=hidden_units, dropout=dropout)
    pair = cgan.train_cgan(data, cfg, holdout=holdout)
    gen, disc, log = oracle_train_cgan(data, cfg, holdout=holdout)
    assert np.array_equal(pair.generator.params, gen.params)
    assert np.array_equal(pair.discriminator.params, disc.params)
    assert pair.training_log == log


def test_train_cgan_leaves_dataset_alone():
    data = make_windows(np.random.default_rng(0).uniform(0, 1, 30), 4, 2)
    before = (data.histories.copy(), data.futures.copy())
    cfg = cgan.CganConfig(noise_dim=2, epochs=1, batch_size=7, seed=0, hidden_layers=1,
                          hidden_units=3)
    cgan.train_cgan(data, cfg)
    assert np.array_equal(data.histories, before[0])
    assert np.array_equal(data.futures, before[1])


def _same_bits(a, b):
    """Equal to the last bit, the sign of a zero included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _laid_out(a, layout):
    """`a`'s values in C order, Fortran order or as a column slice."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    wide = np.zeros((a.shape[0], a.shape[1] + 3))
    wide[:, 2 : 2 + a.shape[1]] = a
    return wide[:, 2 : 2 + a.shape[1]]


class TestProductsEqualMatmulOracle:
    """forward, backward and input_grad give the bits of the np.matmul
    oracle whatever the layout of the input and of the loss gradient: C
    order, Fortran order, or a column slice as train_cgan passes the
    generator's gradient. Widths of 1 and 1-row batches are where BLAS
    takes its vector paths."""

    @pytest.mark.parametrize("hidden", [[], [5], [4, 1]], ids=["0-hidden", "1-hidden", "2-hidden"])
    @pytest.mark.parametrize("in_dim, out_dim", [(1, 1), (3, 1), (7, 3)])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("x_layout", ["C", "F", "slice"])
    @pytest.mark.parametrize("g_layout", ["C", "slice"])
    @pytest.mark.parametrize("last", ["linear", "sigmoid"])
    def test_bits(self, hidden, in_dim, out_dim, rows, x_layout, g_layout, last):
        rng = np.random.default_rng([rows, in_dim, out_dim, len(hidden)])
        net = nn.init_mlp([in_dim, *hidden, out_dim], rng=rng, final_activation=last,
                          hidden_activation="tanh")
        x, g = rng.uniform(-1, 1, (rows, in_dim)), rng.uniform(-1, 1, (rows, out_dim))
        x[0, 0], g[0, 0] = 0.0, -0.0  # products of signed zeros
        x, g = _laid_out(x, x_layout), _laid_out(g, g_layout)
        want_out, caches = oracle_forward(net, x)
        out, cache = nn.forward(net, x)
        assert _same_bits(out, want_out)
        assert _same_bits(nn.backward(net, cache, g), oracle_backprop(net, caches, g, True))
        assert _same_bits(nn.input_grad(net, cache, g), oracle_backprop(net, caches, g, False))

    @pytest.mark.parametrize("p, q, noise_dim", [(1, 2, 1), (1, 1, 3), (3, 2, 2)])
    @pytest.mark.parametrize("batch", [1, 5, 16])
    def test_train_cgan_without_hidden_layers(self, p, q, noise_dim, batch):
        """With no hidden layer the generator's weight gradient is the
        sliced loss gradient against its narrow [z | futures] input."""
        data = make_windows(np.random.default_rng(p).uniform(0, 1, 40), p, q)
        cfg = cgan.CganConfig(noise_dim=noise_dim, epochs=2, batch_size=batch, seed=3,
                              hidden_layers=0, hidden_units=4)
        pair = cgan.train_cgan(data, cfg)
        gen, disc, log = oracle_train_cgan(data, cfg)
        assert _same_bits(pair.generator.params, gen.params)
        assert _same_bits(pair.discriminator.params, disc.params)
        assert pair.training_log == log


class TestRefusals:
    @pytest.mark.parametrize("grad_fn", [nn.backward, nn.input_grad])
    @pytest.mark.parametrize("other", [
        lambda net: nn.init_mlp([3, 4, 2], rng=0),
        lambda net: net.copy(),
    ], ids=["same-shape", "copy"])
    def test_cache_of_another_network(self, grad_fn, other):
        net = nn.init_mlp([3, 4, 2], rng=0)
        _, cache = nn.forward(net, np.ones((5, 3)))
        with pytest.raises(ShapeError, match="another network"):
            grad_fn(other(net), cache, np.zeros((5, 2)))
        assert cache.grad is None  # nothing was made or written

    @pytest.mark.parametrize("grad_fn", [nn.backward, nn.input_grad])
    def test_workspace_without_a_pass(self, grad_fn):
        net = nn.init_mlp([3, 4, 2], rng=0)
        workspace = nn.Workspace(net, 5)
        with pytest.raises(ShapeError, match="no forward pass"):
            grad_fn(net, workspace, np.zeros((5, 2)))
        assert workspace.grad is None

    def test_train_mode_workspace_of_another_row_count(self):
        net = nn.init_mlp([3, 4, 2], dropout_rate=0.5, rng=0)
        workspace = nn.Workspace(net, 6)
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="workspace"):
            nn.forward(net, np.ones((5, 3)), mode="train", rng=rng, workspace=workspace)
        assert workspace.dropout_caches is None
        assert rng.random() == np.random.default_rng(0).random()  # no mask was drawn


class TestWorkspaceArrays:
    def test_eval_pass_makes_layer_outputs_alone(self):
        net = nn.init_mlp([3, 5, 4, 2], dropout_rate=0.3, rng=0)
        workspace = nn.Workspace(net, 7)
        out, cache = nn.forward(net, np.ones((7, 3)), workspace=workspace)
        assert [o.shape for o in workspace.outputs] == [(7, 5), (7, 4), (7, 2)]
        assert out is workspace.outputs[-1]
        assert workspace.dropout_caches is None and workspace.grad is None
        assert cache.layer_caches is workspace.caches

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_forward_returns_its_workspace_as_the_cache(self, mode):
        net = nn.init_mlp([3, 5, 2], dropout_rate=0.3, rng=0)
        workspace = nn.Workspace(net, 4)
        _, cache = nn.forward(net, np.ones((4, 3)), mode=mode, rng=np.random.default_rng(0),
                              workspace=workspace)
        assert cache is workspace
        _, fresh = nn.forward(net, np.ones((1, 3)), mode=mode, rng=np.random.default_rng(0))
        assert isinstance(fresh, nn.Workspace) and fresh.net is net and fresh.rows == 1
        with pytest.raises(ShapeError, match="input shape"):  # every pass is a batch
            nn.forward(net, np.ones(3), mode=mode, rng=np.random.default_rng(0))

    def test_train_pass_with_dropout_caches_the_dropout_layers(self):
        net = nn.init_mlp([3, 5, 4, 2], dropout_rate=0.3, rng=0)
        workspace = nn.Workspace(net, 6)
        _, cache = nn.forward(net, np.ones((6, 3)), mode="train", rng=np.random.default_rng(0),
                              workspace=workspace)
        assert cache.layer_caches is workspace.dropout_caches
        _, cache = nn.forward(net, np.ones((6, 3)), workspace=workspace)
        assert cache.layer_caches is workspace.caches  # the next pass is eval: its own

    def test_backward_arrays_are_made_once(self):
        net = nn.init_mlp([3, 5, 2], dropout_rate=0.3, rng=0)
        workspace = nn.Workspace(net, 4)
        rng = np.random.default_rng(1)
        grads = []
        for _ in range(2):
            _, cache = nn.forward(net, np.ones((4, 3)), mode="train", rng=rng,
                                  workspace=workspace)
            grads.append(nn.backward(net, cache, np.ones((4, 2))))
        assert grads[0] is grads[1] is workspace.grad
        masks = [lc.mask for lc in workspace.dropout_caches]
        assert masks[0].shape == (4, 5) and masks[1] is None


def test_fit_step_allocates_no_batch_by_width_array(monkeypatch):
    """After the first epoch, a minibatch step of fit (forward, loss,
    backward, adam_step) allocates no array as large as batch x width.
    Each epoch's first step is exempt: its interval holds the x[order]
    gather of the epoch. NumPy's iterator takes a scratch buffer of up to
    getbufsize() elements for a broadcast operation such as the bias add,
    whatever the caller does; the buffer size is cut to 16 elements here
    so that only arrays count."""
    batch, width, per_epoch = 64, 32, 5
    rng = np.random.default_rng(0)
    n = batch * (per_epoch - 1) + 10  # a remainder batch of 10 rows
    data = _Pairs(rng.uniform(0, 1, (n, 9)), rng.uniform(0, 1, (n, 1)))
    net = nn.init_mlp([9, width, width, 1], dropout_rate=0.2, rng=0)
    marks = []  # (current, peak since the previous step's end) at each step's end
    adam_step = nn.adam_step

    def step(params, grad, state):
        adam_step(params, grad, state)
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    monkeypatch.setattr(nn, "adam_step", step)
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        nn.fit(net, data, nn.TrainConfig(epochs=3, batch_size=batch, seed=0))
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert len(marks) == 3 * per_epoch == 3 * math.ceil(n / batch)
    growth = [marks[k][1] - marks[k - 1][0] for k in range(per_epoch, len(marks))
              if k % per_epoch]
    assert len(growth) == 2 * (per_epoch - 1)
    assert max(growth) < batch * width * 8, growth
