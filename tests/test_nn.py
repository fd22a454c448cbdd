import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import cgan, dad, nn, pipeline, synth
from multistep.errors import ConfigError, NumericError, ShapeError


def mse_loss(pred, target):
    """The gradient checks' oracle: the MSE over every entry of pred, the loss
    `fit` forms in place, and its gradient 2*(pred-target)/size."""
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def matrix_chain_oracle(net, x):
    """Independent eval-mode forward: plain matrix products, no caching."""
    a = np.asarray(x, dtype=float)
    for layer in net.layers:
        z = layer.weights @ a + layer.bias
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "linear":
            a = z
        elif layer.activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = np.tanh(z)
    return a


def finite_difference_grads(net, x, y, h=1e-5):
    """Central-difference gradient of the MSE loss w.r.t. every entry of
    net.params, in the same flat layout."""
    params = net.params
    grad = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        up, _ = mse_loss(nn.forward(net, x)[0], y)
        params[i] = orig - h
        down, _ = mse_loss(nn.forward(net, x)[0], y)
        params[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad


def activation_grad(name, z, out):
    """Elementwise d activation / d pre-activation, as full arrays."""
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "linear":
        return np.ones_like(z)
    if name == "sigmoid":
        return out * (1.0 - out)
    return 1.0 - out * out


def reference_preact(layer, lc):
    """The layer's pre-activation, recomputed from its cached input; the
    cache keeps only the activated output."""
    return lc.inputs @ layer.weights.T + layer.bias


def reference_backward_pairs(net, cache, loss_grad):
    """Per-layer (g.T @ inputs, g.sum(0)) pairs, computed layer by layer
    into fresh arrays: the reference for backward's flat gradient."""
    g = loss_grad
    pairs = []
    for layer, lc in zip(reversed(net.layers), reversed(cache.layer_caches)):
        if lc.mask is not None:
            g = g * lc.mask
        g = g * activation_grad(layer.activation, reference_preact(layer, lc), lc.act_out)
        pairs.append((g.T @ lc.inputs, g.sum(axis=0)))
        g = g @ layer.weights
    pairs.reverse()
    return pairs


def reference_input_grad(net, cache, loss_grad):
    """The chain g = (g * mask * act_grad) @ W over every layer, with full
    mask and activation-gradient arrays: the reference for input_grad."""
    g = loss_grad
    for layer, lc in zip(reversed(net.layers), reversed(cache.layer_caches)):
        mask = lc.mask if lc.mask is not None else np.ones_like(g)
        z = reference_preact(layer, lc)
        g = (g * mask * activation_grad(layer.activation, z, lc.act_out)) @ layer.weights
    return g


def finite_difference_input_grad(net, x, y, mode="eval", seed=None, h=1e-6):
    """Central-difference gradient of the MSE loss w.r.t. the input x. In
    train mode every pass draws its dropout masks from a fresh rng seeded
    with `seed`, so all passes share the masks of one cached pass."""
    def loss(xv):
        rng = None if seed is None else np.random.default_rng(seed)
        return mse_loss(nn.forward(net, xv, mode=mode, rng=rng)[0], y)[0]

    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (loss(x + step) - loss(x - step)) / (2.0 * h)
    return grad


def reference_adam_step(params, grads, state):
    """Pure bias-corrected Adam over lists of arrays: the reference for the
    in-place flat step. `state` is (m list, v list, t, lr, b1, b2, eps)."""
    m_list, v_list, t, lr, b1, b2, eps = state
    t += 1
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_p, (new_m, new_v, t, lr, b1, b2, eps)


def split_like_layers(flat, net):
    """Cut a flat vector into [W0, b0, W1, b1, ...] copies shaped like net's layers."""
    out, off = [], 0
    for layer in net.layers:
        for a in (layer.weights, layer.bias):
            out.append(flat[off : off + a.size].reshape(a.shape).copy())
            off += a.size
    return out


class TestForward:
    def test_zero_net_gives_zero_output(self):
        net = nn.init_mlp([3, 4, 2], rng=0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        out, _ = nn.forward(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        net = nn.Mlp([nn.Layer(np.eye(2), np.zeros(2), "linear")])
        out, _ = nn.forward(net, np.array([[1.5, -2.0]]))
        assert np.array_equal(out, [[1.5, -2.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_chain_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net = nn.init_mlp([4, 7, 3], rng=rng)
        x = rng.standard_normal((1, 4))
        out, _ = nn.forward(net, x)
        assert np.array_equal(out[0], matrix_chain_oracle(net, x[0]))

    def test_eval_is_pure(self):
        net = nn.init_mlp([3, 5, 2], rng=1)
        x = np.array([[0.3, -0.1, 0.7]])
        before = [l.weights.copy() for l in net.layers]
        a, _ = nn.forward(net, x)
        b, _ = nn.forward(net, x)
        assert np.array_equal(a, b)
        for w0, layer in zip(before, net.layers):
            assert np.array_equal(w0, layer.weights)

    def test_shape_and_numeric_errors(self):
        net = nn.init_mlp([3, 2], rng=0)
        with pytest.raises(ShapeError):
            nn.forward(net, np.zeros((1, 4)))
        # every pass is a batch: a 1-D vector is refused, and a workspace
        # given with it is left unwritten
        workspace = filled_workspace(net, 1, fill=7.0)
        for ws in (None, workspace):
            with pytest.raises(ShapeError, match=r"input shape \(3,\)"):
                nn.forward(net, np.zeros(3), workspace=ws)
        assert np.all(workspace.outputs[-1] == 7.0) and workspace.layer_caches is None
        with pytest.raises(NumericError):
            nn.forward(net, np.array([[1.0, np.nan, 0.0]]))

    def test_train_mode_needs_rng_when_dropping(self):
        net = nn.init_mlp([3, 5, 2], dropout_rate=0.5, rng=0)
        with pytest.raises(ConfigError):
            nn.forward(net, np.zeros((1, 3)), mode="train")

    def test_dropout_expectation_matches_eval_for_linear_net(self):
        # Inverted dropout: E over masks of train output == eval output.
        rng = np.random.default_rng(7)
        net = nn.init_mlp([3, 6, 2], dropout_rate=0.4, rng=rng,
                          hidden_activation="linear")
        x = rng.standard_normal((1, 3))
        eval_out, _ = nn.forward(net, x)
        samples = np.array(
            [nn.forward(net, x, mode="train", rng=rng)[0] for _ in range(10_000)]
        )
        mean = samples.mean(axis=0)
        sem = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(mean - eval_out) < 3.0 * sem + 1e-12)


class TestBackward:
    def test_zero_loss_grad_gives_zero_grads(self):
        net = nn.init_mlp([3, 4, 2], rng=0)
        out, cache = nn.forward(net, np.array([[0.1, 0.2, 0.3]]))
        grad = nn.backward(net, cache, np.zeros((1, 2)))
        dx = nn.input_grad(net, cache, np.zeros((1, 2)))
        assert grad.shape == net.params.shape
        assert np.all(grad == 0)
        assert np.all(dx == 0)

    def test_one_layer_linear_hand_arithmetic(self):
        # d loss / d w = 2*(pred - y)*x / out_dim for a 1-output linear layer.
        net = nn.Mlp([nn.Layer(np.array([[0.5, -1.0]]), np.array([0.25]), "linear")])
        x = np.array([[2.0, 3.0]])
        y = np.array([[1.0]])
        pred, cache = nn.forward(net, x)
        loss, lg = mse_loss(pred, y)
        grad = nn.backward(net, cache, lg)
        dw, db = split_like_layers(grad, net)
        expected = 2.0 * (pred[0, 0] - y[0, 0]) * x
        assert np.allclose(dw[0], expected)
        assert np.allclose(db[0], 2.0 * (pred[0, 0] - y[0, 0]))

    @pytest.mark.parametrize("hidden_act", ["relu", "sigmoid", "tanh", "linear"])
    def test_matches_finite_differences(self, hidden_act):
        rng = np.random.default_rng(42)
        net = nn.init_mlp([3, 5, 2], rng=rng, hidden_activation=hidden_act)
        x = rng.standard_normal((1, 3))
        y = rng.standard_normal((1, 2))
        pred, cache = nn.forward(net, x)
        _, lg = mse_loss(pred, y)
        analytic = nn.backward(net, cache, lg)
        numeric = finite_difference_grads(net, x, y)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_stale_cache_rejected(self):
        small = nn.init_mlp([3, 4, 2], rng=0)
        other = nn.init_mlp([3, 6, 2], rng=0)
        _, cache = nn.forward(small, np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            nn.backward(other, cache, np.zeros((1, 2)))
        with pytest.raises(ShapeError, match="loss_grad"):  # a 1-D loss gradient
            nn.backward(small, cache, np.zeros(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_gradient_equals_per_layer_reference(self, seed):
        rng = np.random.default_rng(seed)
        act = ["relu", "sigmoid", "tanh", "linear"][seed]
        net = nn.init_mlp([5, 7, 6, 3], dropout_rate=0.3, rng=rng, hidden_activation=act)
        x = rng.standard_normal((11, 5))
        _, cache = nn.forward(net, x, mode="train", rng=rng)
        loss_grad = rng.standard_normal((11, 3))
        grad = nn.backward(net, cache, loss_grad)
        pairs = reference_backward_pairs(net, cache, loss_grad)
        expected = np.concatenate([a.ravel() for pair in pairs for a in pair])
        assert np.array_equal(grad, expected)



class TestInputGrad:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("hidden_act", ["relu", "sigmoid", "tanh", "linear"])
    def test_matches_finite_differences(self, hidden_act, dropout):
        rng = np.random.default_rng(5)
        net = nn.init_mlp([4, 6, 5, 2], dropout_rate=dropout, rng=rng,
                          hidden_activation=hidden_act)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((3, 2))
        mode, seed = ("train", 9) if dropout else ("eval", None)
        rng_pass = None if seed is None else np.random.default_rng(seed)
        pred, cache = nn.forward(net, x, mode=mode, rng=rng_pass)
        if dropout:
            assert any(lc.mask is not None for lc in cache.layer_caches)
        _, lg = mse_loss(pred, y)
        analytic = nn.input_grad(net, cache, lg)
        numeric = finite_difference_input_grad(net, x, y, mode=mode, seed=seed)
        assert analytic.shape == x.shape
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_layer_chain_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        act = ["relu", "sigmoid", "tanh", "linear"][seed]
        net = nn.init_mlp([5, 7, 6, 3], dropout_rate=0.3, rng=rng, hidden_activation=act,
                          final_activation=["linear", "sigmoid"][seed % 2])
        x = rng.standard_normal((11, 5))
        _, cache = nn.forward(net, x, mode="train", rng=rng)
        loss_grad = rng.standard_normal((11, 3))
        assert np.array_equal(nn.input_grad(net, cache, loss_grad),
                              reference_input_grad(net, cache, loss_grad))

    def test_stale_cache_rejected(self):
        small = nn.init_mlp([3, 4, 2], rng=0)
        other = nn.init_mlp([3, 6, 2], rng=0)
        _, cache = nn.forward(small, np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            nn.input_grad(other, cache, np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            nn.input_grad(small, cache, np.zeros((1, 3)))
        with pytest.raises(ShapeError, match="loss_grad"):  # a 1-D loss gradient
            nn.input_grad(small, cache, np.zeros(2))


def textbook_layers(net, x):
    """Each layer's activated output from z = x @ W.T + b and the textbook
    activation formulas, into fresh arrays: the reference for the in-place
    activations of an eval-mode forward."""
    a, outs = np.asarray(x, dtype=float), []
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "linear":
            a = z
        elif layer.activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = np.tanh(z)
        outs.append(a)
    return outs


def random_net(rng, dims, dropout_rate=0.0):
    """A net of the given dims whose every layer draws its activation."""
    layers = [nn.Layer(rng.uniform(-2, 2, (o, i)), rng.uniform(-1, 1, o),
                       str(rng.choice(nn.ACTIVATIONS)))
              for i, o in zip(dims[:-1], dims[1:])]
    return nn.Mlp(layers, dropout_rate=dropout_rate)


def filled_workspace(net, rows, fill=np.nan):
    """A workspace whose layer outputs all hold `fill`, so a layer that
    skipped its write would show."""
    workspace = nn.Workspace(net, rows)
    for out in workspace.outputs:
        out.fill(fill)
    return workspace


class TestInPlaceForward:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9))
    def test_activations_equal_textbook_formulas(self, seed, rows):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 8, size=rng.integers(2, 5))]
        net = random_net(rng, dims)
        x = rng.standard_normal((rows, dims[0])) * 3.0
        out, cache = nn.forward(net, x)
        expected = textbook_layers(net, x)
        assert np.array_equal(out, expected[-1])
        for lc, act_out in zip(cache.layer_caches, expected):
            assert np.array_equal(lc.act_out, act_out)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("seed", range(4))
    def test_buffers_equal_fresh_arrays(self, mode, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, [5, 7, 6, 3], dropout_rate=0.3)
        x = rng.standard_normal((11, 5))
        fresh, fresh_cache = nn.forward(net, x, mode=mode, rng=np.random.default_rng(9))
        workspace = filled_workspace(net, 11)
        out, cache = nn.forward(net, x, mode=mode, rng=np.random.default_rng(9),
                                workspace=workspace)
        assert np.array_equal(out, fresh)
        for lc, ref in zip(cache.layer_caches, fresh_cache.layer_caches):
            assert np.array_equal(lc.inputs, ref.inputs)
            assert np.array_equal(lc.act_out, ref.act_out)
            assert (lc.mask is None) == (ref.mask is None)
            if lc.mask is not None:
                assert np.array_equal(lc.mask, ref.mask)
        assert any(lc.mask is not None for lc in cache.layer_caches) == (mode == "train")
        assert cache.net is net and cache is workspace
        assert fresh_cache is not workspace
        for lc, buf in zip(cache.layer_caches, workspace.outputs):
            assert lc.act_out is buf
        # the outputs alias the workspace: the next pass through it overwrites them
        again, _ = nn.forward(net, -x, mode=mode, rng=np.random.default_rng(9),
                              workspace=workspace)
        if mode == "eval":
            assert out is again is workspace.outputs[-1]
        assert np.array_equal(again, nn.forward(net, -x, mode=mode,
                                                rng=np.random.default_rng(9))[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_from_buffered_cache_equal_reference(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, [5, 7, 6, 3], dropout_rate=0.3)
        x = rng.standard_normal((11, 5))
        workspace = filled_workspace(net, 11)
        _, cache = nn.forward(net, x, mode="train", rng=rng, workspace=workspace)
        loss_grad = rng.standard_normal((11, 3))
        pairs = reference_backward_pairs(net, cache, loss_grad)
        expected = np.concatenate([a.ravel() for pair in pairs for a in pair])
        grad = nn.backward(net, cache, loss_grad)
        assert np.array_equal(grad, expected)
        assert grad is workspace.grad  # the gradient aliases the workspace
        dx = nn.input_grad(net, cache, loss_grad)
        assert np.array_equal(dx, reference_input_grad(net, cache, loss_grad))
        assert dx is workspace.input_grads[0]
        assert np.array_equal(grad, expected)  # input_grad leaves the gradient alone

    def test_relu_gradient_of_zero_preactivation_is_zero(self):
        # z == 0 exactly: relu'(0) is taken as 0, as from z > 0
        net = nn.Mlp([nn.Layer(np.array([[1.0], [-1.0]]), np.zeros(2), "relu"),
                      nn.Layer(np.ones((1, 2)), np.zeros(1), "linear")])
        _, cache = nn.forward(net, np.array([[0.0], [2.0]]))
        assert np.array_equal(nn.input_grad(net, cache, np.ones((2, 1))), [[0.0], [1.0]])

    @pytest.mark.parametrize("bad", [
        lambda net: nn.Workspace(nn.init_mlp([3, 2], rng=0), 4),
        lambda net: nn.Workspace(nn.init_mlp([3, 6, 2, 2], rng=0), 4),
        lambda net: nn.Workspace(net, 5),
        lambda net: nn.Workspace(nn.init_mlp([3, 5, 2], rng=0), 4),
        lambda net: nn.Workspace(nn.init_mlp([3, 6, 2], rng=0), 4),
        lambda net: nn.Workspace(net.copy(), 4),
    ], ids=["too-few", "too-many", "rows", "columns", "same-dims", "copy"])
    def test_bad_buffers_rejected_before_any_write(self, bad):
        net = nn.init_mlp([3, 6, 2], rng=0)
        workspace = bad(net)
        for out in workspace.outputs:
            out.fill(7.0)
        with pytest.raises(ShapeError, match="workspace"):
            nn.forward(net, np.ones((4, 3)), workspace=workspace)
        for out in workspace.outputs:
            assert np.all(out == 7.0)
        assert workspace.dropout_caches is None and workspace.grad is None


class TestMseLoss:
    """The oracle's own checks."""

    def test_identity_case(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_arithmetic(self):
        loss, grad = mse_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == 2.5
        assert np.array_equal(grad, [1.0, 2.0])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
    )
    def test_swap_symmetry(self, a, b):
        a = np.array(a)
        b = np.array(b[: len(a)])
        la, ga = mse_loss(a, b)
        lb, gb = mse_loss(b, a)
        assert la == lb
        assert np.array_equal(ga, -gb)


class TestAdam:
    def test_state_starts_with_zero_moments_of_the_params_shape(self):
        params = np.arange(5.0)
        state = nn.AdamState(params, learning_rate=0.5)
        for moment in (state.first_moment, state.second_moment, *state.scratch):
            assert moment.shape == params.shape and not moment.any()
            assert not np.shares_memory(moment, params)
        assert (state.step_count, state.learning_rate) == (0, 0.5)

    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        before = params.copy()
        state = nn.AdamState(params)
        nn.adam_step(params, np.zeros(2), state)
        assert np.array_equal(params, before)
        assert state.step_count == 1

    def test_first_step_hand_computation(self):
        # Bias correction makes the first step ~ lr * sign(grad).
        params = np.array([1.0])
        state = nn.AdamState(params, learning_rate=1e-3)
        nn.adam_step(params, np.array([0.5]), state)
        expected = 1.0 - 1e-3 * 0.5 / (0.5 + 1e-8)
        assert np.allclose(params[0], expected)
        assert params[0] == pytest.approx(0.999, abs=1e-6)

    def test_constant_gradient_monotone_decrease(self):
        params = np.array([1.0])
        state = nn.AdamState(params, learning_rate=1e-2)
        grad = np.array([0.3])
        values = [params[0]]
        for _ in range(2):
            nn.adam_step(params, grad, state)
            values.append(params[0])
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch(self):
        state = nn.AdamState(np.zeros(2))
        with pytest.raises(ShapeError):
            nn.adam_step(np.zeros(2), np.zeros(3), state)

    def test_in_place_step_equals_list_reference_bitwise(self):
        rng = np.random.default_rng(11)
        net = nn.init_mlp([4, 9, 7, 2], rng=rng)
        ref_params = split_like_layers(net.params, net)
        state = nn.AdamState(net.params, learning_rate=3e-3)
        ref_state = ([np.zeros_like(p) for p in ref_params],
                     [np.zeros_like(p) for p in ref_params], 0, 3e-3, 0.9, 0.999, 1e-8)
        for _ in range(50):
            grad = rng.standard_normal(net.params.size) * rng.uniform(1e-3, 1e2)
            nn.adam_step(net.params, grad, state)
            ref_params, ref_state = reference_adam_step(
                ref_params, split_like_layers(grad, net), ref_state
            )
        ref_p, ref_m, ref_v = (np.concatenate([a.ravel() for a in arrays])
                               for arrays in (ref_params, ref_state[0], ref_state[1]))
        assert np.array_equal(net.params, ref_p)
        assert np.array_equal(state.first_moment, ref_m)
        assert np.array_equal(state.second_moment, ref_v)
        assert state.step_count == ref_state[2] == 50


class TestFlatParameters:
    def test_layer_arrays_are_views_of_params(self):
        net = nn.init_mlp([3, 5, 4, 2], rng=0)
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        assert net.params.size == sum(l.weights.size + l.bias.size for l in net.layers)
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.bias, net.params)
        net.params[:] = np.arange(net.params.size)
        w0 = net.layers[0].weights
        assert w0[0, 0] == 0.0 and w0[1, 0] == 3.0  # row-major W0 first
        assert net.layers[0].bias[0] == w0.size  # then b0

    def test_copy_shares_no_memory(self):
        net = nn.init_mlp([3, 5, 2], rng=1)
        twin = net.copy()
        assert np.array_equal(twin.params, net.params)
        arrays = [twin.params] + [a for l in twin.layers for a in (l.weights, l.bias)]
        assert not any(np.shares_memory(a, net.params) for a in arrays)

    def test_construction_leaves_caller_layers_alone(self):
        w, b = np.array([[1.0, 2.0]]), np.array([0.5])
        layer = nn.Layer(w, b, "linear")
        net = nn.Mlp([layer])
        assert layer.weights is w and layer.bias is b
        assert net.layers[0] is not layer
        assert not np.shares_memory(w, net.params)
        assert not np.shares_memory(b, net.params)
        net.params[:] = 0.0
        assert w.tolist() == [[1.0, 2.0]] and b.tolist() == [0.5]

    def test_layer_arrays_cannot_be_rebound(self):
        net = nn.init_mlp([2, 1], rng=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.layers[0].weights = np.zeros((1, 2))

    def test_layer_slices_walk_the_flat_layout(self):
        assert nn.layer_slices([(5, 3), (4, 5), (2, 4)]) == [
            (slice(0, 15), slice(15, 20)), (slice(20, 40), slice(40, 44)),
            (slice(44, 52), slice(52, 54)),
        ]
        net = nn.init_mlp([3, 5, 4, 2], rng=0)
        assert net.grad_slices == nn.layer_slices([(5, 3), (4, 5), (2, 4)])
        assert net.grad_slices[-1][1].stop == net.params.size


class TestBatches:
    @pytest.mark.parametrize("n, batch_size, starts, rows", [
        (5, 8, [0], [5]),  # n < batch: one short batch
        (12, 4, [0, 4, 8], [4]),  # n = k * batch: no remainder
        (14, 4, [0, 4, 8, 12], [4, 2]),  # n = k * batch + r
        (1, 1, [0], [1]),
    ])
    def test_starts_and_one_make_per_row_count(self, n, batch_size, starts, rows):
        made = []
        got, work = nn.batches(n, batch_size, lambda r: made.append(r) or ("work", r))
        assert list(got) == starts
        assert sorted(work) == sorted(made) == sorted(rows)
        assert all(work[r] == ("work", r) for r in rows)
        assert all(min(batch_size, n - s) in work for s in got)


class _Pairs:
    def __init__(self, x, y):
        self.histories = x
        self.futures = y


class TestIntegerFields:
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [64.5, 2.0, "2", True, None])
    def test_train_config_refuses_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            nn.TrainConfig(**{field: value})

    def test_train_config_takes_numpy_integers(self):
        cfg = nn.TrainConfig(epochs=np.int64(3), batch_size=np.int32(8))
        assert cfg.epochs == 3 and cfg.batch_size == 8

    @pytest.mark.parametrize("dims", [[3, 0, 1], [0, 2], [3, -1, 1], [3, 2.0, 1],
                                      [3, True, 1], [3, "4", 1]])
    def test_init_mlp_refuses_bad_dims(self, dims):
        with pytest.raises(ConfigError, match="dims must be integers >= 1"):
            nn.init_mlp(dims, rng=0)

    @pytest.mark.parametrize("layers", [1.5, -1, 2.0, True, "2"])
    def test_hidden_dims_refuses_bad_layer_counts(self, layers):
        with pytest.raises(ConfigError, match="hidden_layers must be an integer >= 0"):
            nn.init_net(3, 1, 0, hidden_layers=layers, hidden_units=4)

    def test_hidden_dims_zero_is_no_hidden_layer(self):
        def dims(net):
            return [net.input_dim] + [layer.out_dim for layer in net.layers]

        assert dims(nn.init_net(3, 1, 0, hidden_layers=0, hidden_units=4)) == [3, 1]
        two = nn.init_net(3, 1, 0, hidden_layers=np.int64(2), hidden_units=4)
        assert dims(two) == [3, 4, 4, 1]

    def test_init_net_is_init_mlp_of_its_widths(self):
        net = nn.init_net(3, 2, (7, 1), hidden_layers=2, hidden_units=5, dropout=0.3,
                          final_activation="sigmoid")
        ref = nn.init_mlp([3, 5, 5, 2], dropout_rate=0.3, rng=np.random.default_rng((7, 1)),
                          final_activation="sigmoid")
        assert np.array_equal(net.params, ref.params) and net.dropout_rate == 0.3
        assert [l.activation for l in net.layers] == [l.activation for l in ref.layers]

    def test_init_mlp_has_no_unseeded_default(self):
        with pytest.raises(TypeError):
            nn.init_mlp([2, 1])


def dad_config(**fields):
    return dad.DadConfig(p=2, n_steps=2, meta_iterations=1, inner_train=nn.TrainConfig(),
                         base_train=nn.TrainConfig(), **fields)


def run_config(strategy, dotted: dict):
    """A minimal run config of `strategy` with each dotted key of `dotted` set."""
    cfg = {"data": {"split": synth.split(20, n_val=10)}, "model": {"strategy": strategy}}
    for key, value in dotted.items():
        *path, leaf = key.split(".")
        node = cfg
        for name in path:
            node = node.setdefault(name, {})
        node[leaf] = value
    return cfg


class TestConfigFields:
    @pytest.mark.parametrize("build, field, value", [
        (nn.TrainConfig, "seed", 1.5), (nn.TrainConfig, "seed", -1),
        (nn.TrainConfig, "seed", True), (nn.TrainConfig, "seed", None),
        (cgan.CganConfig, "seed", -1), (cgan.CganConfig, "seed", 2.0),
        (cgan.CganConfig, "dropout", 1.5), (cgan.CganConfig, "dropout", -0.1),
        (cgan.CganConfig, "hidden_units", 0), (cgan.CganConfig, "hidden_layers", -1),
        (cgan.CganConfig, "hidden_layers", 1.0),
        (dad_config, "hidden_units", 0), (dad_config, "hidden_units", True),
        (dad_config, "hidden_layers", 2.0),
    ])
    def test_bad_field_is_named(self, build, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            build(**{field: value})

    def test_valid_fields_build(self):
        nn.TrainConfig(seed=0)
        nn.TrainConfig(seed=np.uint32(2**32 - 1))
        cgan.CganConfig(seed=3, dropout=0.5, hidden_layers=0, hidden_units=1)
        dad_config(hidden_layers=0, hidden_units=np.int64(3))
        pipeline.resolve_config(run_config("dad", {"dad": {"n_steps": 2}}))
        pipeline.resolve_config(run_config("multi-cgan", {"cgan": {}}))

    @pytest.mark.parametrize("strategy, key, value", [
        ("dad", "model.hidden_units", 0), ("multi", "data.q", 0), ("dad", "model.train", []),
        ("dad", "dad", [8]), ("multi-cgan", "cgan", [8]),
    ])
    def test_bad_run_key_is_named_by_train(self, strategy, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
            pipeline.train(run_config(strategy, {key: value}), np.zeros(20), np.zeros(10))


class TestOneArchitecture:
    """Every config field is one that the config file can set and a reader reads."""

    def test_train_config_is_the_budget_alone(self):
        assert {f.name for f in dataclasses.fields(nn.TrainConfig)} == set(nn.TRAIN) | {"seed"}

    def test_cgan_config_is_its_section_its_nets_and_a_seed(self):
        fields = {f.name for f in dataclasses.fields(cgan.CganConfig)}
        assert fields == set(cgan.SECTION) | set(nn.ARCH) | {"seed"}

    @pytest.mark.parametrize("key", nn.ARCH)
    def test_every_arch_key_is_configured_and_built(self, key):
        for holder in (dad.DadConfig, cgan.CganConfig):
            assert key in {f.name for f in dataclasses.fields(holder)}
        assert key in pipeline.CONFIG["model"].rows
        assert key in inspect.signature(nn.init_net).parameters

    def test_dad_config_is_its_section_its_net_and_its_run(self):
        fields = {f.name for f in dataclasses.fields(dad.DadConfig)}
        assert fields == (set(dad.SECTION) - {"inner_epochs"} | set(nn.ARCH)
                          | {"p", "conditional", "inner_train", "base_train"})

    def test_defaults_that_differ_from_the_tables(self):
        defaults = {(r.__name__, f.name): f.default for r in (cgan.CganConfig, dad.DadConfig)
                    for f in dataclasses.fields(r)}
        assert nn.ARCH["dropout"].default == 0.1
        assert defaults["CganConfig", "dropout"] == defaults["DadConfig", "dropout"] == 0.0
        for required in [("DadConfig", "n_steps"), ("DadConfig", "meta_iterations")]:
            assert defaults[required] is dataclasses.MISSING


class TestFit:
    def test_zero_epochs_returns_net_unchanged(self):
        net = nn.init_mlp([2, 3, 1], rng=0)
        data = _Pairs(np.zeros((4, 2)), np.zeros((4, 1)))
        trained, history = nn.fit(net, data, nn.TrainConfig(epochs=0, seed=0))
        assert history == []
        for a, b in zip(net.layers, trained.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(128, 1))
        data = _Pairs(x, 2.0 * x)
        net = nn.init_mlp([1, 1], rng=1)
        cfg = nn.TrainConfig(epochs=200, batch_size=16, seed=2, learning_rate=0.05)
        trained, history = nn.fit(net, data, cfg)
        assert len(history) == 200
        assert history[-1] < 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(60, 3))
        data = _Pairs(x, x[:, :1] + x[:, 1:2])
        net = nn.init_mlp([3, 8, 1], dropout_rate=0.1, rng=4)
        cfg = nn.TrainConfig(epochs=5, batch_size=8, seed=5)
        a, _ = nn.fit(net, data, cfg)
        b, _ = nn.fit(net, data, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_empty_dataset_rejected(self):
        net = nn.init_mlp([2, 1], rng=0)
        with pytest.raises(ConfigError):
            nn.fit(net, _Pairs(np.zeros((0, 2)), np.zeros((0, 1))), nn.TrainConfig())

    @pytest.mark.parametrize("name, value", [("histories", np.inf), ("futures", np.nan)])
    def test_non_finite_dataset_named_before_training(self, name, value):
        arrays = {"histories": np.zeros((6, 2)), "futures": np.zeros((6, 1))}
        arrays[name][4, 0] = value
        net = nn.init_mlp([2, 4, 1], rng=0)
        cfg = nn.TrainConfig(epochs=1, batch_size=4, seed=0)
        with pytest.raises(NumericError, match=rf"^dataset {name} row 4 is not finite$"):
            nn.fit(net, _Pairs(arrays["histories"], arrays["futures"]), cfg)

    def test_divergence_raises_naming_epoch_and_batch(self):
        net = nn.init_mlp([2, 4, 1], rng=0)
        data = _Pairs(np.full((8, 2), 1e155), np.zeros((8, 1)))
        cfg = nn.TrainConfig(epochs=3, batch_size=4, seed=0)
        with (pytest.raises(NumericError, match=r"epoch 0, batch 0"),
              pytest.warns(RuntimeWarning, match="overflow")):
            nn.fit(net, data, cfg)

    def test_divergence_reports_later_batch(self):
        # One finite batch, then rows large enough to overflow the loss.
        x = np.concatenate([np.zeros((4, 1)), np.full((4, 1), 1e200)])
        data = _Pairs(x, np.zeros((8, 1)))
        net = nn.Mlp([nn.Layer(np.ones((1, 1)), np.zeros(1), "linear")])
        cfg = nn.TrainConfig(epochs=2, batch_size=4, seed=0)
        order = np.random.default_rng(0).permutation(8)
        first_bad = min(i for i, row in enumerate(order) if row >= 4) // 4
        with (pytest.raises(NumericError, match=rf"epoch 0, batch {first_bad}"),
              pytest.warns(RuntimeWarning, match="overflow")):
            nn.fit(net, data, cfg)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradcheck_random_nets(seed):
    rng = np.random.default_rng(seed)
    dims = [3, int(rng.integers(2, 6)), 2]
    act = str(rng.choice(["relu", "sigmoid", "tanh"]))
    net = nn.init_mlp(dims, rng=rng, hidden_activation=act)
    x = rng.standard_normal((1, dims[0]))
    y = rng.standard_normal((1, dims[-1]))
    pred, cache = nn.forward(net, x)
    _, lg = mse_loss(pred, y)
    analytic = nn.backward(net, cache, lg)
    numeric = finite_difference_grads(net, x, y)
    scale = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-4
