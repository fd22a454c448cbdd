import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import dad, nn, serialize, strategies as stg
from multistep.data import WindowedDataset, make_windows
from multistep.errors import ConfigError, ShapeError


def linear_net(weights, bias=None):
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=float)
    return nn.Mlp([nn.Layer(w, b, "linear")])


def select_last_net(p):
    """f(history) = history[-1]."""
    w = np.zeros((1, p))
    w[0, -1] = 1.0
    return linear_net(w)


def serve(model, history, n_steps):
    """One history [p] through the uniform batch predictor."""
    return stg.batch_predictor(model, n_steps)(np.asarray(history, dtype=float)[None, :])[0]


def loop_rollout(net, histories, n_steps, step_scale=None):
    """Rollout with a fresh window and step column every step, built by
    concatenation: the oracle for the buffered `rollout`."""
    window = np.asarray(histories, dtype=float).copy()
    m = window.shape[0]
    preds = np.empty((m, n_steps))
    for n in range(1, n_steps + 1):
        if step_scale is None:
            inp = window
        else:
            v = np.full((m, 1), (n - 1) / step_scale)
            inp = np.concatenate([window, v], axis=1)
        out, _ = nn.forward(net, inp, mode="eval")
        preds[:, n - 1] = out[:, 0]
        window = np.concatenate([window[:, 1:], out], axis=1)
    return preds


class TestRollout:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 9),
        p=st.integers(1, 6),
        n_steps=st.integers(1, 8),
        step_scale=st.one_of(st.none(), st.integers(1, 8)),
        activations=st.lists(st.sampled_from(nn.ACTIVATIONS), max_size=3),
        final=st.sampled_from(nn.ACTIVATIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_loop_oracle_bitwise(self, m, p, n_steps, step_scale, activations,
                                        final, seed):
        rng = np.random.default_rng(seed)
        dims = [p if step_scale is None else p + 1]
        dims += [int(d) for d in rng.integers(1, 7, size=len(activations))] + [1]
        layers = [nn.Layer(rng.uniform(-1.5, 1.5, (o, i)), rng.uniform(-0.5, 0.5, o), act)
                  for i, o, act in zip(dims[:-1], dims[1:], [*activations, final])]
        net = nn.Mlp(layers)
        histories = rng.uniform(-1, 1, (m, p))
        before = histories.copy()
        got = stg.rollout(net, histories, n_steps, step_scale)
        assert np.array_equal(got, loop_rollout(net, before, n_steps, step_scale))
        assert np.array_equal(histories, before)

    def test_wrong_history_width_rejected(self):
        net = linear_net([[0.5, 0.1]])  # input_dim 2
        assert stg.rollout(net, np.ones((3, 1)), 2, step_scale=2).shape == (3, 2)
        with pytest.raises(ShapeError, match="dims"):
            stg.rollout(net, np.ones((3, 2)), 2, step_scale=2)
        with pytest.raises(ShapeError, match="dims"):
            stg.rollout(net, np.ones((3, 1)), 2)
        with pytest.raises(ShapeError):
            stg.rollout(linear_net(np.zeros((1, 0))), np.ones((3, 0)), 2)

    def test_multi_output_net_rejected(self):
        with pytest.raises(ShapeError, match="dims"):
            stg.rollout(linear_net(np.ones((2, 2))), np.ones((3, 2)), 1)

    @pytest.mark.parametrize("n_steps, step_scale, name", [
        (0, None, "n_steps"), (2.5, None, "n_steps"), ("3", None, "n_steps"),
        (True, None, "n_steps"), (2, 0, "step_scale"), (2, 1.5, "step_scale"),
        (2, -1, "step_scale"),
    ])
    def test_bad_step_argument_is_named(self, n_steps, step_scale, name):
        net = linear_net([[0.5, 0.1]])  # input_dim 2: a rollout of width 1 + step
        with pytest.raises(ConfigError, match=f"^{name} must be an integer >= 1"):
            stg.rollout(net, np.ones((3, 1)), n_steps, step_scale)


class TestRecursive:
    def test_identity_on_last_is_fixed_point(self):
        model = stg.RecursiveModel(select_last_net(4), p=4)
        assert np.array_equal(serve(model, [1.0, 2, 3, 7], 5), [7, 7, 7, 7, 7])

    def test_scalar_halving_unrolls(self):
        model = stg.RecursiveModel(linear_net([[0.5]]), p=1)
        assert np.allclose(serve(model, [1.0], 3), [0.5, 0.25, 0.125])

    @pytest.mark.parametrize("seed", range(5))
    def test_composition_oracle_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        p, n_steps = 4, 9
        net = nn.init_mlp([p, 6, 1], rng=rng)
        history = rng.uniform(0, 1, p)
        model = stg.RecursiveModel(net, p=p)
        got = serve(model, history, n_steps)
        # independent hand-managed window
        window = list(history)
        expected = []
        for _ in range(n_steps):
            out, _ = nn.forward(net, np.array([window]))
            expected.append(out[0, 0])
            window = window[1:] + [out[0, 0]]
        assert np.array_equal(got, expected)


class TestRecursiveAug:
    def test_zero_step_weight_reduces_to_plain(self):
        rng = np.random.default_rng(3)
        p = 3
        plain = nn.init_mlp([p, 5, 1], rng=rng)
        # same weights plus a zeroed column for the step input
        aug_layers = [
            nn.Layer(
                np.concatenate([plain.layers[0].weights, np.zeros((5, 1))], axis=1),
                plain.layers[0].bias.copy(),
                plain.layers[0].activation,
            ),
            nn.Layer(
                plain.layers[1].weights.copy(),
                plain.layers[1].bias.copy(),
                plain.layers[1].activation,
            ),
        ]
        aug = stg.RecursiveModel(nn.Mlp(aug_layers), p=p, max_step=6)
        base = stg.RecursiveModel(plain, p=p)
        h = rng.uniform(0, 1, p)
        assert np.array_equal(serve(aug, h, 6), serve(base, h, 6))

    def test_manual_unrolling_with_step_term(self):
        # f([x, v]) = 0.5 x + 0.1 v with step feature v = (n-1)/max_step = 0, 0.5
        net = linear_net([[0.5, 0.1]])
        model = stg.RecursiveModel(net, p=1, max_step=2)
        assert np.allclose(serve(model, [1.0], 2), [0.5, 0.3])

    def test_serves_up_to_its_trained_depth(self):
        model = stg.RecursiveModel(linear_net([[0.5, 0.1]]), p=1, max_step=4)
        assert serve(model, [1.0], 4).shape == (4,)
        assert serve(model, [1.0], 1).shape == (1,)

    def test_past_trained_depth_rejected(self):
        model = stg.RecursiveModel(linear_net([[0.5, 0.1]]), p=1, max_step=4)
        with pytest.raises(ConfigError, match="depth 4"):
            stg.batch_predictor(model, 5)

    def test_unknown_trained_depth_rejected(self):
        # a step input without the depth it was scaled by is refused on load
        model = stg.RecursiveModel(linear_net([[0.5]]), p=1)
        doc = serialize.model_to_doc(model, {"strategy_tag": "cdad"})
        doc["metadata"]["time_step_augmented"] = True
        with pytest.raises(ConfigError, match="metadata.max_step None disagrees"):
            serialize.model_from_doc(doc)


def tiny_windows(n=40, p=3, q=4, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 1, n)
    return make_windows(values, p, q)


class TestDirect:
    def test_horizon_one_matches_single_model(self):
        data = tiny_windows(q=1)
        cfg = nn.TrainConfig(epochs=3, batch_size=8, seed=1)
        for hybrid in (False, True):
            ms = stg.train_direct(data, cfg, hybrid=hybrid, hidden_layers=1, hidden_units=4)
            assert ms.q == 1
            assert ms.models[0].input_dim == data.p

    def test_hybrid_input_dims_grow(self):
        data = tiny_windows(p=4, q=3)
        cfg = nn.TrainConfig(epochs=2, batch_size=8, seed=1)
        ms = stg.train_direct(data, cfg, hybrid=True, hidden_layers=1, hidden_units=4)
        assert [m.input_dim for m in ms.models] == [4, 5, 6]

    def test_non_hybrid_models_independent(self):
        data = tiny_windows(q=3)
        cfg = nn.TrainConfig(epochs=3, batch_size=8, seed=2)
        full = stg.train_direct(data, cfg, hidden_layers=1, hidden_units=4)
        # retraining only step 2's data leaves other steps' models unchanged:
        # train a fresh set where the step-2 targets are perturbed
        futures = data.futures.copy()
        futures[:, 1] += 0.5
        other = stg.train_direct(
            WindowedDataset(data.histories, futures, data.p, data.q),
            cfg,
            hidden_layers=1,
            hidden_units=4,
        )
        for h in (0, 2):
            for la, lb in zip(full.models[h].layers, other.models[h].layers):
                assert np.array_equal(la.weights, lb.weights)
        assert not all(
            np.array_equal(la.weights, lb.weights)
            for la, lb in zip(full.models[1].layers, other.models[1].layers)
        )

    @pytest.mark.parametrize("hybrid", ["yes", 1, None])
    def test_bad_hybrid_refused_before_any_fit(self, monkeypatch, hybrid):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(stg, "fit", no_fit)
        cfg = nn.TrainConfig(epochs=1, batch_size=8, seed=1)
        with pytest.raises(ConfigError, match="^hybrid must be true or false"):
            stg.train_direct(tiny_windows(q=2), cfg, hybrid=hybrid)

    def test_zero_models_predict_zero(self):
        nets = [linear_net(np.zeros((1, 3))) for _ in range(4)]
        ms = stg.DirectModelSet(nets, q=4, p=3)
        assert np.array_equal(serve(ms, np.ones(3), None), np.zeros(4))

    def test_hybrid_manual_two_stage(self):
        # model1: f1(x) = 2x ; model2: f2(x, p1) = x + 3 p1 -> [2x, 7x]
        m1 = linear_net([[2.0]])
        m2 = linear_net([[1.0, 3.0]])
        ms = stg.DirectModelSet([m1, m2], q=2, p=1, hybrid=True)
        assert np.allclose(serve(ms, [1.0], None), [2.0, 7.0])
        assert np.allclose(serve(ms, [2.0], None), [4.0, 14.0])


class TestMultiOutput:
    def test_zero_net_predicts_zero(self):
        net = nn.Mlp([nn.Layer(np.zeros((4, 3)), np.zeros(4), "linear")])
        model = stg.MultiOutputModel(net, p=3, q=4)
        assert np.array_equal(serve(model, np.ones(3), None), np.zeros(4))

    def test_q8_output_length(self):
        data = tiny_windows(n=60, p=5, q=8)
        cfg = nn.TrainConfig(epochs=2, batch_size=16, seed=0)
        model = stg.train_multi_output(data, cfg, hidden_layers=1, hidden_units=6)
        out = serve(model, data.histories[0], None)
        assert out.shape == (8,)

    def test_q_below_two_rejected(self):
        data = tiny_windows(q=1)
        with pytest.raises(ConfigError):
            stg.train_multi_output(data, nn.TrainConfig(epochs=1))

    def test_training_determinism(self):
        data = tiny_windows(n=50, p=3, q=2, seed=5)
        cfg = nn.TrainConfig(epochs=4, batch_size=8, seed=9)
        a = stg.train_multi_output(data, cfg, hidden_layers=1, hidden_units=5)
        b = stg.train_multi_output(data, cfg, hidden_layers=1, hidden_units=5)
        h = data.histories[:7]
        assert np.array_equal(a.predictor()(h), b.predictor()(h))


# a valid set of fields for each model kind, beside its nets
KIND_FIELDS = {
    stg.RecursiveModel: lambda: dict(net=linear_net([[0.5, 0.1]]), p=1, max_step=4),
    stg.DirectModelSet: lambda: dict(models=[linear_net([[0.5]])], q=1, p=1, hybrid=False),
    stg.MultiOutputModel: lambda: dict(net=linear_net([[0.5], [0.2]]), p=1, q=2),
}


class TestFieldChecks:
    @pytest.mark.parametrize("kind, field, value", [
        (stg.RecursiveModel, "p", 1.0), (stg.RecursiveModel, "p", 0),
        (stg.RecursiveModel, "p", True), (stg.RecursiveModel, "max_step", 4.0),
        (stg.RecursiveModel, "max_step", 0),
        (stg.DirectModelSet, "p", 1.0), (stg.DirectModelSet, "p", "1"),
        (stg.DirectModelSet, "q", 1.0), (stg.DirectModelSet, "q", True),
        (stg.DirectModelSet, "hybrid", 1), (stg.DirectModelSet, "hybrid", None),
        (stg.MultiOutputModel, "p", 1.0), (stg.MultiOutputModel, "p", -1),
        (stg.MultiOutputModel, "q", 2.0), (stg.MultiOutputModel, "q", None),
    ])
    def test_bad_field_is_named(self, kind, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            kind(**dict(KIND_FIELDS[kind](), **{field: value}))


# one served model of each kind, p = 3 and q = 2
SERVED = {
    "recursive": lambda: stg.RecursiveModel(linear_net(np.ones((1, 3))), p=3),
    "direct": lambda: stg.DirectModelSet([linear_net(np.ones((1, 3)))] * 2, q=2, p=3),
    "hybrid": lambda: stg.DirectModelSet(
        [linear_net(np.ones((1, 3 + h))) for h in range(2)], q=2, p=3, hybrid=True
    ),
    "multi-output": lambda: stg.MultiOutputModel(linear_net(np.ones((2, 3))), p=3, q=2),
}


class TestShapeLaw:
    @pytest.mark.parametrize("kind", SERVED)
    def test_only_a_history_matrix_is_served(self, kind):
        predict = SERVED[kind]().predictor(2)
        assert predict(np.ones((5, 3))).shape == (5, 2)
        # a 1-D history, a scalar and a 3-D block are all refused
        for history in (np.ones(3), np.float64(1.0), np.ones((1, 1, 3))):
            with pytest.raises(ShapeError):
                predict(history)

    @pytest.mark.parametrize("kind", [kind for kind in SERVED if kind != "recursive"])
    def test_a_q_step_model_serves_q_steps_alone(self, kind):
        model = SERVED[kind]()  # q = 2
        for n_steps in (None, 2):
            assert model.predictor(n_steps)(np.ones((5, 3))).shape == (5, 2)
        for n_steps in (1, 3, 8):
            with pytest.raises(ConfigError, match=f"q=2 cannot be served n_steps={n_steps}$"):
                model.predictor(n_steps)

    def test_every_strategy_emits_h_values(self):
        p = q = 4
        data = tiny_windows(n=60, p=p, q=q)
        cfg = nn.TrainConfig(epochs=2, batch_size=16, seed=0)
        one_step = tiny_windows(n=60, p=p, q=1)
        rng = np.random.default_rng(1)
        cdad_cfg = dad.DadConfig(
            p=p, n_steps=q, meta_iterations=1, inner_train=cfg, base_train=cfg, conditional=True,
            hidden_layers=1, hidden_units=4,
        )
        cdad_model = dad.train_cdad(rng.uniform(0, 1, 40), rng.uniform(0, 1, 20), cdad_cfg)
        models = [
            (stg.train_recursive(one_step, cfg, hidden_layers=1, hidden_units=4), q),
            (cdad_model.best_model, q),
            (stg.train_direct(data, cfg, hidden_layers=1, hidden_units=4), None),
            (stg.train_direct(data, cfg, hybrid=True, hidden_layers=1, hidden_units=4), None),
            (stg.train_multi_output(data, cfg, hidden_layers=1, hidden_units=4), None),
        ]
        h = data.histories[:5]
        for model, n_steps in models:
            preds = stg.batch_predictor(model, n_steps)(h)
            assert preds.shape == (5, q)
