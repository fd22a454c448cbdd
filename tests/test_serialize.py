import json

import numpy as np
import pytest

from multistep import dad, nn, serialize, strategies
from multistep.data import make_windows
from multistep.errors import ConfigError, NumericError


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_exact_through_disk(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        net = nn.init_mlp(
            [4, 6, 2], dropout_rate=0.25, rng=rng, hidden_activation="tanh"
        )
        path = tmp_path / "model.json"
        serialize.dump_json(serialize.mlp_to_dict(net, {"tag": "t"}), path)
        back = serialize.mlp_from_dict(serialize.load_json(path))
        assert back.dropout_rate == net.dropout_rate
        assert back.metadata["tag"] == "t"
        for la, lb in zip(net.layers, back.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_awkward_float_values_survive(self, tmp_path):
        net = nn.Mlp(
            [nn.Layer(np.array([[0.1 + 0.2, 1e-300, np.pi]]), np.array([1 / 3]), "linear")]
        )
        path = tmp_path / "m.json"
        serialize.dump_json(serialize.mlp_to_dict(net), path)
        back = serialize.mlp_from_dict(serialize.load_json(path))
        assert np.array_equal(back.layers[0].weights, net.layers[0].weights)
        assert np.array_equal(back.layers[0].bias, net.layers[0].bias)


class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected_and_nothing_written(self, tmp_path, bad):
        doc = serialize.mlp_to_dict(nn.init_mlp([2, 1], rng=0))
        doc["layers"][0]["bias"][0] = bad
        path = tmp_path / "model.json"
        with pytest.raises(NumericError):
            serialize.dump_json(doc, path)
        assert not path.exists()

    def test_unknown_version_rejected(self):
        doc = serialize.mlp_to_dict(nn.init_mlp([2, 1], rng=0))
        doc["format_version"] = 99
        with pytest.raises(ConfigError, match="format_version"):
            serialize.mlp_from_dict(doc)

    def test_declared_dims_checked(self):
        doc = serialize.mlp_to_dict(nn.init_mlp([2, 1], rng=0))
        doc["input_dim"] = 5
        with pytest.raises(ConfigError, match="dims"):
            serialize.mlp_from_dict(doc)


class TestDocumentLayout:
    def test_required_keys_and_determinism(self, tmp_path):
        net = nn.init_mlp([3, 4, 1], rng=1)
        doc = serialize.mlp_to_dict(net)
        assert doc["format_version"] == 1
        assert set(doc) == {
            "format_version",
            "input_dim",
            "output_dim",
            "dropout_rate",
            "layers",
            "metadata",
        }
        assert set(doc["layers"][0]) == {"weights", "bias", "activation"}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(doc, a)
        serialize.dump_json(doc, b)
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_sorted_plain_json(self, tmp_path):
        path = tmp_path / "d.json"
        serialize.dump_json({"b": 2, "a": 1}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1, "b": 2}


@pytest.fixture(scope="module")
def trained():
    """Histories, horizon and one small trained model per strategy tag."""
    rng = np.random.default_rng(0)
    p = q = 4
    windows = make_windows(rng.uniform(0, 1, 60), p, q)
    one_step = make_windows(rng.uniform(0, 1, 60), p, 1)
    cfg = nn.TrainConfig(epochs=2, batch_size=16, seed=0, dropout_rate=0.1)
    arch = dict(hidden_layers=1, hidden_units=5)
    train, val = rng.uniform(0, 1, 60), rng.uniform(0, 1, 40)
    dcfg = dict(p=p, n_steps=q, meta_iterations=1, inner_train=cfg, **arch)
    return windows.histories[:6], q, {
        "recursive": strategies.train_recursive(one_step, cfg, **arch),
        "dad": dad.train_dad(train, val, dad.DadConfig(**dcfg)).best_model,
        "cdad": dad.train_cdad(train, val, dad.DadConfig(conditional=True, **dcfg)).best_model,
        "direct": strategies.train_direct(windows, cfg, **arch),
        "hybrid": strategies.train_direct(windows, cfg, hybrid=True, **arch),
        "multi": strategies.train_multi_output(windows, cfg, **arch),
    }


class TestModelDocument:
    def test_every_kind_predicts_bitwise_after_disk_round_trip(self, tmp_path, trained):
        histories, q, models = trained
        for tag, model in models.items():
            path = tmp_path / f"{tag}.json"
            serialize.dump_json(serialize.model_to_doc(model, {"strategy_tag": tag}), path)
            back = serialize.model_from_doc(serialize.load_json(path))
            assert type(back) is type(model), tag
            before = strategies.batch_predictor(model, q)(histories)
            after = strategies.batch_predictor(back, q)(histories)
            assert np.array_equal(before, after), tag

    def test_step_feature_depth_survives(self, trained):
        _, _, models = trained
        back = serialize.model_from_doc(
            serialize.model_to_doc(models["cdad"], {"strategy_tag": "cdad"})
        )
        assert back.time_step_augmented and back.max_step == 4

    def test_unknown_strategy_tag_rejected(self):
        net = nn.init_mlp([2, 3], rng=0)
        model = strategies.MultiOutputModel(net, p=2, q=3)
        doc = serialize.model_to_doc(model, {"strategy_tag": "multi"})
        serialize.model_from_doc(doc)
        doc["metadata"]["strategy_tag"] = "seq2seq"
        with pytest.raises(ConfigError, match="strategy_tag"):
            serialize.model_from_doc(doc)

    def test_tag_of_another_kind_rejected_on_write(self):
        model = strategies.MultiOutputModel(nn.init_mlp([2, 3], rng=0), p=2, q=3)
        with pytest.raises(ConfigError, match="strategy_tag"):
            serialize.model_to_doc(model, {"strategy_tag": "cdad"})

    @pytest.mark.parametrize("tag", ["direct", "multi"])
    def test_unsupported_top_level_version_rejected(self, tag):
        net = nn.init_mlp([2, 1], rng=0)
        if tag == "direct":
            model = strategies.DirectModelSet([net], horizon=1, p=2)
        else:
            model = strategies.MultiOutputModel(net, p=2, q=1)
        doc = serialize.model_to_doc(model, {"strategy_tag": tag})
        doc["format_version"] = 2
        with pytest.raises(ConfigError, match="format_version"):
            serialize.model_from_doc(doc)
