import json

import numpy as np
import pytest

from multistep import nn, serialize
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
