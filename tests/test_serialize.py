import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        doc = serialize.load_json(path)
        assert doc["metadata"] == {"tag": "t"}
        back = serialize.mlp_from_dict(doc)
        assert back.dropout_rate == net.dropout_rate
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
        net = nn.init_mlp([2, 1], rng=0)
        net.layers[0].bias[0] = bad  # a view of net.params, as training writes it
        path = tmp_path / "model.json"
        with pytest.raises(NumericError):
            serialize.dump_json(serialize.mlp_to_dict(net), path)
        assert not path.exists()
        model = strategies.MultiOutputModel(net, p=2, q=1)
        with pytest.raises(NumericError):
            serialize.dump_json(serialize.model_to_doc(model, {"strategy_tag": "multi"}), path)
        assert not path.exists()

    def test_unknown_version_rejected(self):
        doc = serialize.mlp_to_dict(nn.init_mlp([2, 1], rng=0))
        doc["format_version"] = 99
        with pytest.raises(ConfigError, match="format_version"):
            serialize.mlp_from_dict(doc)

    @pytest.mark.parametrize("cut", [-8, 8], ids=["short", "long"])
    def test_params_of_the_wrong_length_named(self, cut):
        net = nn.init_mlp([3, 4, 2], rng=0)  # 3 * 4 + 4 + 4 * 2 + 2 = 26 values
        doc = serialize.mlp_to_dict(net)
        raw = base64.b64decode(doc["params"])
        doc["params"] = base64.b64encode(raw[:cut] if cut < 0 else raw + raw[:cut]).decode()
        with pytest.raises(ConfigError, match=f"^params holds {208 + cut} bytes; "
                                              "the layer shapes need 208$"):
            serialize.mlp_from_dict(doc)

    def test_declared_dims_checked(self):
        doc = serialize.mlp_to_dict(nn.init_mlp([2, 1], rng=0))
        doc["input_dim"] = 5
        with pytest.raises(ConfigError, match="dims"):
            serialize.mlp_from_dict(doc)

    @pytest.mark.parametrize("text, match", [
        ('{"a": [1, 2', "not valid JSON"),
        ("", "not valid JSON"),
        (b"\xff\xfe{}", "not valid JSON"),
        ("[1, 2]", "must hold a JSON object, got a list"),
        ("3.5", "must hold a JSON object, got a float"),
    ], ids=["truncated", "empty", "not-utf8", "list", "number"])
    def test_load_json_refuses_non_objects(self, tmp_path, text, match):
        path = tmp_path / "doc.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ConfigError, match=match) as exc:
            serialize.load_json(path)
        assert str(path) in str(exc.value)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 1e-300, 1e300, 5e-324, 0.1 + 0.2]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x7f", "é ü 日本", "\U0001f600", "</script>"]),
)
JSON_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(['"q"', "k\\", "é", "\x01"]))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.dictionaries(JSON_KEYS, inner, max_size=5),
    ),
    max_leaves=30,
)


def plain_json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # file rewritten
    @given(JSON_DOCS)
    def test_same_bytes_as_plain_json(self, tmp_path, doc):
        path = tmp_path / "d.json"
        serialize.dump_json(doc, path)
        assert path.read_bytes() == plain_json_bytes(doc)

    @pytest.mark.parametrize("doc", [
        {"a": {"b": [1, [], {}, (), [[0.5, -0.0]]]}},
        [np.float64(0.1), 2.0, float(np.float64(1e-300))],
        {"rows": [[1e300, -1e300], [5e-324, 1.0]], "ok": [True, False, None]},
        "é\u2028\"\\",
        3,
    ])
    def test_edge_documents_same_bytes(self, tmp_path, doc):
        path = tmp_path / "d.json"
        serialize.dump_json(doc, path)
        assert path.read_bytes() == plain_json_bytes(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan")])
    @pytest.mark.parametrize("where", ["scalar", "float_list", "mixed_list"])
    def test_non_finite_anywhere_raises_and_writes_nothing(self, tmp_path, bad, where):
        doc = {
            "scalar": {"x": bad},
            "float_list": {"w": [[0.5, 1.5], [2.5, bad]]},
            "mixed_list": [1, "a", [None, bad]],
        }[where]
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        path = tmp_path / "d.json"
        with pytest.raises(NumericError, match="not JSON compliant"):
            serialize.dump_json(doc, path)
        assert not path.exists()

    @pytest.mark.parametrize("doc", [
        {"a": np.int64(3)},
        [np.array([1.0, 2.0])],
        {"s": {1, 2}},
        {"o": object()},
        {(1, 2): "tuple key"},
        {"a": 1, 2: "mixed keys"},
        b"bytes",
    ])
    def test_unsupported_types_raise_type_error(self, tmp_path, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        path = tmp_path / "d.json"
        with pytest.raises(TypeError):
            serialize.dump_json(doc, path)
        assert not path.exists()


class TestDocumentLayout:
    def test_required_keys_and_determinism(self, tmp_path):
        net = nn.init_mlp([3, 4, 1], rng=1)
        doc = serialize.mlp_to_dict(net)
        assert doc["format_version"] == 2
        assert set(doc) == {
            "format_version",
            "input_dim",
            "output_dim",
            "dropout_rate",
            "layers",
            "params",
            "metadata",
        }
        assert set(doc["layers"][0]) == {"shape", "activation"}
        assert [ld["shape"] for ld in doc["layers"]] == [[4, 3], [1, 4]]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(doc, a)
        serialize.dump_json(doc, b)
        assert a.read_bytes() == b.read_bytes()

    def test_params_are_one_little_endian_float64_block(self):
        net = nn.init_mlp([3, 4, 2], rng=2)
        doc = serialize.mlp_to_dict(net)
        assert type(doc["params"]) is str
        flat = np.frombuffer(base64.b64decode(doc["params"]), "<f8")
        assert flat.tobytes() == net.params.astype("<f8").tobytes()  # bitwise
        off = 0
        for layer, ld in zip(net.layers, doc["layers"]):
            assert all(type(d) is int for d in ld["shape"])
            out, inp = ld["shape"]
            weights = flat[off:off + out * inp].reshape(out, inp)
            bias = flat[off + out * inp:off + out * (inp + 1)]
            assert np.array_equal(weights, layer.weights)
            assert np.array_equal(bias, layer.bias)
            off += out * (inp + 1)
        assert off == flat.size

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
    cfg = nn.TrainConfig(epochs=2, batch_size=16, seed=0)
    arch = dict(hidden_layers=1, hidden_units=5, dropout=0.1)
    train, val = rng.uniform(0, 1, 60), rng.uniform(0, 1, 40)
    dcfg = dict(p=p, n_steps=q, meta_iterations=1, inner_train=cfg, base_train=cfg, **arch)
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
        assert back.max_step == 4

    def test_corrective_documents_record_depth(self, trained):
        _, _, models = trained
        meta = {
            tag: serialize.model_to_doc(models[tag], {"strategy_tag": tag})["metadata"]
            for tag in ("recursive", "dad", "cdad")
        }
        assert "max_step" not in meta["recursive"]
        assert meta["dad"]["max_step"] is None and meta["cdad"]["max_step"] == 4

    def test_unknown_strategy_tag_rejected(self):
        net = nn.init_mlp([2, 3], rng=0)
        model = strategies.MultiOutputModel(net, p=2, q=3)
        doc = serialize.model_to_doc(model, {"strategy_tag": "multi"})
        serialize.model_from_doc(doc)
        doc["metadata"]["strategy_tag"] = "seq2seq"
        with pytest.raises(ConfigError, match="strategy_tag"):
            serialize.model_from_doc(doc)

    def test_metadata_outside_the_table_rejected_on_write(self):
        model = strategies.MultiOutputModel(nn.init_mlp([2, 3], rng=0), p=2, q=3)
        with pytest.raises(ConfigError, match=r"unknown \['run'\]"):
            serialize.model_to_doc(model, {"strategy_tag": "multi", "run": "a"})

    @pytest.mark.parametrize("tag", ["direct", "multi"])
    def test_output_count_q_required_on_load(self, trained, tag):
        _, _, models = trained
        doc = serialize.model_to_doc(models[tag], {"strategy_tag": tag})
        del doc["metadata"]["q"]
        with pytest.raises(ConfigError, match=r"metadata keys missing \['q'\]"):
            serialize.model_from_doc(doc)

    @pytest.mark.parametrize("tag, extra, unknown", [
        ("multi", {"max_step": 5, "time_step_augmented": True}, "max_step"),
        ("multi", {"hybrid": True}, "hybrid"),
        ("recursive", {"hybrid": True}, "hybrid"),
        ("direct", {"max_step": 4, "time_step_augmented": True}, "max_step"),
    ], ids=["multi-depth", "multi-hybrid", "recursive-hybrid", "direct-depth"])
    def test_field_of_another_kind_refused(self, trained, tag, extra, unknown):
        _, _, models = trained
        with pytest.raises(ConfigError, match=rf"unknown \['{unknown}'\]"):
            serialize.model_to_doc(models[tag], {"strategy_tag": tag, **extra})
        doc = serialize.model_to_doc(models[tag], {"strategy_tag": tag})
        doc["metadata"].update(extra)
        missing = rf"^metadata keys missing \[\], unknown \['{unknown}'\]"
        with pytest.raises(ConfigError, match=missing):
            serialize.model_from_doc(doc)

    @pytest.mark.parametrize("key, value, refusal", [
        ("normalization", {"mean": 1}, r"^metadata.normalization keys missing \['max', 'min'\], "
                                       r"unknown \['mean'\]$"),
        ("data", {"resolution_minutes": 15, "aggregate_factor": 1},
         r"^metadata.data keys missing \['gap_policy'\], unknown \[\]$"),
    ], ids=["normalization-mean", "data-without-gap-policy"])
    def test_a_normalizer_or_recipe_of_another_shape_refused_on_load(self, trained, key, value,
                                                                     refusal):
        _, _, models = trained
        doc = serialize.model_to_doc(models["multi"], {"strategy_tag": "multi"})
        doc["metadata"][key] = value
        with pytest.raises(ConfigError, match=refusal):
            serialize.model_from_doc(doc)

    def test_step_input_flag_without_depth_refused_on_load(self, trained):
        _, _, models = trained
        doc = serialize.model_to_doc(models["multi"], {"strategy_tag": "multi"})
        doc["metadata"]["time_step_augmented"] = True
        with pytest.raises(ConfigError, match="metadata.max_step None disagrees"):
            serialize.model_from_doc(doc)

    def test_depth_without_step_input_refused_on_load(self, trained):
        # the other disagreement, a step input of unknown depth, is a TestRecursiveAug case
        _, _, models = trained
        doc = serialize.model_to_doc(models["cdad"], {"strategy_tag": "cdad"})
        doc["metadata"]["time_step_augmented"] = False
        with pytest.raises(ConfigError, match="metadata.max_step 4 disagrees"):
            serialize.model_from_doc(doc)

    @pytest.mark.parametrize("tag, q, cause", [
        ("direct", 3, "2 models for horizon 3"),
        ("multi", 4, r"net dims \(2, 3\) != \(p=2, q=4\)"),
    ], ids=["direct", "multi"])
    def test_output_count_q_that_does_not_fit_the_networks_refused_on_load(self, tag, q, cause):
        if tag == "direct":
            model = strategies.DirectModelSet([nn.init_mlp([2, 1], rng=h) for h in (0, 1)], q=2, p=2)
        else:
            model = strategies.MultiOutputModel(nn.init_mlp([2, 3], rng=0), p=2, q=3)
        doc = serialize.model_to_doc(model, {"strategy_tag": tag})
        doc["metadata"]["q"] = q
        with pytest.raises(ConfigError, match=f"metadata.q {q}.* do not fit the networks: {cause}"):
            serialize.model_from_doc(doc)

    @pytest.mark.parametrize("tag", ["direct", "hybrid"])
    @pytest.mark.parametrize("edit, match", [
        (lambda nets: nets.reverse(), r"models\[0\]\.h must be 1, got 4"),
        (lambda nets: nets[2].update(h=7), r"models\[2\]\.h must be 3, got 7"),
        (lambda nets: nets[1].pop("h"), r"models\[1\]\.h must be 2, got None"),
        (lambda nets: nets[0].update(h=True), r"models\[0\]\.h must be 1, got True"),
        (lambda nets: nets[0].update(h=1.0), r"models\[0\]\.h must be 1, got 1.0"),
    ], ids=["reversed", "seven", "missing", "bool", "float"])
    def test_each_net_serves_the_step_its_h_names(self, trained, tag, edit, match):
        _, _, models = trained
        doc = serialize.model_to_doc(models[tag], {"strategy_tag": tag})
        edit(doc["models"])
        with pytest.raises(ConfigError, match=match):
            serialize.model_from_doc(doc)

    @pytest.mark.parametrize("tag", ["recursive", "dad", "cdad", "multi"])
    def test_a_one_net_document_carries_no_h(self, trained, tag):
        _, _, models = trained
        doc = serialize.model_to_doc(models[tag], {"strategy_tag": tag})
        assert "h" not in doc
        doc["h"] = 1
        with pytest.raises(ConfigError, match=r"^keys missing \[\], unknown \['h'\]"):
            serialize.model_from_doc(doc)

    def test_numpy_integer_fields_round_trip_as_ints(self, tmp_path):
        i64 = np.int64
        cases = [  # tag, model, extra metadata, the integers its document holds
            ("cdad", strategies.RecursiveModel(nn.init_mlp([3, 1], rng=0), p=i64(2),
                                               max_step=i64(4)),
             {"q": i64(4)}, {"p": 2, "q": 4, "max_step": 4}),
            ("direct", strategies.DirectModelSet([nn.init_mlp([2, 1], rng=h) for h in (0, 1)],
                                                 q=i64(2), p=i64(2)),
             {}, {"p": 2, "q": 2}),
            ("multi", strategies.MultiOutputModel(nn.init_mlp([2, 3], rng=0), p=i64(2),
                                                  q=np.int32(3)),
             {}, {"p": 2, "q": 3}),
        ]
        for tag, model, extra, ints in cases:
            path = tmp_path / f"{tag}.json"
            serialize.dump_json(serialize.model_to_doc(model, {"strategy_tag": tag, **extra}), path)
            doc = serialize.load_json(path)
            written = {key: doc["metadata"][key] for key in ints}
            assert written == ints and {type(v) for v in written.values()} == {int}, tag
            back = serialize.model_from_doc(doc)
            assert type(back) is type(model), tag
            for key in ("p", *model.METADATA):
                assert getattr(back, key) == getattr(model, key), (tag, key)

    def test_tag_of_another_kind_rejected_on_write(self):
        model = strategies.MultiOutputModel(nn.init_mlp([2, 3], rng=0), p=2, q=3)
        with pytest.raises(ConfigError, match="strategy_tag"):
            serialize.model_to_doc(model, {"strategy_tag": "cdad"})

    @pytest.mark.parametrize("tag", ["direct", "multi"])
    def test_unsupported_top_level_version_rejected(self, tag):
        net = nn.init_mlp([2, 1], rng=0)
        if tag == "direct":
            model = strategies.DirectModelSet([net], q=1, p=2)
        else:
            model = strategies.MultiOutputModel(net, p=2, q=1)
        for version in (1, 3):
            doc = serialize.model_to_doc(model, {"strategy_tag": tag})
            doc["format_version"] = version
            with pytest.raises(ConfigError, match="format_version"):
                serialize.model_from_doc(doc)
