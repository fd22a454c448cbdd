import base64
import io
import json
import re
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from multistep import cgan, cli, pipeline, serialize, synth
from multistep.data import ingest_csv, write_series_csv


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    assert cli.main(["synth-data", "--points", "300", "--seed", "1", "--output", str(path)]) == 0
    return path


def base_config(strategy="recursive", **extra):
    # 300 synthetic points at 15 min starting 2011-01-01; train through
    # index 200, validate through index 250, test on the rest.
    doc = {
        "seed": 0,
        "data": {
            "p": 4,
            "q": 4,
            "split": {
                "train_end": "2011-01-03T02:00:00",
                "val_end": "2011-01-03T14:30:00",
            },
        },
        "model": {
            "strategy": strategy,
            "hidden_layers": 1,
            "hidden_units": 4,
            "dropout": 0.0,
            "train": {"epochs": 2, "batch_size": 32},
        },
    }
    doc.update(extra)
    return doc


def run_train(tmp_path, series_csv, doc, name="model.json"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    code = cli.main(
        ["train", "--config", str(cfg), "--data", str(series_csv), "--out", str(out)]
    )
    return code, out


class TestSynthData:
    def test_deterministic_and_ingestable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(
                ["synth-data", "--points", "50", "--seed", "7", "--output", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        series = ingest_csv(a, timedelta(minutes=15))
        assert len(series) == 50
        assert series.values.min() >= 0


class TestIngest:
    def test_aggregates_six_rows_to_two(self, tmp_path):
        raw = tmp_path / "raw.csv"
        start = datetime(2011, 1, 1)
        rows = [
            f"{(start + i * timedelta(minutes=5)).isoformat()},{10 * (i + 1)}"
            for i in range(6)
        ]
        raw.write_text("timestamp,flow\n" + "\n".join(rows) + "\n")
        out = tmp_path / "agg.csv"
        assert cli.main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        series = ingest_csv(out, timedelta(minutes=15))
        assert np.array_equal(series.values, [60.0, 150.0])
        sidecar = json.loads((tmp_path / "agg.csv.json").read_text())
        assert sidecar["rows"] == 2
        assert sidecar["resolution_minutes"] == 15.0

    def test_sidecar_bytes_match_plain_json_writer(self, tmp_path):
        raw = tmp_path / "raw.csv"
        start = datetime(2011, 1, 1)
        rows = [f"{(start + i * timedelta(minutes=5)).isoformat()},{i}" for i in range(9)]
        raw.write_text("timestamp,flow\n" + "\n".join(rows) + "\n")
        out = tmp_path / "agg.csv"
        assert cli.main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        expected = io.StringIO()
        json.dump({"rows": 3, "resolution_minutes": 15.0, "aggregate_factor": 3},
                  expected, indent=2, sort_keys=True)
        expected.write("\n")
        assert (tmp_path / "agg.csv.json").read_bytes() == expected.getvalue().encode()

    def test_mixed_utc_offsets_exit_one(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,flow\n2011-01-01T00:00:00,1\n2011-01-01T00:05:00+00:00,2\n")
        code = cli.main(["ingest", "--input", str(raw), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert [p.name for p in tmp_path.iterdir()] == ["raw.csv"]
        assert "row 3: timestamp has a UTC offset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_a_file_that_is_not_utf8_exits_one(self, tmp_path, capsys, command):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"\xff\xfe" + "timestamp,flow\n".encode("utf-16-le"))  # a UTF-16 file
        if command == "ingest":
            code = cli.main(["ingest", "--input", str(raw), "--output", str(tmp_path / "o.csv")])
        else:
            code = run_train(tmp_path, raw, base_config())[0]
        assert code == 1
        assert not {"o.csv", "model.json"} & {p.name for p in tmp_path.iterdir()}
        assert capsys.readouterr().err == f"error: {raw}: not UTF-8 text (invalid start byte)\n"

    def test_a_byte_order_mark_ingests_to_the_same_bytes(self, tmp_path):
        # spreadsheet tools start a UTF-8 CSV with the mark ef bb bf
        start = datetime(2011, 1, 1)
        text = "timestamp,flow\n" + "".join(
            f"{(start + i * timedelta(minutes=5)).isoformat()},{i}\n" for i in range(6))
        written = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            raw, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
            raw.write_bytes(mark + text.encode())
            assert cli.main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
            written.append([out.read_bytes(), Path(f"{out}.json").read_bytes()])
        assert written[0] == written[1]

    def test_missing_input_exits_one(self, tmp_path):
        code = cli.main(
            ["ingest", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1


class TestConfigValidation:
    def test_unknown_key_exits_two(self, tmp_path, series_csv):
        doc = base_config()
        doc["model"]["hidden_size"] = 10
        code, _ = run_train(tmp_path, series_csv, doc)
        assert code == 2

    def test_unknown_strategy_exits_two(self, tmp_path, series_csv):
        code, _ = run_train(tmp_path, series_csv, base_config(strategy="lstm"))
        assert code == 2

    def test_orphan_section_exits_two(self, tmp_path, series_csv):
        code, _ = run_train(
            tmp_path, series_csv, base_config(strategy="recursive", dad={"n_steps": 4})
        )
        assert code == 2

    def test_eval_section_is_unknown(self, tmp_path, series_csv):
        # `evaluate --denormalize` is the switch; a config section for it was ignored
        code, out = run_train(tmp_path, series_csv, base_config(eval={"denormalize": True}))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("stride", 4), ("input_csv", "flow.csv")])
    def test_unread_data_key_is_unknown(self, tmp_path, series_csv, key, value):
        # training always windows at stride 1 and reads the --data path
        doc = base_config()
        doc["data"][key] = value
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 2
        assert not out.exists()

    def test_cdad_shallower_than_horizon_exits_two(self, tmp_path, series_csv):
        # a depth-3 step input could not be evaluated at q=4
        doc = base_config(
            strategy="cdad", dad={"n_steps": 3, "meta_iterations": 1, "inner_epochs": 1}
        )
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("strategy, section", [
        ("multi", {}), ("multi-noise", {"noise": {}}), ("multi-cgan", {"cgan": {"epochs": 1}})])
    def test_multi_output_at_one_step_exits_two_before_any_work(self, tmp_path, series_csv,
                                                                monkeypatch, capsys,
                                                                strategy, section):
        def train_cgan(*args):
            raise AssertionError("train_cgan called")

        monkeypatch.setattr(cgan, "train_cgan", train_cgan)
        doc = base_config(strategy=strategy, **section)
        doc["data"]["q"] = 1
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 2
        assert "data.q" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])  # missing required arguments
        assert exc.value.code == 2


def _set(section, key, value):
    def edit(doc):
        target = doc
        for name in section:
            target = target[name]
        target[key] = value
    return edit


def _strategy(strategy, section, **values):
    def edit(doc):
        doc["model"]["strategy"] = strategy
        doc[section] = values
    return edit


class TestBadValuesExitTwo:
    """Each bad value is a ConfigError (exit 2) that writes nothing."""

    @pytest.mark.parametrize("flags", [
        ["--resolution-minutes", "0"],
        ["--resolution-minutes", "-5"],
        ["--factor", "0"],
        ["--factor", "-2"],
    ], ids=["resolution-0", "resolution-neg", "factor-0", "factor-neg"])
    def test_ingest(self, tmp_path, series_csv, flags):
        out = tmp_path / "agg.csv"
        code = cli.main(["ingest", "--input", str(series_csv), "--output", str(out),
                         "--resolution-minutes", "15", *flags])  # the flags given win
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_ingest_factor_checked_before_the_input_is_read(self, tmp_path, capsys):
        code = cli.main(["ingest", "--input", str(tmp_path / "absent.csv"),
                         "--output", str(tmp_path / "agg.csv"), "--factor", "0"])
        assert code == 2
        assert "--factor must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        _set(["data"], "resolution_minutes", 0),
        _set(["data"], "aggregate_factor", 0),
        _set(["data"], "aggregate_factor", -3),
        _set(["data"], "aggregate_factor", 1.5),
        _set(["model", "train"], "batch_size", 64.5),
        _set(["model", "train"], "batch_size", True),
        _set(["model", "train"], "epochs", "2"),
        _set(["model"], "hidden_units", 0),
        _set(["model"], "hidden_layers", 1.5),
        _set(["model"], "hidden_layers", -1),
        _set(["data"], "p", 2.5),
        _set(["data"], "q", 2.5),
        _strategy("dad", "dad", n_steps=2.5),
        _strategy("dad", "dad", meta_iterations=1.5),
        _strategy("multi-cgan", "cgan", epochs=2.5),
        _strategy("multi-cgan", "cgan", batch_size=16.5),
        _strategy("multi-cgan", "cgan", epochs=1, synthetic_count=3.5),
        _strategy("multi-cgan", "cgan", epochs=1, synthetic_count=-3),
        _set(["data"], "resolution_minutes", "15"),
        _set(["data"], "resolution_minutes", True),
        _set(["data"], "resolution_minutes", float("nan")),
        _set(["data"], "resolution_minutes", float("inf")),
        _set(["data"], "resolution_minutes", 1e300),
    ], ids=["resolution-0", "factor-0", "factor-neg", "factor-1.5", "batch-64.5",
            "batch-true", "epochs-str", "hidden-units-0", "hidden-layers-1.5",
            "hidden-layers-neg", "p-2.5", "q-2.5", "dad-steps-2.5", "dad-iterations-1.5",
            "cgan-epochs-2.5", "cgan-batch-16.5", "cgan-count-3.5", "cgan-count-neg",
            "resolution-str", "resolution-true", "resolution-nan", "resolution-inf",
            "resolution-huge"])
    def test_train(self, tmp_path, series_csv, edit):
        doc = base_config()
        edit(doc)
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_dad_accumulate_must_be_bool(self, tmp_path, series_csv, capsys):
        # a truthy string once trained in accumulate mode and exited 0
        doc = base_config()
        _strategy("dad", "dad", meta_iterations=1, inner_epochs=1, accumulate="no")(doc)
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert "accumulate" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, "15"], ids=["resolution-0", "resolution-str"])
    def test_evaluate(self, tmp_path, series_csv, capsys, value):
        _, model = run_train(tmp_path, series_csv, base_config())
        doc = serialize.load_json(model)
        doc["metadata"]["data"]["resolution_minutes"] = value
        serialize.dump_json(doc, model)
        report = tmp_path / "r.json"
        code = cli.main(["evaluate", "--model", str(model), "--data", str(series_csv),
                         "--report", str(report)])
        assert code == 2
        assert not report.exists()
        assert "resolution_minutes" in capsys.readouterr().err


class TestTrain:
    def test_recursive_model_document(self, tmp_path, series_csv):
        code, out = run_train(tmp_path, series_csv, base_config())
        assert code == 0
        doc = serialize.load_json(out)
        assert doc["input_dim"] == 4
        assert doc["metadata"]["strategy_tag"] == "recursive"
        assert not doc["metadata"]["time_step_augmented"]
        echoed = serialize.load_json(str(out) + ".config.json")
        assert echoed["model"]["train"]["learning_rate"] == 1e-3  # default materialized

    def test_cdad_gets_step_input(self, tmp_path, series_csv):
        doc = base_config(
            strategy="cdad", dad={"n_steps": 4, "meta_iterations": 1, "inner_epochs": 1}
        )
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 0
        model_doc = serialize.load_json(out)
        assert model_doc["input_dim"] == 5  # p + 1
        assert model_doc["metadata"]["time_step_augmented"]
        assert model_doc["metadata"]["max_step"] == 4
        log = serialize.load_json(str(out) + ".log.json")
        assert len(log["iterations"]) == 2  # start plus one refinement

    def test_direct_document_has_one_model_per_step(self, tmp_path, series_csv):
        code, out = run_train(tmp_path, series_csv, base_config(strategy="direct"))
        assert code == 0
        doc = serialize.load_json(out)
        assert [m["h"] for m in doc["models"]] == [1, 2, 3, 4]
        assert all(m["input_dim"] == 4 for m in doc["models"])

    def test_hybrid_document_widens_inputs(self, tmp_path, series_csv):
        code, out = run_train(tmp_path, series_csv, base_config(strategy="hybrid"))
        assert code == 0
        doc = serialize.load_json(out)
        assert [m["input_dim"] for m in doc["models"]] == [4, 5, 6, 7]

    def test_multi_cgan_doubles_training_rows(self, tmp_path, series_csv):
        doc = base_config(
            strategy="multi-cgan",
            cgan={"noise_dim": 3, "epochs": 2, "batch_size": 32},
        )
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 0
        log = serialize.load_json(str(out) + ".log.json")
        assert log["combined_rows"] == 2 * log["synthetic_rows"]
        assert len(log["cgan_log"]) == 2

    def test_multi_cgan_with_no_synthetic_rows_trains_on_the_real_windows(
        self, tmp_path, series_csv
    ):
        doc = base_config(
            strategy="multi-cgan",
            cgan={"noise_dim": 3, "epochs": 2, "batch_size": 32, "synthetic_count": 0},
        )
        code, out = run_train(tmp_path, series_csv, doc)
        assert code == 0
        log = serialize.load_json(str(out) + ".log.json")
        series = ingest_csv(series_csv, timedelta(minutes=15))
        train_end = datetime.fromisoformat(doc["data"]["split"]["train_end"])
        n_train = sum(t <= train_end for t in series.timestamps)
        assert log["synthetic_rows"] == 0
        assert log["combined_rows"] == n_train - 4 - 4 + 1  # p = q = 4


class TestEvaluateAndCompare:
    def test_evaluate_is_byte_deterministic(self, tmp_path, series_csv):
        _, out = run_train(tmp_path, series_csv, base_config(strategy="multi"))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert cli.main(
                ["evaluate", "--model", str(out), "--data", str(series_csv),
                 "--report", str(r)]
            ) == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert len(report["per_step_mse"]) == 4
        assert report["model_tag"] == "multi"

    def test_compare_table(self, tmp_path, series_csv):
        _, m1 = run_train(tmp_path, series_csv, base_config(), name="m1.json")
        _, m2 = run_train(tmp_path, series_csv, base_config(strategy="multi"), name="m2.json")
        reports = []
        for model, tag in ((m1, "recursive"), (m2, "multi")):
            r = tmp_path / f"{tag}.report.json"
            assert cli.main(
                ["evaluate", "--model", str(model), "--data", str(series_csv),
                 "--report", str(r), "--tag", tag]
            ) == 0
            reports.append(str(r))
        out = tmp_path / "cmp"
        assert cli.main(
            ["compare", "--reports", *reports, "--baseline", "recursive",
             "--out", str(out)]
        ) == 0
        table = json.loads((tmp_path / "cmp.json").read_text())
        assert table["baseline_tag"] == "recursive"
        assert table["rows"][0]["mse_improvement_pct"] is None
        text = (tmp_path / "cmp.txt").read_text()
        assert "recursive" in text and "multi" in text


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    """900 raw 5-minute points whose factor-3 sums lie on series_csv's 15-minute grid."""
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    series = synth.make_synthetic_series(900, seed=2, resolution=timedelta(minutes=5))
    write_series_csv(series, path)
    return path


def evaluate(model, data, report):
    return cli.main(["evaluate", "--model", str(model), "--data", str(data),
                     "--report", str(report)])


class TestDataRecipe:
    """`evaluate` loads its CSV by the recipe `train` records in metadata.data."""

    def test_raw_csv_scores_like_its_ingested_copy(self, tmp_path, raw_csv):
        flow = tmp_path / "flow.csv"
        assert cli.main(["ingest", "--input", str(raw_csv), "--output", str(flow),
                         "--factor", "3"]) == 0
        raw_doc = base_config(strategy="multi")
        raw_doc["data"].update(resolution_minutes=5, aggregate_factor=3)
        _, raw_model = run_train(tmp_path, raw_csv, raw_doc, name="raw.json")
        # the path a raw series took before the recipe was recorded: ingest
        # --factor 3, then train and evaluate on that copy at 15 minutes
        _, flow_model = run_train(tmp_path, flow, base_config(strategy="multi"), name="flow.json")
        r_raw, r_flow = tmp_path / "raw.report.json", tmp_path / "flow.report.json"
        assert evaluate(raw_model, raw_csv, r_raw) == 0
        assert evaluate(flow_model, flow, r_flow) == 0
        assert r_raw.read_bytes() == r_flow.read_bytes()
        a, b = serialize.load_json(raw_model), serialize.load_json(flow_model)
        assert a["metadata"].pop("data") == {
            "resolution_minutes": 5, "aggregate_factor": 3, "gap_policy": "reject"}
        assert b["metadata"].pop("data") == {
            "resolution_minutes": 15, "aggregate_factor": 1, "gap_policy": "reject"}
        assert a == b
        # a CSV at another resolution fails as `train` fails on it
        assert evaluate(raw_model, flow, tmp_path / "r.json") == 1
        assert not (tmp_path / "r.json").exists()

    def test_gap_policy_is_served(self, tmp_path, series_csv):
        lines = series_csv.read_text().splitlines(keepends=True)
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("".join(lines[:281] + lines[282:]))  # one test-split row gone
        doc = base_config()
        doc["data"]["gap_policy"] = "linear"
        _, model = run_train(tmp_path, gapped, doc)
        report = tmp_path / "r.json"
        assert evaluate(model, gapped, report) == 0
        # evaluate windows the whole series, the interpolated row included
        assert serialize.load_json(report)["num_samples"] == 300 - 4 - 4 + 1

    @pytest.mark.parametrize("drop", [None, "gap_policy"], ids=["no-recipe", "no-gap-policy"])
    def test_document_without_recipe_exits_two(self, tmp_path, series_csv, capsys, drop):
        _, model = run_train(tmp_path, series_csv, base_config())
        doc = serialize.load_json(model)
        if drop is None:
            del doc["metadata"]["data"]
        else:
            del doc["metadata"]["data"][drop]
        serialize.dump_json(doc, model)
        report = tmp_path / "r.json"
        assert evaluate(model, series_csv, report) == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert "metadata.data" in err
        assert "gap_policy" in err

    def test_linear_gaps_refuse_a_coarser_series(self, tmp_path, series_csv, capsys):
        # series_csv is 15-minute data; read as 5-minute data, two of every
        # three points would be interpolated
        out = tmp_path / "flow.csv"
        assert cli.main(["ingest", "--input", str(series_csv), "--output", str(out),
                         "--factor", "1", "--resolution-minutes", "5",
                         "--gap-policy", "linear"]) == 1
        assert list(tmp_path.iterdir()) == []
        doc = base_config()
        doc["data"].update(resolution_minutes=5, gap_policy="linear")
        code, _ = run_train(tmp_path, series_csv, doc)
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert capsys.readouterr().err.count("smallest spacing 0:15:00") == 2

    def test_resolution_flag_is_gone(self, tmp_path, series_csv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--model", "m.json", "--data", str(series_csv),
                      "--report", str(tmp_path / "r.json"), "--resolution-minutes", "15"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory, series_csv):
    """The document `train` writes for base_config()."""
    code, out = run_train(tmp_path_factory.mktemp("doc"), series_csv, base_config())
    assert code == 0
    return serialize.load_json(out)


def _params_bytes(doc) -> bytes:
    return base64.b64decode(doc["params"])


def _as_format_1(doc):
    """The same network in the layout of format_version 1: per-layer float lists."""
    flat, off = np.frombuffer(_params_bytes(doc), "<f8"), 0
    for ld in doc["layers"]:
        out, inp = ld.pop("shape")
        ld["weights"] = flat[off:off + out * inp].reshape(out, inp).tolist()
        ld["bias"] = flat[off + out * inp:off + out * (inp + 1)].tolist()
        off += out * (inp + 1)
    del doc["params"]
    doc["format_version"] = 1


class TestModelDocumentExitsTwo:
    """`evaluate` refuses a network document it cannot rebuild exactly, with
    exit 2 and no report."""

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.pop("params"), "keys missing ['params']"),
        (lambda d: d.update(params=[0.5, 1.5]), "params must be a base64 string, got list"),
        (lambda d: d.update(params="not base64!"), "params is not base64"),
        (lambda d: d.update(params=base64.b64encode(_params_bytes(d)[:-8]).decode()),
         "params holds 192 bytes; the layer shapes need 200"),
        (lambda d: d["layers"][1].update(shape=[1, 5]), "layer 1 shape [1, 5] does not take"),
        (lambda d: d["layers"][0].update(shape=[4, 4.0]), "integer shape"),
        (lambda d: d["layers"][0].pop("shape"), "layers[0] keys missing ['shape']"),
        (_as_format_1, "unsupported format_version 1"),
    ], ids=["params-missing", "params-not-str", "params-not-base64", "params-short",
            "shapes-do-not-chain", "shape-not-int", "shape-missing", "format-1"])
    def test_evaluate(self, tmp_path, series_csv, model_doc, capsys, edit, named):
        doc = json.loads(json.dumps(model_doc))
        edit(doc)
        model, report = tmp_path / "model.json", tmp_path / "r.json"
        serialize.dump_json(doc, model)
        assert evaluate(model, series_csv, report) == 2
        assert not report.exists()
        assert named in capsys.readouterr().err


def _drop(*keys):
    def edit(doc):
        for name in keys[:-1]:
            doc = doc[name]
        del doc[keys[-1]]
    return edit


def _report():
    return {"model_tag": "recursive", "overall_mse": 0.5, "overall_mae": 0.25,
            "per_step_mse": [0.5], "per_step_mae": [0.25], "num_samples": 3,
            "denormalized": False}


def _keep(doc):
    pass


class TestProbesExitTwo:
    """Inputs that once trained silently on a changed value, ended in a
    traceback or failed a step later: each is refused with exit 2, naming
    its key, and nothing is written."""

    @pytest.mark.parametrize("command, edit, flags, named", [
        ("train", _set([], "seed", 1.5), [], "seed must be an integer >= 0"),
        ("train", _set([], "seed", True), [], "seed must be an integer >= 0"),
        ("train", _set([], "seed", 2.0), [], "seed must be an integer >= 0"),
        ("train", _set([], "seed", "a"), [], "seed must be an integer >= 0"),
        ("train", _keep, ["--seed", "-1"], "seed must be an integer >= 0"),
        ("train", _set(["model"], "train", []), [], "model.train"),
        ("train", _strategy("multi-noise", "noise", interpret_as_stddev="no"), [],
         "unknown ['interpret_as_stddev']"),
        ("train", _set(["model", "train"], "learning_rate", "0.001"), [],
         "model.train.learning_rate"),
        ("train", _set(["model", "train"], "learning_rate", float("nan")), [],
         "model.train.learning_rate"),
        ("train", _set(["model"], "dropout", "0.1"), [], "model.dropout"),
        ("train", _set(["data", "split"], "train_end", 5), [], "data.split.train_end"),
        ("train", _set(["data", "split"], "train_end", "yesterday"), [],
         "data.split.train_end"),
        ("train", _strategy("multi-noise", "noise", sigma="0.1"), [], "noise.sigma"),
        ("train", _strategy("multi-cgan", "cgan", lr_generator="1e-4"), [], "cgan.lr_generator"),
        ("train", lambda d: d["data"]["split"].update(train_end="2011-01-03T02:00:00+00:00",
                                                      val_end="2011-01-03T14:30:00+00:00"),
         [], "the split boundaries and the series timestamps"),
        ("evaluate", _drop("dropout_rate"), [], "dropout_rate"),
        ("evaluate", _drop("input_dim"), [], "input_dim"),
        ("evaluate", _drop("output_dim"), [], "output_dim"),
        ("evaluate", _drop("metadata"), [], "metadata"),
        ("evaluate", _drop("metadata", "p"), [], "metadata keys missing ['p']"),
        ("evaluate", _drop("metadata", "q"), [], "metadata keys missing ['q']"),
        ("evaluate", _drop("metadata", "normalization"), [], "metadata.normalization"),
        ("evaluate", _set([], "metadata", []), [], "metadata"),
        ("evaluate", _set(["metadata", "normalization"], "max", "1"), [],
         "metadata.normalization.max"),
        ("evaluate", _set([], "dropout_rate", "0.1"), [], "dropout_rate"),
        ("evaluate", _set(["metadata"], "p", 2.5), [], "metadata.p"),
        ("evaluate", lambda d: d["metadata"].update(strategy_tag="cdad", max_step=None,
                                                    time_step_augmented=True),
         [], "metadata.max_step"),
        ("evaluate", _set(["metadata"], "p", 3), [], "metadata.p 3, metadata.max_step None do not"),
        ("evaluate", _set(["metadata"], "strategy_tag", "multi"), [],
         "metadata.p 4, metadata.q 4 do not fit the networks: net dims (4, 1)"),
        ("evaluate", _set(["metadata"], "hybrid", True), [], "unknown ['hybrid']"),
        ("compare", _set([], "overall_mse", "0.1"), [], "overall_mse"),
        ("compare", _set([], "overall_mse", None), [], "overall_mse"),
        ("compare", _set([], "model_tag", 3), [], "model_tag"),
        ("synth-data", _keep, ["--points", "10", "--seed", "-1"], "seed must be an integer >= 0"),
    ], ids=["seed-1.5", "seed-true", "seed-2.0", "seed-str", "seed-flag-neg", "train-list",
            "stddev-str", "lr-str", "lr-nan", "dropout-str", "train-end-int",
            "train-end-word", "sigma-str", "lr-generator-str", "split-offsets",
            "no-dropout-rate", "no-input-dim", "no-output-dim", "no-metadata", "no-p", "no-q",
            "no-normalization", "metadata-list", "max-str", "dropout-rate-str", "p-2.5",
            "cdad-no-depth", "p-over-net", "multi-q-over-net", "hybrid-on-recursive", "mse-str",
            "mse-null", "tag-int", "synth-seed-neg"])
    def test_refused(self, tmp_path, series_csv, model_doc, capsys, command, edit, flags,
                     named):
        doc = {"train": base_config(), "evaluate": json.loads(json.dumps(model_doc)),
               "compare": _report(), "synth-data": {}}[command]
        edit(doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--config", str(path), "--data", str(series_csv), "--out", out],
            "evaluate": ["evaluate", "--model", str(path), "--data", str(series_csv),
                         "--report", out],
            "compare": ["compare", "--reports", str(path), "--baseline", "recursive",
                        "--out", out],
            "synth-data": ["synth-data", "--output", out],
        }[command]
        assert cli.main(argv + flags) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["input.json"]
        assert named in capsys.readouterr().err


def test_allocation_beyond_the_address_space_exits_one(tmp_path, series_csv, capsys):
    # 10**15 hidden units ask for petabytes, so the allocation fails at
    # once and nothing is allocated
    doc = base_config()
    doc["model"]["hidden_units"] = 10**15
    assert run_train(tmp_path, series_csv, doc)[0] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_memory_error_without_text_exits_one(tmp_path, series_csv, capsys, monkeypatch):
    # `[hidden_units] * hidden_layers` raises a MemoryError with no message
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(pipeline, "train", out_of_memory)
    assert run_train(tmp_path, series_csv, base_config())[0] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert capsys.readouterr().err == "error: out of memory\n"


class TestMissingOutputDirectoryExitsTwo:
    """An output in a directory that does not exist is refused before any
    input is read or anything is trained or written."""

    @staticmethod
    def refused(tmp_path, capsys, argv, flag):
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert capsys.readouterr().err.startswith(f"error: {flag} ")

    def test_ingest(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,flow\n2011-01-01T00:00:00,1\n")
        self.refused(tmp_path, capsys, ["ingest", "--input", str(raw), "--output",
                                        str(tmp_path / "nodir" / "agg.csv")], "--output")

    def test_synth_data(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, ["synth-data", "--points", "10", "--output",
                                        str(tmp_path / "nodir" / "s.csv")], "--output")

    def test_train(self, tmp_path, series_csv, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("trained before the output path was checked")

        monkeypatch.setattr(pipeline, "train", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config()))
        self.refused(tmp_path, capsys, ["train", "--config", str(cfg), "--data", str(series_csv),
                                        "--out", str(tmp_path / "nodir" / "m.json")], "--out")

    @pytest.mark.parametrize("flag", ["--report", "--curves"])
    def test_evaluate(self, tmp_path, series_csv, model_doc, capsys, flag):
        model = tmp_path / "model.json"
        serialize.dump_json(model_doc, model)
        outputs = {"--report": str(tmp_path / "r.json"), "--curves": str(tmp_path / "c.csv"),
                   flag: str(tmp_path / "nodir" / "out")}
        self.refused(tmp_path, capsys, ["evaluate", "--model", str(model), "--data",
                                        str(series_csv), *sum(outputs.items(), ())], flag)

    @pytest.mark.parametrize("flag", ["--out", "--curves"])
    def test_compare(self, tmp_path, capsys, flag):
        report = tmp_path / "r.json"
        serialize.dump_json(_report(), report)
        outputs = {"--out": str(tmp_path / "cmp"), "--curves": str(tmp_path / "c.csv"),
                   flag: str(tmp_path / "nodir" / "out")}
        self.refused(tmp_path, capsys, ["compare", "--reports", str(report), "--baseline",
                                        "recursive", *sum(outputs.items(), ())], flag)


class TestDirectoryAsOutputExitsTwo:
    """An output file that is an existing directory is refused before any
    input is read or anything is trained or written."""

    refused = staticmethod(TestMissingOutputDirectoryExitsTwo.refused)

    def test_ingest(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,flow\n2011-01-01T00:00:00,1\n")
        (tmp_path / "agg").mkdir()
        self.refused(tmp_path, capsys, ["ingest", "--input", str(raw), "--output",
                                        str(tmp_path / "agg")], "--output")

    @pytest.mark.parametrize("slash", ["", "/"], ids=["bare", "trailing-slash"])
    def test_synth_data(self, tmp_path, capsys, slash):
        (tmp_path / "adir").mkdir()
        self.refused(tmp_path, capsys, ["synth-data", "--points", "10", "--output",
                                        str(tmp_path / "adir") + slash], "--output")

    def test_train(self, tmp_path, series_csv, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("trained before the output path was checked")

        monkeypatch.setattr(pipeline, "train", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config()))
        (tmp_path / "m.json").mkdir()
        self.refused(tmp_path, capsys, ["train", "--config", str(cfg), "--data", str(series_csv),
                                        "--out", str(tmp_path / "m.json")], "--out")

    def test_ingest_sidecar(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,flow\n2011-01-01T00:00:00,1\n")
        (tmp_path / "agg.csv.json").mkdir()
        self.refused(tmp_path, capsys, ["ingest", "--input", str(raw), "--output",
                                        str(tmp_path / "agg.csv")], "--output")

    @pytest.mark.parametrize("sibling", [".config.json", ".log.json"])
    def test_train_sibling(self, tmp_path, series_csv, capsys, monkeypatch, sibling):
        def never(*args):
            raise AssertionError("trained before the output path was checked")

        monkeypatch.setattr(pipeline, "train", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config()))
        (tmp_path / ("m.json" + sibling)).mkdir()
        self.refused(tmp_path, capsys, ["train", "--config", str(cfg), "--data", str(series_csv),
                                        "--out", str(tmp_path / "m.json")], "--out")

    @pytest.mark.parametrize("flag", ["--report", "--curves"])
    def test_evaluate(self, tmp_path, series_csv, model_doc, capsys, flag):
        model = tmp_path / "model.json"
        serialize.dump_json(model_doc, model)
        (tmp_path / "adir").mkdir()
        outputs = {"--report": str(tmp_path / "r.json"), "--curves": str(tmp_path / "c.csv"),
                   flag: str(tmp_path / "adir")}
        self.refused(tmp_path, capsys, ["evaluate", "--model", str(model), "--data",
                                        str(series_csv), *sum(outputs.items(), ())], flag)

    def test_compare(self, tmp_path, capsys):
        # --out is a prefix: a directory of that name is no obstacle, one named
        # like the .json or .txt file it writes is
        report = tmp_path / "r.json"
        serialize.dump_json(_report(), report)
        (tmp_path / "cmp").mkdir()
        argv = ["compare", "--reports", str(report), "--baseline", "recursive", "--out",
                str(tmp_path / "cmp")]
        (tmp_path / "cmp.txt").mkdir()
        self.refused(tmp_path, capsys, argv, "--out")
        (tmp_path / "cmp.txt").rmdir()
        assert cli.main(argv) == 0
        assert (tmp_path / "cmp.json").is_file() and (tmp_path / "cmp.txt").is_file()


class TestOutputOverAFileOfTheCommandExitsTwo:
    """An output file that is one of the command's inputs, or another of its
    outputs, by any path, symlink or hard link, is refused before any work:
    the input keeps its bytes and nothing is written."""

    @pytest.mark.parametrize("argv, flag", [
        (["ingest", "--input", "raw.csv", "--output", "raw.csv"], "--output"),
        (["ingest", "--input", "raw.csv", "--output", "./sub/../raw.csv"], "--output"),
        (["ingest", "--input", "raw.csv", "--output", "link.csv"], "--output"),
        (["ingest", "--input", "raw.csv", "--output", "hard.csv"], "--output"),
        (["ingest", "--input", "agg.json", "--output", "agg"], "--output"),
        (["train", "--config", "cfg.json", "--data", "raw.csv", "--out", "cfg.json"], "--out"),
        (["train", "--config", "cfg.json", "--data", "raw.csv", "--out", "raw.csv"], "--out"),
        (["train", "--config", "m.json.config.json", "--data", "raw.csv", "--out", "m.json"],
         "--out"),
        (["train", "--config", "cfg.json", "--data", "m.json.log.json", "--out", "m.json"],
         "--out"),
        (["evaluate", "--model", "model.json", "--data", "raw.csv", "--report", "model.json"],
         "--report"),
        (["evaluate", "--model", "model.json", "--data", "raw.csv", "--report", "r.json",
          "--curves", "raw.csv"], "--curves"),
        (["evaluate", "--model", "model.json", "--data", "raw.csv", "--report", "r.json",
          "--curves", "r.json"], "--curves"),
        (["compare", "--reports", "rep.json", "--baseline", "recursive", "--out", "rep"],
         "--out"),
        (["compare", "--reports", "rep.json", "rep.txt", "--baseline", "recursive", "--out",
          "rep"], "--out"),
        (["compare", "--reports", "rep.json", "--baseline", "recursive", "--out", "cmp",
          "--curves", "rep.json"], "--curves"),
        (["compare", "--reports", "rep.json", "--baseline", "recursive", "--out", "cmp",
          "--curves", "cmp.txt"], "--curves"),
    ], ids=["ingest-input", "ingest-input-dotted", "ingest-input-symlink",
            "ingest-input-hard-link", "ingest-sidecar",
            "train-config", "train-data", "train-config-echo", "train-log", "evaluate-model",
            "evaluate-curves-data", "evaluate-curves-report", "compare-json", "compare-txt",
            "compare-curves-report", "compare-curves-txt"])
    def test_refused(self, tmp_path, series_csv, model_doc, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        raw = series_csv.read_bytes()
        for name in ("raw.csv", "agg.json", "m.json.log.json"):
            (tmp_path / name).write_bytes(raw)
        (tmp_path / "link.csv").symlink_to(tmp_path / "raw.csv")
        (tmp_path / "hard.csv").hardlink_to(tmp_path / "raw.csv")
        for name, doc in (("cfg.json", base_config()), ("m.json.config.json", base_config()),
                          ("model.json", model_doc), ("rep.json", _report()),
                          ("rep.txt", dict(_report(), model_tag="direct"))):  # a second tag
            serialize.dump_json(doc, tmp_path / name)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert cli.main(argv) == 2
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and " would overwrite --" in err


class TestMalformedJsonExitsTwo:
    """A JSON input that does not parse, or is not an object, is a ConfigError."""

    def test_train_config(self, tmp_path, series_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config())[:-7])
        out = tmp_path / "model.json"
        code = cli.main(["train", "--config", str(cfg), "--data", str(series_csv),
                         "--out", str(out)])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("text", ['{"format_version": 1, "metadata": {', "[1, 2]"],
                             ids=["truncated", "list"])
    def test_evaluate_model(self, tmp_path, series_csv, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        report = tmp_path / "r.json"
        assert evaluate(model, series_csv, report) == 2
        assert not report.exists()

    def test_compare_reports(self, tmp_path, series_csv):
        _, model = run_train(tmp_path, series_csv, base_config())
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert evaluate(model, series_csv, good) == 0
        bad.write_text(good.read_text()[:-10])
        out = tmp_path / "cmp"
        code = cli.main(["compare", "--reports", str(good), str(bad), "--baseline",
                         "recursive", "--out", str(out)])
        assert code == 2
        assert not (tmp_path / "cmp.json").exists() and not (tmp_path / "cmp.txt").exists()

    def test_compare_report_fields(self, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"model_tag": "recursive", "overall_mse": 0.5}))
        out = tmp_path / "cmp"
        code = cli.main(["compare", "--reports", str(partial), "--baseline", "recursive",
                         "--out", str(out)])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["partial.json"]
        assert "missing ['num_samples', 'overall_mae'" in capsys.readouterr().err

    def test_compare_refuses_a_bad_report_before_writing(self, tmp_path, capsys):
        # a report whose model_tag is a number once wrote <out>.json, then
        # failed rendering the text table
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_report()))
        bad.write_text(json.dumps(dict(_report(), model_tag=3)))
        code = cli.main(["compare", "--reports", str(good), str(bad), "--baseline",
                         "recursive", "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]
        assert "model_tag must be a string" in capsys.readouterr().err

    def test_compare_refuses_a_repeated_model_tag(self, tmp_path, capsys):
        # a second report under the baseline's tag once showed as a second
        # baseline row, with no improvement, and wrote its curve rows twice
        report = tmp_path / "a.json"
        report.write_text(json.dumps(dict(_report(), model_tag="a")))
        code = cli.main(["compare", "--reports", str(report), str(report), "--baseline", "a",
                         "--out", str(tmp_path / "cmp"), "--curves", str(tmp_path / "c.csv")])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert "model tag 'a' is given by 2 reports" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_reference() -> dict:
    """{dotted key: (kind, default)} from the README's config reference table."""
    text = README.read_text().split("Config reference", 1)[1]
    rows = re.findall(r"^\| `([\w.]+)` \| (.+) \| (.+) \|$", text, re.M)
    return {key: (kind, default) for key, kind, default in rows}


def _flatten(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


class TestConfigReference:
    """The README's config reference table says what `resolve_config` does,
    and every config the README ships resolves."""

    def test_every_readme_config_resolves(self):
        blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
        assert len(blocks) == 2
        for block in blocks:
            pipeline.resolve_config(json.loads(block))

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    def test_keys_and_defaults(self, strategy):
        split = {"train_end": "2011-01-03T02:00:00", "val_end": "2011-01-03T14:30:00"}
        given = {"data": {"split": split}, "model": {"strategy": strategy}}
        filled = _flatten(pipeline.resolve_config(given))
        reference = _readme_reference()
        required = {k for k, (_, default) in reference.items() if default == "required"}
        assert required == set(_flatten(given))
        sections = {"seed", "data", "model", pipeline.STRATEGIES[strategy].section}
        documented = {k: d.strip("`") for k, (_, d) in reference.items()
                      if k not in required and k.split(".")[0] in sections}
        assert {k: json.dumps(v) for k, v in filled.items() if k not in required} == documented

    def test_kinds_are_the_config_rows(self):
        def leaves(table, prefix=""):
            for key, kind in table.items():
                if kind.rows is not None:
                    yield from leaves(kind.rows, f"{prefix}{key}.")
                else:
                    yield prefix + key, kind.what + " or null" * (kind.default is None)

        documented = {k: kind for k, (kind, _) in _readme_reference().items()}
        assert documented == dict(leaves(pipeline.CONFIG))

