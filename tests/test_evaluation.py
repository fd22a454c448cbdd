import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import evaluation as ev
from multistep import nn, serialize, strategies
from multistep.data import Normalizer, WindowedDataset
from multistep.errors import ConfigError, NumericError, ShapeError


def dataset_from(futures):
    futures = np.atleast_2d(np.asarray(futures, dtype=float))
    m, q = futures.shape
    return WindowedDataset(np.zeros((m, 2)), futures, 2, q)


def constant_predictor(values):
    values = np.asarray(values, dtype=float)
    return lambda h: np.tile(values, (h.shape[0], 1))


class TestEvaluate:
    def test_hand_arithmetic(self):
        # prediction [1, 3] vs truth [0, 1]: squared errors [1, 4],
        # absolute errors [1, 2].
        report = ev.evaluate(constant_predictor([1.0, 3.0]), dataset_from([[0.0, 1.0]]))
        assert report.per_step_mse == [1.0, 4.0]
        assert report.per_step_mae == [1.0, 2.0]
        assert report.overall_mse == 2.5
        assert report.overall_mae == 1.5
        assert report.num_samples == 1

    def test_perfect_predictor_scores_zero(self):
        data = dataset_from([[0.2, 0.4], [0.6, 0.8]])
        report = ev.evaluate(lambda h: data.futures, data)
        assert report.overall_mse == 0.0
        assert report.overall_mae == 0.0

    def test_overall_is_mean_of_per_step(self):
        rng = np.random.default_rng(0)
        data = dataset_from(rng.uniform(0, 1, (9, 4)))
        report = ev.evaluate(constant_predictor(rng.uniform(0, 1, 4)), data)
        assert report.overall_mse == pytest.approx(np.mean(report.per_step_mse))
        assert report.overall_mae == pytest.approx(np.mean(report.per_step_mae))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=12))
    def test_mae_squared_never_exceeds_mse(self, errs):
        truth = np.zeros((1, len(errs)))
        report = ev.evaluate(constant_predictor(errs), dataset_from(truth))
        assert report.overall_mae**2 <= report.overall_mse + 1e-12

    def test_denormalized_units(self):
        norm = Normalizer(0.0, 10.0)
        data = dataset_from([[0.1, 0.2]])
        report = ev.evaluate(constant_predictor([0.2, 0.4]), data, norm)
        # errors of 0.1/0.2 normalized are 1.0/2.0 in raw units
        assert report.per_step_mae == pytest.approx([1.0, 2.0])
        assert report.denormalized
        assert not ev.evaluate(constant_predictor([0.2, 0.4]), data).denormalized

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ev.evaluate(constant_predictor([0.0]), dataset_from([[0.0, 1.0]]))

    def test_empty_test_set_rejected(self):
        empty = WindowedDataset(np.empty((0, 2)), np.empty((0, 1)), 2, 1)
        with pytest.raises(ConfigError):
            ev.evaluate(constant_predictor([0.0]), empty)

    def test_non_finite_predictions_rejected(self):
        # Finite histories through a net with huge parameters overflow to inf.
        net = nn.init_mlp([3, 4, 2], rng=0)
        net.params[:] = 1e200
        model = strategies.MultiOutputModel(net, p=3, q=2)
        data = WindowedDataset(np.full((5, 3), 0.5), np.zeros((5, 2)), 3, 2)
        predict = strategies.batch_predictor(model, 2)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert not np.isfinite(predict(data.histories)).all()
            with pytest.raises(NumericError, match="10 of 10 predictions are not finite"):
                ev.evaluate(predict, data)
        with pytest.raises(NumericError):
            ev.evaluate(constant_predictor([0.0, np.nan]), data)


class TestPercentImprovement:
    def test_published_style_values(self):
        assert ev.percent_improvement(0.0101, 0.0092) == pytest.approx(8.91, abs=0.005)
        assert ev.percent_improvement(0.0101, 0.0078) == pytest.approx(22.77, abs=0.005)
        assert ev.percent_improvement(0.0781, 0.0563) == pytest.approx(27.91, abs=0.005)

    def test_signs(self):
        assert ev.percent_improvement(1.0, 0.5) == 50.0
        assert ev.percent_improvement(1.0, 2.0) == -100.0
        assert ev.percent_improvement(1.0, 1.0) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ConfigError):
            ev.percent_improvement(0.0, 1.0)


def mk_report(tag, mse, mae):
    return ev.MetricsReport(
        model_tag=tag,
        overall_mse=mse,
        overall_mae=mae,
        per_step_mse=[mse],
        per_step_mae=[mae],
        num_samples=5,
    )


class TestComparison:
    def test_baseline_row_has_no_improvement(self):
        reports = [mk_report("a", 0.0101, 0.08), mk_report("b", 0.0092, 0.07)]
        table = ev.build_comparison(reports, "a")
        assert table["baseline_tag"] == "a"
        assert table["rows"][0]["mse_improvement_pct"] is None
        assert table["rows"][1]["mse_improvement_pct"] == pytest.approx(8.91, abs=0.005)

    def test_three_model_table(self):
        reports = [
            mk_report("recursive", 0.0101, 0.0781),
            mk_report("corrective", 0.0092, 0.0627),
            mk_report("conditioned", 0.0078, 0.0563),
        ]
        table = ev.build_comparison(reports, "recursive")
        got = [r["mse_improvement_pct"] for r in table["rows"]]
        assert got[0] is None
        assert got[1] == pytest.approx(8.91, abs=0.005)
        assert got[2] == pytest.approx(22.77, abs=0.005)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigError):
            ev.build_comparison([mk_report("a", 1.0, 1.0)], "nope")

    def test_render_text_contains_all_tags(self):
        reports = [mk_report("base", 0.01, 0.08), mk_report("new", 0.009, 0.07)]
        text = ev.render_comparison_text(ev.build_comparison(reports, "base"))
        assert "base" in text and "new" in text
        assert text.count("\n") >= 4  # header, rule, two rows


class TestExports:
    def test_report_round_trip(self, tmp_path):
        report = mk_report("m", 0.1 + 0.2, 1.0 / 3.0)
        path = tmp_path / "r.json"
        ev.save_report(report, path)
        back = ev.load_report(path)
        assert back == report  # bit-exact floats via plain JSON round trip

    @pytest.mark.parametrize("edit, match", [
        (lambda d: {"model_tag": "m", "overall_mse": 0.5},
         r"missing \['num_samples', 'overall_mae', 'per_step_mae', 'per_step_mse'\], unknown \[\]"),
        (lambda d: dict(d, extra=1), r"missing \[\], unknown \['extra'\]"),
        (lambda d: {k: v for k, v in d.items() if k != "denormalized"}, None),
    ], ids=["missing", "unknown", "default-omitted"])
    def test_report_fields_checked_on_load(self, tmp_path, edit, match):
        report = mk_report("m", 0.5, 0.25)
        path = tmp_path / "r.json"
        serialize.dump_json(edit(report.to_dict()), path)
        if match is None:
            assert ev.load_report(path) == report
            return
        with pytest.raises(ConfigError, match=match) as exc:
            ev.load_report(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_report_rejected_and_nothing_written(self, tmp_path, bad):
        path = tmp_path / "r.json"
        with pytest.raises(NumericError):
            ev.save_report(mk_report("m", bad, 0.5), path)
        assert not path.exists()

    def test_step_curve_rows(self, tmp_path):
        r1 = ev.MetricsReport("a", 0.2, 0.1, [0.1, 0.3], [0.05, 0.15], 4)
        r2 = ev.MetricsReport("b", 0.2, 0.1, [0.2, 0.4], [0.1, 0.2], 4)
        path = tmp_path / "curves.csv"
        ev.export_step_curves([r1, r2], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model_tag,step,mse,mae"
        assert len(lines) == 5
        assert lines[1] == "a,1,0.1,0.05"
        assert lines[4] == "b,2,0.4,0.2"
