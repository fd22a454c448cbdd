"""Smoke tests of scripts/run_synthetic_experiments.py at tiny sizes."""

import csv
import importlib.util
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from multistep import evaluation

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiments.py"


def test_run_seed_scores_every_strategy_in_table_order():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    args = SimpleNamespace(
        train_points=120,
        epochs=1,
        gan_epochs=1,
        meta_iterations=1,
        hidden_layers=2,
        hidden_units=4,
        noise_sigma=0.05,
    )
    reports = script.run_seed(0, args)
    assert list(reports) == [
        "recursive", "dad", "cdad", "direct", "hybrid", "multi", "multi-noise", "multi-cgan"
    ]
    for tag, report in reports.items():
        assert report.model_tag == tag
        errors = np.array([report.per_step_mse, report.per_step_mae])
        assert errors.shape == (2, script.HORIZON) and np.all(np.isfinite(errors))


def test_main_exports_the_medians_of_every_strategy(tmp_path, monkeypatch):
    tags = ["recursive", "dad", "cdad", "direct", "hybrid", "multi", "multi-noise", "multi-cgan"]
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--seeds", "0", "1", "--train-points", "120",
                                      "--epochs", "1", "--gan-epochs", "1", "--meta-iterations",
                                      "1", "--hidden-units", "4", "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    rows = list(csv.reader((tmp_path / "step_curves.csv").read_text().splitlines()))
    assert len(rows) == 1 + 8 * 8 and [row[0] for row in rows[1::8]] == tags
    for row in rows[1:]:  # plain float literals, not np.float64(...) reprs
        assert all(np.isfinite(float(cell)) for cell in row[2:])
    table = (tmp_path / "comparison.txt").read_text().splitlines()
    assert [line.split()[0] for line in table[2:]] == tags
    for tag in tags:
        assert evaluation.load_report(tmp_path / f"{tag}.report.json").model_tag == tag
