"""Smoke test of scripts/run_synthetic_experiments.py at tiny sizes."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
