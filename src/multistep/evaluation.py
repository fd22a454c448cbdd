"""Multi-step forecast evaluation: per-step and overall MSE/MAE,
percent improvement against a named baseline, and table/curve exports."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from . import schema
from .data import Normalizer, WindowedDataset
from .errors import ConfigError, NumericError, ShapeError
from .serialize import dump_json, load_json

_ERRORS = schema.Seq(schema.Real(ge=0), "a list of finite reals >= 0")
# a report as `MetricsReport.to_dict` writes it
REPORT = {
    "model_tag": schema.Kind("a string", lambda v: isinstance(v, str)),
    "overall_mse": schema.Real(ge=0),
    "overall_mae": schema.Real(ge=0),
    "per_step_mse": _ERRORS,
    "per_step_mae": _ERRORS,
    "num_samples": schema.Int(1),
    "denormalized": schema.Bool(default=False),
}


@dataclass
class MetricsReport:
    model_tag: str
    overall_mse: float
    overall_mae: float
    per_step_mse: list[float]
    per_step_mae: list[float]
    num_samples: int
    denormalized: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    predict_fn,
    test: WindowedDataset,
    normalizer: Normalizer | None = None,
    model_tag: str = "model",
) -> MetricsReport:
    """Score an H-step predictor on (history, future) pairs.

    predict_fn maps a [m, p] history matrix to [m, H] predictions with
    H == test.q. With the fitted `normalizer` given, scores are in flow units.
    """
    if len(test) == 0:
        raise ConfigError("empty test dataset")
    preds = np.asarray(predict_fn(test.histories), dtype=float)
    truth = test.futures
    if preds.shape != truth.shape:
        raise ShapeError(f"predictions shape {preds.shape} != futures shape {truth.shape}")
    if not np.isfinite(preds).all():
        bad = int(np.count_nonzero(~np.isfinite(preds)))
        raise NumericError(f"{model_tag}: {bad} of {preds.size} predictions are not finite")
    if normalizer is not None:
        preds = normalizer.invert(preds)
        truth = normalizer.invert(truth)
    err = preds - truth
    per_step_mse = np.mean(err * err, axis=0)
    per_step_mae = np.mean(np.abs(err), axis=0)
    return MetricsReport(
        model_tag=model_tag,
        overall_mse=float(np.mean(err * err)),
        overall_mae=float(np.mean(np.abs(err))),
        per_step_mse=[float(v) for v in per_step_mse],
        per_step_mae=[float(v) for v in per_step_mae],
        num_samples=len(test),
        denormalized=normalizer is not None,
    )


def percent_improvement(baseline: float, candidate: float) -> float:
    """100 * (baseline - candidate) / baseline; negative when worse."""
    schema.Real(gt=0).check(baseline, "baseline")
    return 100.0 * (baseline - candidate) / baseline


def build_comparison(reports: list[MetricsReport], baseline_tag: str) -> dict:
    """The document `compare` writes: `baseline_tag` and one row per report."""
    baselines = [r for r in reports if r.model_tag == baseline_tag]
    if not baselines:
        raise ConfigError(f"baseline tag {baseline_tag!r} not among reports")
    base = baselines[0]
    rows = []
    for r in reports:
        is_base = r.model_tag == baseline_tag
        rows.append(
            {
                "model_tag": r.model_tag,
                "mse": r.overall_mse,
                "mse_improvement_pct": None
                if is_base
                else percent_improvement(base.overall_mse, r.overall_mse),
                "mae": r.overall_mae,
                "mae_improvement_pct": None
                if is_base
                else percent_improvement(base.overall_mae, r.overall_mae),
            }
        )
    return {"baseline_tag": baseline_tag, "rows": rows}


def render_comparison_text(table: dict) -> str:
    header = ["Model", "MSE", "% Improv.", "MAE", "% Improv."]
    lines = [header]
    for row in table["rows"]:
        lines.append(
            [
                row["model_tag"],
                f"{row['mse']:.6f}",
                "-" if row["mse_improvement_pct"] is None else f"{row['mse_improvement_pct']:.2f}",
                f"{row['mae']:.6f}",
                "-" if row["mae_improvement_pct"] is None else f"{row['mae_improvement_pct']:.2f}",
            ]
        )
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for j, line in enumerate(lines):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if j == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def export_step_curves(reports: list[MetricsReport], path) -> None:
    """CSV `model_tag,step,mse,mae`, one row per (model, step)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model_tag", "step", "mse", "mae"])
        for r in reports:
            for step, (mse, mae) in enumerate(zip(r.per_step_mse, r.per_step_mae), start=1):
                writer.writerow([r.model_tag, step, repr(mse), repr(mae)])


def save_report(report: MetricsReport, path) -> None:
    """Write report as JSON; a NaN or infinity raises NumericError and writes nothing."""
    dump_json(report.to_dict(), path)


def load_report(path) -> MetricsReport:
    doc = load_json(path)
    try:
        return MetricsReport(**schema.check(doc, REPORT))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
