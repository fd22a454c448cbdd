#!/usr/bin/env python3
"""Run every forecasting strategy on the seeded synthetic benchmark and
print the overall-MSE/MAE comparison table, with per-step error curves
optionally exported as CSV.

Example:
    python3 scripts/run_synthetic_experiments.py --seeds 0 1 2 --out results/
"""

from __future__ import annotations

import argparse
import time
import warnings
from pathlib import Path

import numpy as np

from multistep import cgan, evaluation, nn, pipeline, strategies, synth
from multistep.data import fit_normalizer, make_windows

P = 8
HORIZON = 8


def splits(seed: int, n_train: int, n_val: int = 300, n_test: int = 300):
    series = synth.make_synthetic_series(n_train + n_val + n_test, seed=1000 + seed)
    norm = fit_normalizer(series.values[:n_train])
    v = norm.apply(series.values)
    return v[:n_train], v[n_train : n_train + n_val], v[n_train + n_val :]


def run_seed(seed: int, args) -> dict[str, evaluation.MetricsReport]:
    train, val, test = splits(seed, args.train_points)
    # The slow-discriminator warning is expected: on this small benchmark a
    # faster discriminator wins outright and the generator never catches up.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gan_cfg = cgan.CganConfig(
            noise_dim=8,
            epochs=args.gan_epochs,
            batch_size=64,
            seed=seed,
            hidden_layers=2,
            hidden_units=64,
            lr_generator=2e-3,
            lr_discriminator=2e-4,
        )
    spec = pipeline.TrainSpec(
        p=P,
        q=HORIZON,
        train=nn.TrainConfig(epochs=args.epochs, batch_size=64, seed=seed),
        hidden_layers=args.hidden_layers,
        hidden_units=args.hidden_units,
        dad=dict(
            n_steps=HORIZON,
            meta_iterations=args.meta_iterations,
            inner_epochs=max(1, args.epochs // 2),
        ),
        noise=dict(sigma=args.noise_sigma),
        cgan=gan_cfg,
    )
    test_windows = make_windows(test, P, HORIZON)
    reports = {}
    for tag in pipeline.STRATEGIES:
        model, _ = pipeline.train(tag, train, val, spec)
        reports[tag] = evaluation.evaluate(
            strategies.batch_predictor(model, HORIZON), test_windows, model_tag=tag
        )
    return reports


def median_reports(per_seed: list[dict]) -> list[evaluation.MetricsReport]:
    out = []
    for tag in per_seed[0]:
        rs = [d[tag] for d in per_seed]
        out.append(
            evaluation.MetricsReport(
                model_tag=tag,
                overall_mse=float(np.median([r.overall_mse for r in rs])),
                overall_mae=float(np.median([r.overall_mae for r in rs])),
                per_step_mse=list(np.median([r.per_step_mse for r in rs], axis=0)),
                per_step_mae=list(np.median([r.per_step_mae for r in rs], axis=0)),
                num_samples=rs[0].num_samples,
            )
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--train-points", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--gan-epochs", type=int, default=500)
    parser.add_argument("--meta-iterations", type=int, default=15)
    parser.add_argument("--hidden-layers", type=int, default=2)
    parser.add_argument("--hidden-units", type=int, default=32)
    parser.add_argument("--noise-sigma", type=float, default=0.05)
    parser.add_argument("--out", type=Path, default=None, help="directory for CSV/JSON exports")
    args = parser.parse_args()

    per_seed = []
    for seed in args.seeds:
        t0 = time.time()
        per_seed.append(run_seed(seed, args))
        print(f"seed {seed} done in {time.time() - t0:.1f}s")

    medians = median_reports(per_seed)
    table = evaluation.build_comparison(medians, "recursive")
    text = evaluation.render_comparison_text(table)
    print()
    print(f"Median over seeds {args.seeds} (normalized units):")
    print(text)

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        evaluation.export_step_curves(medians, args.out / "step_curves.csv")
        for r in medians:
            evaluation.save_report(r, args.out / f"{r.model_tag}.report.json")
        (args.out / "comparison.txt").write_text(text)
        print(f"exports written to {args.out}/")


if __name__ == "__main__":
    main()
