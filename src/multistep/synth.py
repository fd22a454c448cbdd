"""Seeded synthetic traffic-like series, and the benchmark runs on them.

The real freeway extract cannot ship with the repo, so benchmark runs
use a fixed-parameter stand-in: a daily and a sub-daily sinusoid over a
slow trend, with noise whose scale follows the daily cycle.
"""

from __future__ import annotations

import warnings
from datetime import datetime, timedelta

import numpy as np

from . import cgan, evaluation, pipeline, schema, strategies
from .data import TimeSeries, fit_normalizer, make_windows

POINTS_PER_DAY = 96  # 15-minute intervals


def make_synthetic_series(
    n_points: int,
    seed: int = 0,
    start: datetime | None = None,
    resolution: timedelta | None = None,
) -> TimeSeries:
    schema.Int(2).check(n_points, "n_points")
    schema.Int(0).check(seed, "seed")
    if start is None:
        start = datetime(2011, 1, 1)
    if resolution is None:
        resolution = timedelta(minutes=15)
    rng = np.random.default_rng(seed)
    t = np.arange(n_points, dtype=float)
    daily = np.sin(2.0 * np.pi * t / POINTS_PER_DAY)
    rush = np.sin(4.0 * np.pi * t / POINTS_PER_DAY + 0.7)
    base = 220.0 + 0.004 * t + 90.0 * daily + 35.0 * rush
    noise_scale = 6.0 * (1.0 + 0.6 * daily)
    values = base + rng.normal(0.0, 1.0, n_points) * np.abs(noise_scale)
    values = np.maximum(values, 0.0)
    return TimeSeries(start, values, resolution)


def benchmark_splits(seed: int, n_train: int, n_val: int = 300, n_test: int = 300):
    """Train/val/test values of benchmark seed `seed`, min-max normalised on train."""
    series = make_synthetic_series(n_train + n_val + n_test, seed=1000 + seed)
    v = fit_normalizer(series.values[:n_train]).apply(series.values)
    return v[:n_train], v[n_train : n_train + n_val], v[n_train + n_val :]


def benchmark_gan_config(seed: int, epochs: int) -> cgan.CganConfig:
    # The discriminator deliberately learns slower than the generator
    # here; otherwise it wins outright on these small benchmarks and its
    # accuracy never falls back toward chance.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cgan.CganConfig(noise_dim=8, epochs=epochs, batch_size=64, seed=seed,
                               hidden_layers=2, hidden_units=64,
                               lr_generator=2e-3, lr_discriminator=2e-4)


def run_seeds(tags, seeds, spec_for, n_train: int) -> dict[str, list[evaluation.MetricsReport]]:
    """{tag: [held-out report per seed]}; at each seed every tag trains with `spec_for(seed)`."""
    out = {tag: [] for tag in tags}
    for seed in seeds:
        train, val, test = benchmark_splits(seed, n_train)
        spec = spec_for(seed)
        windows = make_windows(test, spec.p, spec.q)
        for tag in tags:
            model, _ = pipeline.train(tag, train, val, spec)
            predict = strategies.batch_predictor(model, spec.q)
            out[tag].append(evaluation.evaluate(predict, windows, model_tag=tag))
    return out
