"""Seeded synthetic traffic-like series, and the benchmark runs on them.

The real freeway extract cannot ship with the repo, so benchmark runs
use a fixed-parameter stand-in: a daily and a sub-daily sinusoid over a
slow trend, with noise whose scale follows the daily cycle.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from . import evaluation, pipeline, schema, strategies
from .data import TimeSeries, make_windows

POINTS_PER_DAY = 96  # 15-minute intervals
START, RESOLUTION = datetime(2011, 1, 1), timedelta(minutes=15)


def make_synthetic_series(
    n_points: int,
    seed: int = 0,
    start: datetime = START,
    resolution: timedelta = RESOLUTION,
) -> TimeSeries:
    schema.Int(2).check(n_points, "n_points")
    schema.Int(0).check(seed, "seed")
    rng = np.random.default_rng(seed)
    t = np.arange(n_points, dtype=float)
    daily = np.sin(2.0 * np.pi * t / POINTS_PER_DAY)
    rush = np.sin(4.0 * np.pi * t / POINTS_PER_DAY + 0.7)
    base = 220.0 + 0.004 * t + 90.0 * daily + 35.0 * rush
    noise_scale = 6.0 * (1.0 + 0.6 * daily)
    values = base + rng.normal(0.0, 1.0, n_points) * np.abs(noise_scale)
    values = np.maximum(values, 0.0)
    return TimeSeries(start, values, resolution)


def split(n_train: int, n_val: int = 300) -> dict:
    """The `data.split` of a benchmark series that trains on its first
    `n_train` points and validates on the next `n_val`."""
    train_end = START + (n_train - 1) * RESOLUTION
    return {"train_end": train_end.isoformat(),
            "val_end": (train_end + n_val * RESOLUTION).isoformat()}


# The benchmark's validated `cgan` section, less its epochs. Its discriminator
# deliberately learns slower than its generator; otherwise it wins outright on
# these small benchmarks and its accuracy never falls back toward chance.
CGAN = {"hidden_layers": 2, "hidden_units": 64, "noise_dim": 8, "batch_size": 64,
        "lr_generator": 2e-3, "lr_discriminator": 2e-4}


def run_seeds(configs, seeds, n_points: int) -> dict[str, list[evaluation.MetricsReport]]:
    """{strategy: [test-segment report per seed]} of each `multistep train`
    config, trained at each seed (the config's own is overridden) on the
    `n_points` benchmark series seeded 1000 above it."""
    out = {cfg["model"]["strategy"]: [] for cfg in configs}
    for seed in seeds:
        series = make_synthetic_series(n_points, seed=1000 + seed)
        for cfg in configs:
            cfg = pipeline.resolve_config(cfg, seed_override=seed)
            model, _, _, test = pipeline.run(cfg, series)
            p, q, tag = cfg["data"]["p"], cfg["data"]["q"], cfg["model"]["strategy"]
            out[tag].append(evaluation.evaluate(strategies.batch_predictor(model, q),
                                                make_windows(test, p, q), model_tag=tag))
    return out
