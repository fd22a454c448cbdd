"""Seeded synthetic traffic-like series for benchmarks and tests.

The real freeway extract cannot ship with the repo, so benchmark runs
use a fixed-parameter stand-in: a daily and a sub-daily sinusoid over a
slow trend, with noise whose scale follows the daily cycle.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .data import TimeSeries
from .errors import ConfigError

POINTS_PER_DAY = 96  # 15-minute intervals


def make_synthetic_series(
    n_points: int,
    seed: int = 0,
    start: datetime | None = None,
    resolution: timedelta | None = None,
) -> TimeSeries:
    if n_points < 2:
        raise ConfigError("n_points must be >= 2")
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
