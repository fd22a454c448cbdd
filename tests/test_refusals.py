"""Refusals of bad values that no other unit test reaches: each raises its
typed error with a message that names what is wrong."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from multistep import nn, strategies
from multistep.data import (Normalizer, TimeSeries, WindowedDataset, aggregate, fit_normalizer,
                            make_windows)
from multistep.errors import ConfigError, IngestError, NumericError, ShapeError

START, STEP = datetime(2011, 1, 1), timedelta(minutes=15)


def layer(out_dim, in_dim, fill=0.0):
    return nn.Layer(np.full((out_dim, in_dim), fill), np.zeros(out_dim))


def net(in_dim, out_dim):
    return nn.init_net(in_dim, out_dim, 0, hidden_layers=0)


class Pairs:
    """The histories and futures `fit` reads, unchecked."""

    def __init__(self, x_shape, y_shape):
        self.histories, self.futures = np.zeros(x_shape), np.zeros(y_shape)


@pytest.mark.parametrize("build, error, message", [
    (lambda: nn.Mlp([]), ConfigError, r"Mlp needs at least one layer"),
    (lambda: nn.Mlp([nn.Layer(np.zeros((2, 3)), np.zeros(3))]), ShapeError,
     r"layer 0: bias shape \(3,\) != \(2,\)"),
    (lambda: nn.Mlp([layer(2, 3), layer(1, 4)]), ShapeError,
     r"layer 1 in_dim 4 != layer 0 out_dim 2"),
    (lambda: nn.Mlp([layer(2, 3), layer(1, 2, np.inf)]), NumericError,
     r"layer 1 has non-finite parameters"),
    (lambda: nn.init_mlp([3], rng=0), ConfigError, r"need at least input and output dims"),
    (lambda: nn.forward(net(3, 1), np.zeros((2, 3)), mode="test"), ConfigError,
     r"mode must be 'train' or 'eval', got 'test'"),
    (lambda: nn.fit(net(3, 1), Pairs((4,), (4, 1)), nn.TrainConfig()), ShapeError,
     r"bad dataset shapes \(4,\), \(4, 1\)"),
    (lambda: nn.fit(net(3, 1), Pairs((4, 3), (5, 1)), nn.TrainConfig()), ShapeError,
     r"bad dataset shapes \(4, 3\), \(5, 1\)"),
    (lambda: nn.fit(net(3, 1), Pairs((4, 2), (4, 1)), nn.TrainConfig()), ShapeError,
     r"dataset dims \(2, 1\) != net dims \(3, 1\)"),
    (lambda: TimeSeries(START, [], STEP), IngestError, r"no data rows"),
    (lambda: TimeSeries(START, [1.0, np.nan], STEP), IngestError, r"non-finite values"),
    (lambda: Normalizer(2.0, 2.0), ConfigError, r"max \(2.0\) must exceed min \(2.0\)"),
    (lambda: Normalizer(2.0, 1.0), ConfigError, r"max \(1.0\) must exceed min \(2.0\)"),
    (lambda: WindowedDataset(np.zeros((3, 2)), np.zeros((4, 1)), 2, 1), ShapeError,
     r"bad window shapes \(3, 2\), \(4, 1\)"),
    (lambda: WindowedDataset(np.zeros(3), np.zeros((3, 1)), 1, 1), ShapeError,
     r"bad window shapes \(3,\), \(3, 1\)"),
    (lambda: WindowedDataset(np.zeros((3, 2)), np.zeros((3, 1)), 3, 1), ShapeError,
     r"window widths \(2, 1\) != \(p=3, q=1\)"),
    (lambda: aggregate(TimeSeries(START, [1.0, 2.0], STEP), 3), ConfigError,
     r"series length 2 < factor 3"),
    (lambda: fit_normalizer([1.0]), ConfigError, r"need at least 2 values to fit a normalizer"),
    (lambda: strategies.RecursiveModel(net(3, 2), p=3), ShapeError,
     r"recursive model must have a single output"),
    (lambda: strategies.DirectModelSet([net(3, 1), net(4, 1)], q=2, p=3), ShapeError,
     r"model 2: input_dim 4 != 3"),
    (lambda: strategies.DirectModelSet([net(3, 1), net(3, 2)], q=2, p=3), ShapeError,
     r"model 2: output_dim must be 1"),
    (lambda: strategies.train_recursive(make_windows(np.arange(10.0), 3, 2), nn.TrainConfig()),
     ConfigError, r"recursive training needs q == 1 windows, got q=2"),
], ids=["mlp-no-layers", "mlp-bias-shape", "mlp-unchained", "mlp-non-finite",
        "init-mlp-one-dim", "forward-mode", "fit-1d", "fit-lengths", "fit-dims",
        "series-empty", "series-non-finite", "normalizer-equal", "normalizer-inverted",
        "windows-lengths", "windows-1d", "windows-widths", "aggregate-short",
        "normalizer-one-value", "recursive-two-outputs", "direct-input-dim",
        "direct-output-dim", "train-recursive-q"])
def test_refused(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
