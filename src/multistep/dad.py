"""Corrective meta-training for recursive models.

The plain variant repeatedly rolls the current model out over the
training series, pairs the drifted synthetic windows with the true next
observations, and retrains on the rebuilt set. The conditioned variant
additionally feeds the model a step-index input so a single network can
learn a different correction per rollout depth. The best iterate is
picked by validation rollout error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import TimeSeries, WindowedDataset, make_windows
from .errors import AlignmentError, ConfigError
from .nn import Mlp, TrainConfig, fit, init_mlp
from .strategies import RecursiveModel, rollout


@dataclass
class DadConfig:
    p: int
    n_steps: int  # rollout depth N
    meta_iterations: int  # K
    inner_train: TrainConfig
    conditional: bool = False
    selection_metric: str = "mse"
    hidden_layers: int = 2
    hidden_units: int = 150
    base_train: TrainConfig | None = None
    accumulate: bool = False  # keep synthetic rows from earlier iterations

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("p must be >= 1")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.meta_iterations < 1:
            raise ConfigError("meta_iterations must be >= 1")
        if self.selection_metric not in ("mse", "mae"):
            raise ConfigError(f"unknown selection metric {self.selection_metric!r}")


@dataclass
class AugmentedDataset:
    inputs: np.ndarray  # [m, p] or [m, p+1] when conditional
    targets: np.ndarray  # [m]
    tags: np.ndarray  # [m] ints; 0 = original ground-truth pair
    conditional: bool

    def to_windowed(self) -> WindowedDataset:
        return WindowedDataset(
            self.inputs, self.targets[:, None], self.inputs.shape[1], 1
        )

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class MetaTrainResult:
    best_model: RecursiveModel
    best_iteration: int
    per_iteration_val_errors: list[tuple[float, float]]  # (mse, mae)

    def to_log_dict(self) -> dict:
        return {
            "iterations": [
                {"k": k, "val_mse": mse, "val_mae": mae}
                for k, (mse, mae) in enumerate(self.per_iteration_val_errors)
            ],
            "best_iteration": self.best_iteration,
        }


def _series_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


# Not called by the package: the conditioned rollout is `rollout` with a
# step scale. The name is kept because perfbench's tracer looks it up.
_rollout_aug = rollout


def _synthetic_rows(
    values: np.ndarray,
    p: int,
    start_indices: np.ndarray,
    preds: np.ndarray,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows ending in the n-th prediction, paired with the true next value.

    Usable tags are 1..n_steps-1: the window ending in the final prediction
    has no ground-truth successor inside the rollout span.
    """
    xs, ys, tags = [], [], []
    for n in range(1, n_steps):
        if n < p:
            gt_part = np.lib.stride_tricks.sliding_window_view(values, p - n)[start_indices + n]
            window = np.concatenate([gt_part, preds[:, :n]], axis=1)
        else:
            window = preds[:, n - p : n]
        xs.append(window)
        ys.append(values[start_indices + p + n])
        tags.append(np.full(len(start_indices), n, dtype=int))
    if not xs:
        return np.empty((0, p)), np.empty(0), np.empty(0, dtype=int)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(tags)


def build_augmented_dataset(
    series,
    p: int,
    starts: np.ndarray,
    preds: np.ndarray,
    conditional: bool,
    n_steps: int,
) -> AugmentedDataset:
    """Original one-step pairs (tag 0) plus rollout-derived synthetic pairs.

    preds[i] is the n_steps-long rollout from the window at position
    starts[i], which must have n_steps true successors in the series.
    When conditional, each row gains the step feature tag/n_steps, the
    value the rollout feeds alongside the (tag+1)-th prediction.
    """
    values = _series_values(series)
    one_step = make_windows(values, p, 1)
    x0 = one_step.histories
    y0 = one_step.futures[:, 0]
    t0 = np.zeros(len(one_step), dtype=int)

    starts = np.asarray(starts)
    preds = np.asarray(preds, dtype=float)
    if starts.ndim != 1 or preds.ndim != 2 or preds.shape[0] != len(starts):
        raise AlignmentError(
            f"starts {starts.shape} and preds {preds.shape} are not one rollout per start"
        )
    if preds.shape[1] != n_steps:
        raise AlignmentError(f"trajectory length {preds.shape[1]} != n_steps {n_steps}")
    if len(starts):
        if starts.dtype.kind not in "iu":
            raise AlignmentError(f"start indices must be integers, got {starts.dtype}")
        if starts.min() < 0 or starts.max() + p + n_steps > len(values):
            raise AlignmentError("trajectory start index out of range for the series")
        xs, ys, ts = _synthetic_rows(values, p, starts, preds, n_steps)
    else:
        xs, ys, ts = np.empty((0, p)), np.empty(0), np.empty(0, dtype=int)

    inputs = np.concatenate([x0, xs])
    targets = np.concatenate([y0, ys])
    tags = np.concatenate([t0, ts])
    if conditional:
        inputs = np.concatenate([inputs, (tags / n_steps)[:, None]], axis=1)
    return AugmentedDataset(inputs, targets, tags, conditional)


def _score(preds: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    err = preds - truth
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


def select_best(
    results: Sequence[tuple[object, float, float]], metric: str = "mse"
) -> tuple[object, int]:
    """Argmin by validation metric; ties break toward the earliest index."""
    if not results:
        raise ConfigError("no candidates to select from")
    col = 1 if metric == "mse" else 2
    best = min(range(len(results)), key=lambda i: results[i][col])
    return results[best][0], best


def _meta_train(train_series, val_series, cfg: DadConfig) -> MetaTrainResult:
    train_values = _series_values(train_series)
    val_values = _series_values(val_series)
    p, n_steps, big_k = cfg.p, cfg.n_steps, cfg.meta_iterations
    base_cfg = cfg.base_train if cfg.base_train is not None else cfg.inner_train
    seed = cfg.inner_train.seed
    hidden = [cfg.hidden_units] * cfg.hidden_layers
    step_scale = n_steps if cfg.conditional else None

    one_step = make_windows(train_values, p, 1)
    roll_windows = make_windows(train_values, p, n_steps)
    val_windows = make_windows(val_values, p, n_steps)
    starts = np.arange(len(roll_windows))
    bank: list[tuple[np.ndarray, np.ndarray]] = []

    def build(preds: np.ndarray) -> WindowedDataset:
        aug = build_augmented_dataset(train_values, p, starts, preds, cfg.conditional, n_steps)
        if not cfg.accumulate:
            return aug.to_windowed()
        mask = aug.tags > 0
        bank.append((aug.inputs[mask], aug.targets[mask]))
        inputs = np.concatenate([aug.inputs[~mask]] + [b[0] for b in bank])
        targets = np.concatenate([aug.targets[~mask]] + [b[1] for b in bank])
        return WindowedDataset(inputs, targets[:, None], inputs.shape[1], 1)

    def fitted(net: Mlp, data: WindowedDataset, train: TrainConfig, k: int) -> Mlp:
        return fit(net, data, replace(train, seed=_sub_seed(seed, k)))[0]

    def candidate(net: Mlp) -> tuple[Mlp, float, float]:
        preds = rollout(net, val_windows.histories, n_steps, step_scale)
        return (net, *_score(preds, val_windows.futures))

    base_net = init_mlp(
        [p, *hidden, 1],
        dropout_rate=base_cfg.dropout_rate,
        rng=np.random.default_rng(_sub_seed(seed, 0)),
    )
    current = fitted(base_net, one_step, base_cfg, 1)
    if cfg.conditional:
        # CDaD's M_0 is trained from scratch (its input width differs) on the
        # base model's rollout, so it gets the base training budget.
        m0 = init_mlp(
            [p + 1, *hidden, 1],
            dropout_rate=cfg.inner_train.dropout_rate,
            rng=np.random.default_rng(_sub_seed(seed, 2)),
        )
        preds = rollout(current, roll_windows.histories, n_steps)
        aug = build(preds)
        current = fitted(m0, aug, base_cfg, 10)

    candidates = [candidate(current)]
    for k in range(1, big_k + 1):
        # `aug` stays bound so each rebuilt set is freed only after the next
        # exists: freeing it right after its fit measured about 7% slower on
        # perfbench's recursive-family (memory reuse; same arithmetic).
        preds = rollout(current, roll_windows.histories, n_steps, step_scale)
        aug = build(preds)
        current = fitted(current, aug, cfg.inner_train, 10 + k)
        candidates.append(candidate(current))

    best_net, best_idx = select_best(candidates, cfg.selection_metric)
    model = RecursiveModel(
        best_net, p=p, time_step_augmented=cfg.conditional, max_step=step_scale
    )
    return MetaTrainResult(
        best_model=model,
        best_iteration=best_idx,
        per_iteration_val_errors=[(mse, mae) for _, mse, mae in candidates],
    )


def train_dad(train_series, val_series, cfg: DadConfig) -> MetaTrainResult:
    if cfg.conditional:
        raise ConfigError("cfg.conditional must be False for train_dad")
    return _meta_train(train_series, val_series, cfg)


def train_cdad(train_series, val_series, cfg: DadConfig) -> MetaTrainResult:
    if not cfg.conditional:
        raise ConfigError("cfg.conditional must be True for train_cdad")
    return _meta_train(train_series, val_series, cfg)
