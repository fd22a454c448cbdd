"""Corrective meta-training for recursive models.

The plain variant repeatedly rolls the current model out over the
training series, pairs the drifted synthetic windows with the true next
observations, and retrains on the rebuilt set. The conditioned variant
additionally feeds the model a step-index input so a single network can
learn a different correction per rollout depth. The best iterate is
picked by validation rollout MSE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import schema
from .data import WindowedDataset, make_windows
from .errors import ConfigError, NumericError, ShapeError
from .nn import ARCH, BUDGET, DROPOUT, TRAIN, Mlp, TrainConfig, fit, init_net
from .strategies import RecursiveModel, rollout

# the `dad` config section
SECTION = {
    "n_steps": schema.Int(1, default=8),  # rollout depth N
    "meta_iterations": schema.Int(1, default=30),  # K
    "inner_epochs": replace(TRAIN["epochs"], default=50),
}


# one DaD or CDaD run; `dropout` is the base net's and CDaD's M_0's, which later iterates
# keep, `inner_train` the K inner fits' budget and `base_train` the base net's and M_0's;
# each fit, and each of the two inits, is seeded from its own budget's seed
DadConfig = schema.record(
    "DadConfig", {k: kind for k, kind in SECTION.items() if k != "inner_epochs"}, ARCH,
    n_steps=replace(SECTION["n_steps"], default=...),
    meta_iterations=replace(SECTION["meta_iterations"], default=...),
    dropout=replace(DROPOUT, default=0.0),
    p=schema.Int(1), inner_train=BUDGET, base_train=BUDGET, conditional=schema.Bool(default=False),
)


@dataclass
class AugmentedDataset:
    histories: np.ndarray  # [m, p], or [m, p+1] with the step feature
    futures: np.ndarray  # [m, 1]
    layout: tuple[int, int, int]  # one-step rows m0, p, n_steps; m0 - n_steps + 1 rollouts

    def __len__(self) -> int:
        return self.histories.shape[0]


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


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


# Not called by the package: the conditioned rollout is `rollout` with a
# step scale. The name is kept because perfbench's tracer looks it up.
_rollout_aug = rollout


def augmented_set(series, p: int, n_steps: int, conditional: bool) -> AugmentedDataset:
    """The one-step pairs of `series`, then the synthetic rows with every
    entry written but the rollout predictions, which
    `build_augmented_dataset` writes.

    The synthetic rows belong to n_steps-long rollouts from every window
    that has n_steps true successors in the series, in series order. They
    hold, by depth n in 1..n_steps-1 and then by start, the window ending in
    the n-th prediction paired with the true next value; the window's true
    history is its first p-n columns. The window ending in the final
    prediction has no ground-truth successor inside the rollout span. When
    `conditional`, each row gains the step feature n/n_steps (n = 0 on a
    one-step row), fed alongside the rollout's (n+1)-th prediction.
    """
    values = np.asarray(series, dtype=float)
    SECTION["n_steps"].check(n_steps, "n_steps")
    if len(values) - n_steps < 1:  # no p fits
        raise ConfigError(f"n_steps must be < the series length {len(values)}, got {n_steps}")
    if not schema.is_int(p) or not 1 <= p <= len(values) - n_steps:
        raise ConfigError(f"p must be an integer in [1, {len(values) - n_steps}], got {p!r}")
    m0 = len(values) - p
    at = (np.arange(1, n_steps)[:, None] + np.arange(m0 - n_steps + 1)).ravel()
    index = np.concatenate([np.arange(m0), at])
    histories = np.empty((len(index), p + 1 if conditional else p))
    histories[:, :p] = np.lib.stride_tricks.sliding_window_view(values, p)[index]
    if conditional:
        depth = np.repeat(np.arange(1, n_steps), m0 - n_steps + 1)
        histories[:, p] = np.concatenate([np.zeros(m0, dtype=int), depth]) / n_steps
    futures = values[index + p][:, None]
    return AugmentedDataset(histories, futures, (m0, p, n_steps))


def build_augmented_dataset(aug: AugmentedDataset, preds) -> AugmentedDataset:
    """Write one rollout's predictions, preds[i] the rollout from the i-th
    window, into the synthetic rows of `aug` and return `aug`: the next
    write overwrites them."""
    m0, p, n_steps = aug.layout
    s = m0 - n_steps + 1
    preds = np.asarray(preds, dtype=float)
    if preds.shape != (s, n_steps):
        raise ShapeError(f"preds {preds.shape} are not {s} rollouts of {n_steps} steps")
    for n in range(1, n_steps):
        rows = aug.histories[m0 + (n - 1) * s : m0 + n * s]
        rows[:, max(0, p - n) : p] = preds[:, max(0, n - p) : n]
    return aug


def _score(preds: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    err = preds - truth
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


def select_best(results: Sequence[tuple[object, float, float]]) -> tuple[object, int]:
    """Argmin by validation MSE; ties break toward the earliest index, and
    a non-finite MSE raises NumericError."""
    if not results:
        raise ConfigError("no candidates to select from")
    for i, (_, mse, _) in enumerate(results):
        if not np.isfinite(mse):
            raise NumericError(f"candidate {i} has a non-finite validation mse {mse}")
    best = min(range(len(results)), key=lambda i: results[i][1])
    return results[best][0], best


def _meta_train(train_series, val_series, cfg: DadConfig) -> MetaTrainResult:
    train_values = np.asarray(train_series, dtype=float)
    val_values = np.asarray(val_series, dtype=float)
    p, n_steps, big_k = cfg.p, cfg.n_steps, cfg.meta_iterations
    base_seed = cfg.base_train.seed
    arch = {k: getattr(cfg, k) for k in ARCH}
    step_scale = n_steps if cfg.conditional else None

    # Only the rollout predictions change between rebuilds, so the set is
    # allocated once. Its first m0 rows are the one-step pairs, whose first
    # windows start the rollouts.
    allocated = augmented_set(train_values, p, n_steps, cfg.conditional)
    m0 = allocated.layout[0]
    one_step = WindowedDataset(allocated.histories[:m0, :p], allocated.futures[:m0], p, 1)
    start_windows = one_step.histories[: m0 - n_steps + 1]
    if len(val_values) < p + n_steps:  # refused before any fit
        raise ConfigError(f"validation series length {len(val_values)} "
                          f"< p + n_steps = {p + n_steps}")
    val_windows = make_windows(val_values, p, n_steps)

    def fitted(net: Mlp, data, train: TrainConfig, k: int) -> Mlp:
        return fit(net, data, replace(train, seed=_sub_seed(train.seed, k)))[0]

    def candidate(net: Mlp) -> tuple[Mlp, float, float]:
        preds = rollout(net, val_windows.histories, n_steps, step_scale)
        return (net, *_score(preds, val_windows.futures))

    base_net = init_net(p, 1, _sub_seed(base_seed, 0), **arch)
    current = fitted(base_net, one_step, cfg.base_train, 1)
    if cfg.conditional:
        # CDaD's M_0 is trained from scratch (its input width differs) on the
        # base model's rollout, at base_train's budget.
        m0_net = init_net(p + 1, 1, _sub_seed(base_seed, 2), **arch)
        preds = rollout(current, start_windows, n_steps)
        current = fitted(m0_net, build_augmented_dataset(allocated, preds), cfg.base_train, 10)

    candidates = [candidate(current)]
    for k in range(1, big_k + 1):
        preds = rollout(current, start_windows, n_steps, step_scale)
        aug = build_augmented_dataset(allocated, preds)
        current = fitted(current, aug, cfg.inner_train, 10 + k)
        candidates.append(candidate(current))

    best_net, best_idx = select_best(candidates)
    return MetaTrainResult(
        best_model=RecursiveModel(best_net, p=p, max_step=step_scale),
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
