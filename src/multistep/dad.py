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

from . import schema
from .data import WindowedDataset, make_windows
from .errors import AlignmentError, ConfigError
from .nn import ARCH, TRAIN, Mlp, TrainConfig, fit, init_net
from .strategies import RecursiveModel, rollout

# the `dad` config section; DadConfig checks the fields it shares with it
SECTION = {
    "n_steps": schema.Int(1, default=8),
    "meta_iterations": schema.Int(1, default=30),
    "inner_epochs": replace(TRAIN["epochs"], default=50),
    "selection_metric": schema.OneOf(("mse", "mae"), default="mse"),
    "accumulate": schema.Bool(default=False),
}


@dataclass
class DadConfig:
    p: int
    n_steps: int  # rollout depth N
    meta_iterations: int  # K
    inner_train: TrainConfig  # the budget of the K inner fits
    base_train: TrainConfig  # the base net's budget, and CDaD's M_0's
    conditional: bool = False
    selection_metric: str = "mse"
    hidden_layers: int = 2
    hidden_units: int = 150
    dropout: float = 0.0  # of the base net and CDaD's M_0, which later iterates keep
    accumulate: bool = False  # keep synthetic rows from earlier iterations

    def __post_init__(self):
        budget = schema.Kind("a TrainConfig", lambda v: isinstance(v, TrainConfig))
        schema.check_fields(self, dict(SECTION, **ARCH, p=schema.Int(1), conditional=schema.Bool(),
                                       inner_train=budget, base_train=budget))


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


def augmented_set(series, p: int, n_steps: int, conditional: bool,
                  blocks: int = 1) -> AugmentedDataset:
    """The one-step pairs of `series`, then `blocks` synthetic blocks with
    every entry written but the rollout predictions, which
    `build_augmented_dataset` writes.

    A block belongs to n_steps-long rollouts from every window that has
    n_steps true successors in the series, in series order. It holds, by
    depth n in 1..n_steps-1 and then by start, the window ending in the
    n-th prediction paired with the true next value; the window's true
    history is its first p-n columns. The window ending in the final
    prediction has no ground-truth successor inside the rollout span. When
    `conditional`, each row gains the step feature n/n_steps (n = 0 on a
    one-step row), fed alongside the rollout's (n+1)-th prediction.
    """
    values = np.asarray(series, dtype=float)
    SECTION["n_steps"].check(n_steps, "n_steps")
    schema.Int(0).check(blocks, "blocks")
    if not schema.is_int(p) or not 1 <= p <= len(values) - n_steps:
        raise ConfigError(f"p must be an integer in [1, {len(values) - n_steps}], got {p!r}")
    m0 = len(values) - p
    at = (np.arange(1, n_steps)[:, None] + np.arange(m0 - n_steps + 1)).ravel()
    index = np.concatenate([np.arange(m0), np.tile(at, blocks)])
    histories = np.empty((len(index), p + 1 if conditional else p))
    histories[:, :p] = np.lib.stride_tricks.sliding_window_view(values, p)[index]
    if conditional:
        depth = np.tile(np.repeat(np.arange(1, n_steps), m0 - n_steps + 1), blocks)
        histories[:, p] = np.concatenate([np.zeros(m0, dtype=int), depth]) / n_steps
    futures = values[index + p][:, None]
    return AugmentedDataset(histories, futures, (m0, p, n_steps))


def build_augmented_dataset(aug: AugmentedDataset, preds, block: int = 0) -> AugmentedDataset:
    """Write one rollout's predictions, preds[i] the rollout from the i-th
    window, into synthetic block `block` of `aug`, and return the rows of
    `aug` up to the end of that block as views: the next write into `aug`
    overwrites them."""
    m0, p, n_steps = aug.layout
    s = m0 - n_steps + 1
    preds = np.asarray(preds, dtype=float)
    if preds.shape != (s, n_steps):
        raise AlignmentError(f"preds {preds.shape} are not {s} rollouts of {n_steps} steps")
    first = m0 + block * (n_steps - 1) * s
    end = first + (n_steps - 1) * s
    if not schema.is_int(block) or block < 0 or end > len(aug):
        raise AlignmentError(f"block {block!r} is outside the {len(aug)} rows of the set")
    for n in range(1, n_steps):
        rows = aug.histories[first + (n - 1) * s : first + n * s]
        rows[:, max(0, p - n) : p] = preds[:, max(0, n - p) : n]
    return AugmentedDataset(aug.histories[:end], aug.futures[:end], aug.layout)


def _score(preds: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    err = preds - truth
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


def select_best(
    results: Sequence[tuple[object, float, float]], metric: str = "mse"
) -> tuple[object, int]:
    """Argmin by validation metric; ties break toward the earliest index."""
    if not results:
        raise ConfigError("no candidates to select from")
    SECTION["selection_metric"].check(metric, "selection_metric")
    col = 1 if metric == "mse" else 2
    best = min(range(len(results)), key=lambda i: results[i][col])
    return results[best][0], best


def _meta_train(train_series, val_series, cfg: DadConfig) -> MetaTrainResult:
    train_values = np.asarray(train_series, dtype=float)
    val_values = np.asarray(val_series, dtype=float)
    p, n_steps, big_k = cfg.p, cfg.n_steps, cfg.meta_iterations
    seed = cfg.inner_train.seed
    arch = {k: getattr(cfg, k) for k in ARCH}
    step_scale = n_steps if cfg.conditional else None

    # Only the rollout predictions change between rebuilds, so the set is
    # allocated once; under `accumulate` each rebuild fills the next block.
    # Its first m0 rows are the one-step pairs, whose first windows start the rollouts.
    blocks = big_k + int(cfg.conditional) if cfg.accumulate else 1
    allocated = augmented_set(train_values, p, n_steps, cfg.conditional, blocks)
    m0 = allocated.layout[0]
    one_step = WindowedDataset(allocated.histories[:m0, :p], allocated.futures[:m0], p, 1)
    start_windows = one_step.histories[: m0 - n_steps + 1]
    val_windows = make_windows(val_values, p, n_steps)

    def fitted(net: Mlp, data, train: TrainConfig, k: int) -> Mlp:
        return fit(net, data, replace(train, seed=_sub_seed(seed, k)))[0]

    def candidate(net: Mlp) -> tuple[Mlp, float, float]:
        preds = rollout(net, val_windows.histories, n_steps, step_scale)
        return (net, *_score(preds, val_windows.futures))

    base_net = init_net(p, 1, _sub_seed(seed, 0), **arch)
    current = fitted(base_net, one_step, cfg.base_train, 1)
    if cfg.conditional:
        # CDaD's M_0 is trained from scratch (its input width differs) on the
        # base model's rollout, at base_train's budget.
        m0_net = init_net(p + 1, 1, _sub_seed(seed, 2), **arch)
        preds = rollout(current, start_windows, n_steps)
        current = fitted(m0_net, build_augmented_dataset(allocated, preds), cfg.base_train, 10)

    candidates = [candidate(current)]
    for k in range(1, big_k + 1):
        preds = rollout(current, start_windows, n_steps, step_scale)
        block = k - 1 + int(cfg.conditional) if cfg.accumulate else 0
        aug = build_augmented_dataset(allocated, preds, block)
        current = fitted(current, aug, cfg.inner_train, 10 + k)
        candidates.append(candidate(current))

    best_net, best_idx = select_best(candidates, cfg.selection_metric)
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
