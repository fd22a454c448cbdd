"""Multi-step prediction strategies.

Four families over the same dense-network core:

* recursive — one single-step model fed its own predictions;
* recursive with a step-index input (the conditioned variant used by the
  corrective meta-training loop);
* direct — one independent model per horizon step, plus the hybrid
  variant whose step-h model also consumes the predictions of steps 1..h-1;
* multi-output — one model emitting all q future values at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import WindowedDataset
from .errors import ConfigError, ShapeError
from .nn import Mlp, TrainConfig, fit, forward, init_mlp


@dataclass
class RecursiveModel:
    net: Mlp
    p: int
    time_step_augmented: bool = False
    max_step: int | None = None  # rollout length the step input was scaled by

    def __post_init__(self):
        expected = self.p + 1 if self.time_step_augmented else self.p
        if self.net.input_dim != expected:
            raise ShapeError(
                f"net input_dim {self.net.input_dim} != expected {expected} "
                f"(p={self.p}, augmented={self.time_step_augmented})"
            )
        if self.net.output_dim != 1:
            raise ShapeError("recursive model must have a single output")


@dataclass
class DirectModelSet:
    models: list[Mlp]
    horizon: int
    p: int
    hybrid: bool = False

    def __post_init__(self):
        if len(self.models) != self.horizon:
            raise ShapeError(f"{len(self.models)} models for horizon {self.horizon}")
        for h, net in enumerate(self.models, start=1):
            expected = self.p + (h - 1) if self.hybrid else self.p
            if net.input_dim != expected:
                raise ShapeError(f"model {h}: input_dim {net.input_dim} != {expected}")
            if net.output_dim != 1:
                raise ShapeError(f"model {h}: output_dim must be 1")


@dataclass
class MultiOutputModel:
    net: Mlp
    p: int
    q: int

    def __post_init__(self):
        if self.net.input_dim != self.p or self.net.output_dim != self.q:
            raise ShapeError(
                f"net dims ({self.net.input_dim}, {self.net.output_dim}) != "
                f"(p={self.p}, q={self.q})"
            )


def _hidden_dims(hidden_layers: int, hidden_units: int) -> list[int]:
    return [hidden_units] * hidden_layers


def rollout(
    net: Mlp,
    histories: np.ndarray,
    n_steps: int,
    step_scale: int | None = None,
) -> np.ndarray:
    """Batched recursive rollout: histories [m, p] -> predictions [m, n_steps].

    Each step shifts the window left by one and appends the previous
    prediction. With step_scale set, the input is extended by a step
    feature v = (already-recycled count)/step_scale, i.e. v=0 for the
    first prediction.
    """
    histories = np.asarray(histories, dtype=float)
    if histories.ndim != 2:
        raise ShapeError("histories must be [m, p]")
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    m = histories.shape[0]
    window = histories.copy()
    preds = np.empty((m, n_steps))
    for n in range(1, n_steps + 1):
        if step_scale is None:
            inp = window
        else:
            v = np.full((m, 1), (n - 1) / step_scale)
            inp = np.concatenate([window, v], axis=1)
        out, _ = forward(net, inp, mode="eval")
        preds[:, n - 1] = out[:, 0]
        window = np.concatenate([window[:, 1:], out], axis=1)
    return preds


def train_recursive(
    data: WindowedDataset,
    cfg: TrainConfig,
    hidden_layers: int = 2,
    hidden_units: int = 150,
) -> RecursiveModel:
    """Vanilla one-step model on (p-history, next-value) pairs (q must be 1)."""
    if data.q != 1:
        raise ConfigError(f"recursive training needs q == 1 windows, got q={data.q}")
    net = init_mlp(
        [data.p, *_hidden_dims(hidden_layers, hidden_units), 1],
        dropout_rate=cfg.dropout_rate,
        rng=np.random.default_rng(cfg.seed),
    )
    trained, _ = fit(net, data, cfg)
    return RecursiveModel(trained, p=data.p)


def train_direct(
    data: WindowedDataset,
    cfg: TrainConfig,
    hybrid: bool = False,
    hidden_layers: int = 2,
    hidden_units: int = 150,
) -> DirectModelSet:
    """One model per horizon step.

    Non-hybrid models are independent. Hybrid models are trained in
    ascending h, each consuming the in-sample *predictions* of the earlier
    models (not ground truth), so later models see the same error-bearing
    inputs at train and predict time.
    """
    horizon = data.q
    models: list[Mlp] = []
    extra = np.empty((len(data), 0))
    hidden = _hidden_dims(hidden_layers, hidden_units)
    for h in range(1, horizon + 1):
        inputs = np.concatenate([data.histories, extra], axis=1) if hybrid else data.histories
        targets = data.futures[:, h - 1 : h]
        step_data = WindowedDataset(inputs, targets, inputs.shape[1], 1)
        net = init_mlp(
            [inputs.shape[1], *hidden, 1],
            dropout_rate=cfg.dropout_rate,
            rng=np.random.default_rng((cfg.seed, h)),
        )
        trained, _ = fit(net, step_data, replace(cfg, seed=cfg.seed + h))
        models.append(trained)
        if hybrid:
            preds, _ = forward(trained, inputs, mode="eval")
            extra = np.concatenate([extra, preds], axis=1)
    return DirectModelSet(models, horizon=horizon, p=data.p, hybrid=hybrid)


def predict_direct(model_set: DirectModelSet, history: np.ndarray) -> np.ndarray:
    history = np.asarray(history, dtype=float)
    single = history.ndim == 1
    batch = history[None, :] if single else history
    if batch.shape[1] != model_set.p:
        raise ShapeError(f"history width {batch.shape[1]} != p={model_set.p}")
    preds = np.empty((batch.shape[0], model_set.horizon))
    inputs = batch
    for h, net in enumerate(model_set.models, start=1):
        out, _ = forward(net, inputs, mode="eval")
        preds[:, h - 1] = out[:, 0]
        if model_set.hybrid:
            inputs = np.concatenate([inputs, out], axis=1)
    return preds[0] if single else preds


def train_multi_output(
    data: WindowedDataset,
    cfg: TrainConfig,
    hidden_layers: int = 2,
    hidden_units: int = 150,
) -> MultiOutputModel:
    if data.q < 2:
        raise ConfigError("q < 2: use the recursive or direct path for single-step")
    net = init_mlp(
        [data.p, *_hidden_dims(hidden_layers, hidden_units), data.q],
        dropout_rate=cfg.dropout_rate,
        rng=np.random.default_rng(cfg.seed),
    )
    trained, _ = fit(net, data, cfg)
    return MultiOutputModel(trained, p=data.p, q=data.q)


def predict_multi_output(model: MultiOutputModel, history: np.ndarray) -> np.ndarray:
    history = np.asarray(history, dtype=float)
    out, _ = forward(model.net, history, mode="eval")
    return out


def batch_predictor(model, n_steps: int | None = None):
    """Uniform [m, p] -> [m, H] predictor for any strategy's model."""
    if isinstance(model, RecursiveModel):
        if n_steps is None:
            raise ConfigError("recursive predictor needs n_steps")
        scale = None
        if model.time_step_augmented:
            # The step feature was trained on (n-1)/max_step for n <= max_step;
            # deeper rollouts would feed it values it never saw.
            if model.max_step is None or n_steps > model.max_step:
                raise ConfigError(
                    f"step-augmented model trained to depth {model.max_step} "
                    f"cannot be served {n_steps} steps"
                )
            scale = model.max_step
        return lambda h: rollout(model.net, h, n_steps, step_scale=scale)
    if isinstance(model, DirectModelSet):
        return lambda h: predict_direct(model, h)
    if isinstance(model, MultiOutputModel):
        return lambda h: predict_multi_output(model, h)
    raise ConfigError(f"unknown model type {type(model).__name__}")
