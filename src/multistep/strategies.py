"""Multi-step prediction strategies.

Four families over the same dense-network core:

* recursive — one single-step model fed its own predictions;
* recursive with a step-index input (the conditioned variant used by the
  corrective meta-training loop);
* direct — one independent model per horizon step, plus the hybrid
  variant whose step-h model also consumes the predictions of steps 1..h-1;
* multi-output — one model emitting all q future values at once.

Each model kind serves itself through `predictor(n_steps)`: [m, p]
histories in, [m, H] predictions out, and any other input shape raises
ShapeError. A recursive model serves H = n_steps; the direct, hybrid and
multi-output models serve H = q, for n_steps None or q. Each kind's
METADATA table names the fields, beside its nets and p, that its model
document records, and ONE_NET says whether that document is one network
document or keeps one per net under "models".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import schema
from .data import WindowedDataset
from .errors import ConfigError, ShapeError
from .nn import Mlp, TrainConfig, Workspace, fit, forward, init_net


@dataclass
class RecursiveModel:
    net: Mlp
    p: int
    # with a step input, the rollout depth it was scaled by (the net takes
    # p + 1 inputs); None without one
    max_step: int | None = None

    ONE_NET: ClassVar[bool] = True
    METADATA: ClassVar[dict] = {"max_step": schema.Int(1, default=None)}

    def __post_init__(self):
        schema.check_fields(self, dict(self.METADATA, p=schema.Int(1)))
        expected = self.p if self.max_step is None else self.p + 1
        if self.net.input_dim != expected:
            raise ShapeError(
                f"net input_dim {self.net.input_dim} != expected {expected} "
                f"(p={self.p}, max_step={self.max_step})"
            )
        if self.net.output_dim != 1:
            raise ShapeError("recursive model must have a single output")

    def predictor(self, n_steps: int | None = None):
        """[m, p] histories -> [m, n_steps] rollout predictions."""
        if n_steps is None:
            raise ConfigError("recursive predictor needs n_steps")
        # The step feature was trained on (n-1)/max_step for n <= max_step;
        # deeper rollouts would feed it values it never saw.
        if self.max_step is not None and n_steps > self.max_step:
            raise ConfigError(
                f"step-augmented model trained to depth {self.max_step} "
                f"cannot be served {n_steps} steps"
            )
        return lambda h: rollout(self.net, h, n_steps, step_scale=self.max_step)


@dataclass
class DirectModelSet:
    models: list[Mlp]
    q: int
    p: int
    hybrid: bool = False

    ONE_NET: ClassVar[bool] = False
    METADATA: ClassVar[dict] = {"q": schema.Int(1), "hybrid": schema.Bool(default=False)}

    def __post_init__(self):
        schema.check_fields(self, dict(self.METADATA, p=schema.Int(1)))
        if len(self.models) != self.q:
            raise ShapeError(f"{len(self.models)} models for horizon {self.q}")
        for h, net in enumerate(self.models, start=1):
            expected = self.p + (h - 1) if self.hybrid else self.p
            if net.input_dim != expected:
                raise ShapeError(f"model {h}: input_dim {net.input_dim} != {expected}")
            if net.output_dim != 1:
                raise ShapeError(f"model {h}: output_dim must be 1")

    def predictor(self, n_steps: int | None = None):
        """[m, p] histories -> [m, q] predictions; n_steps must be None or q."""
        _check_horizon(n_steps, self.q)

        def predict(histories):
            inputs, outs = histories, []
            for net in self.models:
                out, _ = forward(net, inputs, mode="eval")
                outs.append(out)
                if self.hybrid:
                    inputs = np.concatenate([inputs, out], axis=1)
            return np.concatenate(outs, axis=1)

        return predict


@dataclass
class MultiOutputModel:
    net: Mlp
    p: int
    q: int

    ONE_NET: ClassVar[bool] = True
    METADATA: ClassVar[dict] = {"q": schema.Int(1)}

    def __post_init__(self):
        schema.check_fields(self, dict(self.METADATA, p=schema.Int(1)))
        if self.net.input_dim != self.p or self.net.output_dim != self.q:
            raise ShapeError(
                f"net dims ({self.net.input_dim}, {self.net.output_dim}) != "
                f"(p={self.p}, q={self.q})"
            )

    def predictor(self, n_steps: int | None = None):
        """[m, p] histories -> [m, q] predictions; n_steps must be None or q."""
        _check_horizon(n_steps, self.q)
        return lambda h: forward(self.net, h, mode="eval")[0]


def _check_horizon(n_steps, q: int) -> None:
    """ConfigError unless a model of horizon q can serve n_steps."""
    if n_steps is not None and n_steps != q:
        raise ConfigError(f"a model of horizon q={q} cannot be served n_steps={n_steps}")


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
    first prediction. The input window and one workspace for every
    layer's output are made once per call; `histories` is never written.
    """
    histories = np.asarray(histories, dtype=float)
    if histories.ndim != 2 or histories.shape[1] < 1:
        raise ShapeError(f"histories must be [m, p] with p >= 1, got {histories.shape}")
    schema.Int(1).check(n_steps, "n_steps")
    schema.Int(1, default=None).check(step_scale, "step_scale")
    m, p = histories.shape
    width = p if step_scale is None else p + 1
    if width != net.input_dim or net.output_dim != 1:
        raise ShapeError(
            f"a rollout of [m, {p}] histories{'' if step_scale is None else ' + step'} "
            f"needs a net of dims ({width}, 1), got ({net.input_dim}, {net.output_dim})"
        )
    inp = np.empty((m, width))
    inp[:, :p] = histories
    workspace = Workspace(net, m)
    preds = np.empty((m, n_steps))
    for n in range(1, n_steps + 1):
        if step_scale is not None:
            inp[:, p] = (n - 1) / step_scale
        out, _ = forward(net, inp, mode="eval", workspace=workspace)
        preds[:, n - 1] = out[:, 0]
        inp[:, : p - 1] = inp[:, 1:p]
        inp[:, p - 1] = out[:, 0]
    return preds


def train_recursive(data: WindowedDataset, cfg: TrainConfig, **arch) -> RecursiveModel:
    """Vanilla one-step model on (p-history, next-value) pairs (q must be 1);
    `arch` is `init_net`'s architecture, as in every trainer here."""
    if data.q != 1:
        raise ConfigError(f"recursive training needs q == 1 windows, got q={data.q}")
    net = init_net(data.p, 1, cfg.seed, **arch)
    trained, _ = fit(net, data, cfg)
    return RecursiveModel(trained, p=data.p)


def train_direct(
    data: WindowedDataset, cfg: TrainConfig, hybrid: bool = False, **arch
) -> DirectModelSet:
    """One model per horizon step.

    Non-hybrid models are independent. Hybrid models are trained in
    ascending h, each consuming the in-sample *predictions* of the earlier
    models (not ground truth), so later models see the same error-bearing
    inputs at train and predict time.
    """
    DirectModelSet.METADATA["hybrid"].check(hybrid, "hybrid")
    models: list[Mlp] = []
    extra = np.empty((len(data), 0))
    for h in range(1, data.q + 1):
        inputs = np.concatenate([data.histories, extra], axis=1) if hybrid else data.histories
        targets = data.futures[:, h - 1 : h]
        step_data = WindowedDataset(inputs, targets, inputs.shape[1], 1)
        net = init_net(inputs.shape[1], 1, (cfg.seed, h), **arch)
        trained, _ = fit(net, step_data, replace(cfg, seed=cfg.seed + h))
        models.append(trained)
        if hybrid:
            preds, _ = forward(trained, inputs, mode="eval")
            extra = np.concatenate([extra, preds], axis=1)
    return DirectModelSet(models, q=data.q, p=data.p, hybrid=hybrid)


def train_multi_output(data: WindowedDataset, cfg: TrainConfig, **arch) -> MultiOutputModel:
    if data.q < 2:
        raise ConfigError("q < 2: use the recursive or direct path for single-step")
    net = init_net(data.p, data.q, cfg.seed, **arch)
    trained, _ = fit(net, data, cfg)
    return MultiOutputModel(trained, p=data.p, q=data.q)


def batch_predictor(model, n_steps: int | None = None):
    """Uniform [m, p] -> [m, H] predictor for any strategy's model."""
    return model.predictor(n_steps)
