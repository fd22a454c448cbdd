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
multi-output models serve H = q, and refuse any other n_steps. Each kind
is a `schema.record` whose fields are its nets, the rows of its METADATA
table and p; building one checks every field, so a wrong value raises a
ConfigError naming it. METADATA names the fields, beside its nets and p,
that its model document records, and ONE_NET says whether that document
is one network document or keeps one per net under "models".
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from . import schema
from .data import WindowedDataset
from .errors import ConfigError, ShapeError
from .nn import Mlp, TrainConfig, Workspace, fit, forward, init_net


def _kind(name: str, nets: str, metadata: dict) -> type:
    """The record a model kind extends: its `net`, or its list of `models`
    (each element checked, so a wrong one is named models[i]), then the rows
    of `metadata` and p."""
    net = schema.Kind("an Mlp", lambda v: isinstance(v, Mlp))
    row = net if nets == "net" else schema.Kind("a list", lambda v: isinstance(v, list), item=net)
    record = schema.record(name, {nets: row}, metadata, p=schema.Int(1))
    record.ONE_NET, record.METADATA = nets == "net", metadata
    return record


# with a step input, max_step is the rollout depth it was scaled by (the net
# takes p + 1 inputs); None without one
class RecursiveModel(_kind("RecursiveModel", "net", {"max_step": schema.Int(1, default=None)})):
    def __post_init__(self):
        super().__post_init__()
        expected = self.p if self.max_step is None else self.p + 1
        if self.net.input_dim != expected:
            raise ShapeError(
                f"net input_dim {self.net.input_dim} != expected {expected} "
                f"(p={self.p}, max_step={self.max_step})"
            )
        if self.net.output_dim != 1:
            raise ShapeError("recursive model must have a single output")

    def predictor(self, n_steps: int):
        """[m, p] histories -> [m, n_steps] rollout predictions."""
        schema.Int(1).check(n_steps, "n_steps")
        # The step feature was trained on (n-1)/max_step for n <= max_step;
        # deeper rollouts would feed it values it never saw.
        if self.max_step is not None and n_steps > self.max_step:
            raise ConfigError(
                f"step-augmented model trained to depth {self.max_step} "
                f"cannot be served {n_steps} steps"
            )
        return lambda h: rollout(self.net, h, n_steps, step_scale=self.max_step)


class DirectModelSet(_kind("DirectModelSet", "models",
                           {"q": schema.Int(1), "hybrid": schema.Bool(default=False)})):
    def __post_init__(self):
        super().__post_init__()
        if len(self.models) != self.q:
            raise ShapeError(f"{len(self.models)} models for horizon {self.q}")
        for h, net in enumerate(self.models, start=1):
            expected = self.p + (h - 1) if self.hybrid else self.p
            if net.input_dim != expected:
                raise ShapeError(f"model {h}: input_dim {net.input_dim} != {expected}")
            if net.output_dim != 1:
                raise ShapeError(f"model {h}: output_dim must be 1")

    def predictor(self, n_steps: int):
        """[m, p] histories -> [m, q] predictions; n_steps must be q."""
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


class MultiOutputModel(_kind("MultiOutputModel", "net", {"q": schema.Int(1)})):
    def __post_init__(self):
        super().__post_init__()
        if self.net.input_dim != self.p or self.net.output_dim != self.q:
            raise ShapeError(
                f"net dims ({self.net.input_dim}, {self.net.output_dim}) != "
                f"(p={self.p}, q={self.q})"
            )

    def predictor(self, n_steps: int):
        """[m, p] histories -> [m, q] predictions; n_steps must be q."""
        _check_horizon(n_steps, self.q)
        return lambda h: forward(self.net, h, mode="eval")[0]


def _check_horizon(n_steps, q: int) -> None:
    """ConfigError unless a model of horizon q can serve n_steps."""
    if n_steps != q:
        shown = n_steps if schema.is_int(n_steps) else repr(n_steps)  # '2' is not 2
        raise ConfigError(f"a model of horizon q={q} cannot be served n_steps={shown}")
    schema.Int(1).check(n_steps, "n_steps")  # equal to q, but perhaps a float such as 3.0


# A rollout's rows go in blocks of ROLLOUT_BLOCK from row 0, a remainder
# shorter than one block joining the last block. A rollout of two or more
# blocks through a net of at least PARALLEL_MIN_PARAMS parameters runs its
# blocks on a thread pool. The offsets do not depend on the core count, and at
# one BLAS thread a block of at least ROLLOUT_BLOCK rows gives the bits of
# the whole batch; shorter blocks sometimes did not. Measured on 2 cores at
# one BLAS thread, blocked over serial time was 1.5-1.6 at 2x32 hidden
# (1,409 parameters with 9 inputs), 1.1-1.5 at 2x48, 0.75-1.0 at 2x64, 0.65 at
# 2x96 and 0.5-0.7 at 2x150: below the bound the hand-off to the pool costs
# more than the second core saves.
ROLLOUT_BLOCK = 256
PARALLEL_MIN_PARAMS = 4096


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
    first prediction. The input window, the predictions and one workspace
    per block of rows are made before any block runs; `histories` is never
    written. A wide net's blocks of ROLLOUT_BLOCK rows run on a thread pool
    made for the call, one worker per block but no more than the cores, and
    the call returns or raises only once every block has ended.
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
    preds = np.empty((m, n_steps))
    n_blocks = m // ROLLOUT_BLOCK
    if n_blocks < 2 or net.params.size < PARALLEL_MIN_PARAMS:
        _roll(net, inp, Workspace(net, m), preds, p, step_scale)
        return preds
    edges = [k * ROLLOUT_BLOCK for k in range(n_blocks)] + [m]
    blocks = [(inp[a:b], Workspace(net, b - a), preds[a:b]) for a, b in zip(edges, edges[1:])]
    from concurrent.futures import ThreadPoolExecutor  # here, so serial rollouts never load it

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    # leaving the pool waits for every submitted block, even if a submit raised
    with ThreadPoolExecutor(min(len(blocks), cores), thread_name_prefix="rollout") as pool:
        futures = [pool.submit(_roll, net, *block, p, step_scale) for block in blocks]
    for future in futures:
        future.result()
    return preds


def _roll(net: Mlp, inp, workspace: Workspace, preds, p: int, step_scale) -> None:
    """The serial rollout of `inp`'s rows, one eval forward per column of
    `preds`, which it writes; `inp` holds the histories in its first p columns."""
    for n in range(1, preds.shape[1] + 1):
        if step_scale is not None:
            inp[:, p] = (n - 1) / step_scale
        out, _ = forward(net, inp, mode="eval", workspace=workspace)
        preds[:, n - 1] = out[:, 0]
        inp[:, : p - 1] = inp[:, 1:p]
        inp[:, p - 1] = out[:, 0]


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
    inputs = data.histories
    for h in range(1, data.q + 1):
        targets = data.futures[:, h - 1 : h]
        step_data = WindowedDataset(inputs, targets, inputs.shape[1], 1)
        net = init_net(inputs.shape[1], 1, (cfg.seed, h), **arch)
        trained, _ = fit(net, step_data, replace(cfg, seed=cfg.seed + h))
        models.append(trained)
        if hybrid:  # the next step's inputs, as DirectModelSet.predictor grows them
            out, _ = forward(trained, inputs, mode="eval")
            inputs = np.concatenate([inputs, out], axis=1)
    return DirectModelSet(models, q=data.q, p=data.p, hybrid=hybrid)


def train_multi_output(data: WindowedDataset, cfg: TrainConfig, **arch) -> MultiOutputModel:
    if data.q < 2:
        raise ConfigError("q < 2: use the recursive or direct path for single-step")
    net = init_net(data.p, data.q, cfg.seed, **arch)
    trained, _ = fit(net, data, cfg)
    return MultiOutputModel(trained, p=data.p, q=data.q)


def batch_predictor(model, n_steps: int):
    """Uniform [m, p] -> [m, H] predictor for any strategy's model."""
    return model.predictor(n_steps)
