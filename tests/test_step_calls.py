"""A fixed set of nn calls per training minibatch: one forward, one
backward and one adam_step in `fit`, and a pinned count of each in
`train_cgan`.

Span tracers (perfbench/tracing.py) count training steps by rebinding
these module-level functions in every loaded multistep module. These
tests rebind counting wrappers the same way, so fusing or dropping a
call of a step would fail here instead of silently blinding the tracer.
The tracer looks its targets up by name, so the last tests check that
every one of them still exists and that its counters still count.
"""

import importlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from multistep import cgan, dad, nn, strategies
from multistep.data import make_windows


def count_step_calls(monkeypatch) -> Counter:
    """Rebind counting wrappers of forward/backward/input_grad/adam_step
    wherever a multistep module holds them; returns the live counts."""
    counts = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "multistep" or name.startswith("multistep.")]

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            key = name
            if name == "forward":
                key += "_" + kwargs.get("mode", args[2] if len(args) > 2 else "eval")
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("forward", "backward", "input_grad", "adam_step"):
        original = getattr(nn, name)
        wrapper = counting(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


class _Pairs:
    def __init__(self, x, y):
        self.histories = x
        self.futures = y


def test_fit_makes_one_call_of_each_per_minibatch(monkeypatch):
    counts = count_step_calls(monkeypatch)
    rng = np.random.default_rng(0)
    data = _Pairs(rng.uniform(0, 1, (130, 4)), rng.uniform(0, 1, (130, 1)))
    net = nn.init_mlp([4, 8, 1], dropout_rate=0.2, rng=1)
    nn.fit(net, data, nn.TrainConfig(epochs=2, batch_size=64, seed=2))
    assert counts == Counter(forward_train=6, backward=6, adam_step=6)  # 2 x ceil(130/64)


def test_train_cgan_makes_a_fixed_set_of_calls_per_minibatch(monkeypatch):
    """D-step: G eval, D train on real and on fake, two backward, one
    adam_step. G-step: G train, D eval, input_grad through D, backward
    through G, one adam_step."""
    counts = count_step_calls(monkeypatch)
    rng = np.random.default_rng(0)
    data = make_windows(rng.uniform(0, 1, 47), 4, 3)
    cfg = cgan.CganConfig(noise_dim=3, epochs=3, batch_size=16, seed=0, hidden_layers=1,
                          hidden_units=5, dropout=0.2)
    cgan.train_cgan(data, cfg)
    m = cfg.epochs * math.ceil(len(data) / cfg.batch_size)  # 3 x 3, the last batch uneven
    assert counts == Counter(forward_eval=2 * m, forward_train=3 * m, backward=3 * m,
                             input_grad=m, adam_step=2 * m)


@pytest.mark.parametrize("step_scale", [None, 5])
def test_rollout_makes_one_eval_forward_per_step(monkeypatch, step_scale):
    """The tracer reads rollout cost from its eval forwards (nn.forward_eval,
    nn.eval_rows): fusing rollout steps would hide them."""
    counts = count_step_calls(monkeypatch)
    net = nn.init_mlp([4 if step_scale is None else 5, 6, 1], rng=0)
    histories = np.random.default_rng(1).uniform(0, 1, (7, 4))
    strategies.rollout(net, histories, 5, step_scale)
    assert counts == Counter(forward_eval=5)


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    """Every function perfbench's tracer rebinds still exists by that name."""
    tracing = load_tracing()
    names = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    names.append(tracing.PREDICTOR[:2])
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_tracer_counts_a_fit_and_a_rollout():
    """The tracer's counters read package objects (a backward cache's layer
    inputs, each layer's weights, a rollout's result): renaming one would
    stop `--trace 1` from counting, which resolving names does not show.
    `train_cgan` passes `backward` the workspaces it keeps per batch size,
    and DaD's meta loop calls its one builder once per rebuild."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = make_windows(np.random.default_rng(0).uniform(0, 1, 40), 4, 1)
    net = nn.init_mlp([4, 6, 1], rng=1)
    with tracer.installed():
        trained, _ = nn.fit(net, data, nn.TrainConfig(epochs=2, batch_size=16, seed=0))
        strategies.rollout(trained, data.histories[:7], 5)
    assert tracer.counts["nn.train_steps"] == 2 * math.ceil(len(data) / 16)
    assert tracer.counts["nn.flops"] > 0
    assert tracer.counts["strategies.rollout.predictions"] == 7 * 5

    tracer = tracing.Tracer()
    cfg = cgan.CganConfig(noise_dim=2, epochs=2, batch_size=16, seed=0, hidden_layers=1,
                          hidden_units=4)
    with tracer.installed():
        cgan.train_cgan(data, cfg)
    batches = cfg.epochs * math.ceil(len(data) / cfg.batch_size)
    assert tracer.counts["cgan.gan_steps"] == tracer.counts["nn.train_steps"] == 2 * batches
    assert tracer.counts["nn.flops"] > 0

    # under `accumulate` each rebuild returns one more synthetic block
    tracer = tracing.Tracer()
    series = np.random.default_rng(2).uniform(0, 1, 40)
    cfg = dad.DadConfig(p=4, n_steps=3, meta_iterations=2, accumulate=True,
                        inner_train=nn.TrainConfig(epochs=1, batch_size=16, seed=0),
                        hidden_layers=1, hidden_units=4)
    with tracer.installed():
        dad.train_dad(series, series[:20], cfg)
    one_step, block = len(series) - 4, (3 - 1) * (len(series) - 4 - 3 + 1)
    assert tracer.calls["dad.build_augmented_dataset"] == cfg.meta_iterations
    assert tracer.counts["dad.aug_rows"] == sum(one_step + j * block for j in (1, 2))
