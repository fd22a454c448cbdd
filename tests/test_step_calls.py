"""One forward, one backward and one adam_step call per training minibatch.

Span tracers (perfbench/tracing.py) count training steps by rebinding
these module-level functions in every loaded multistep module. These
tests rebind counting wrappers the same way, so fusing the calls of a
step into one would fail here instead of silently blinding the tracer.
The tracer looks its targets up by name, so a last test checks that
every one of them still exists.
"""

import importlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from multistep import cgan, nn
from multistep.data import make_windows


def count_step_calls(monkeypatch) -> Counter:
    """Rebind counting wrappers of forward/backward/adam_step wherever a
    multistep module holds them; returns the live counts."""
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

    for name in ("forward", "backward", "adam_step"):
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
    nn.fit(net, data, nn.TrainConfig(epochs=2, batch_size=64, seed=2, dropout_rate=0.2))
    assert counts == Counter(forward_train=6, backward=6, adam_step=6)  # 2 x ceil(130/64)


def test_train_cgan_makes_two_adam_steps_per_minibatch(monkeypatch):
    counts = count_step_calls(monkeypatch)
    rng = np.random.default_rng(0)
    data = make_windows(rng.uniform(0, 1, 47), 4, 3)
    cfg = cgan.CganConfig(noise_dim=3, epochs=3, batch_size=16, seed=0,
                          hidden_layers=1, hidden_units=5)
    cgan.train_cgan(data, cfg)
    minibatches = cfg.epochs * math.ceil(len(data) / cfg.batch_size)
    assert counts["adam_step"] == 2 * minibatches


def test_tracer_targets_resolve():
    """Every function perfbench's tracer rebinds still exists by that name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    names.append(tracing.PREDICTOR[:2])
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
