"""Span tracing of multistep's layers from outside the package.

`Tracer.installed()` replaces each public function in `TARGETS` with a
wrapper that records a span (name, start, end, parent span) and updates
the layer's counters. The package imports these functions by name
(`from .nn import forward, ...`), so the wrapper is bound in place of the
original in every loaded `multistep` module that holds it, and the
originals are put back on exit. Nothing under `src/` is changed.

A span's self time is its duration minus the durations of its child
spans. The tracer's own bookkeeping runs outside the timed interval of
the span it records, so it lands in the caller's self time and in
`trace.unattributed_s` when the caller is the benchmark itself.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return "nn.forward_train" if mode == "train" else "nn.forward_eval"


def _rows(x) -> int:
    return x.shape[0] if np.ndim(x) == 2 else 1


def _weights(net) -> int:
    return sum(layer.weights.size for layer in net.layers)


def _count_forward(tracer, span, args, kwargs, result):
    rows = _rows(args[1])
    tracer.counts["nn.flops"] += 2 * rows * _weights(args[0])
    if span == "nn.forward_eval":
        tracer.counts["nn.eval_rows"] += rows


def _count_backward(tracer, span, args, kwargs, result):
    # dW = g.T @ inputs and the input gradient g @ W, for every layer
    rows = args[1].layer_caches[0].inputs.shape[0]
    tracer.counts["nn.flops"] += 4 * rows * _weights(args[0])


def _count_adam(tracer, span, args, kwargs, result):
    tracer.counts["nn.train_steps"] += 1
    if tracer.active["cgan.train_cgan"]:
        tracer.counts["cgan.gan_steps"] += 1


def _counter(key, measure):
    def count(tracer, span, args, kwargs, result):
        tracer.counts[key] += measure(args, kwargs, result)

    return count


def _result_len(args, kwargs, result):
    return len(result)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (module, attribute, span name or a function of the call's arguments, counter)
TARGETS = [
    ("multistep.nn", "forward", _forward_name, _count_forward),
    ("multistep.nn", "backward", "nn.backward", _count_backward),
    ("multistep.nn", "adam_step", "nn.adam_step", _count_adam),
    ("multistep.nn", "fit", "nn.fit", None),
    ("multistep.strategies", "rollout", "strategies.rollout",
     _counter("strategies.rollout.predictions", lambda a, k, r: r.size)),
    ("multistep.strategies", "train_recursive", "strategies.train", None),
    ("multistep.strategies", "train_direct", "strategies.train", None),
    ("multistep.strategies", "train_multi_output", "strategies.train", None),
    ("multistep.dad", "_rollout_aug", "dad.rollout_aug", None),
    ("multistep.dad", "build_augmented_dataset", "dad.build_augmented_dataset",
     _counter("dad.aug_rows", _result_len)),
    ("multistep.dad", "train_dad", "dad.meta", None),
    ("multistep.dad", "train_cdad", "dad.meta", None),
    ("multistep.cgan", "train_cgan", "cgan.train_cgan", None),
    ("multistep.cgan", "generate_pairs", "cgan.generate_pairs",
     _counter("cgan.synthetic_rows", _result_len)),
    ("multistep.data", "ingest_csv", "data.ingest_csv",
     _counter("data.ingest_rows", _result_len)),
    ("multistep.data", "write_series_csv", "data.write_series_csv", None),
    ("multistep.data", "aggregate", "data.aggregate", None),
    ("multistep.data", "split_by_date", "data.split_by_date", None),
    ("multistep.data", "make_windows", "data.make_windows",
     _counter("data.windows_built", _result_len)),
    ("multistep.evaluation", "evaluate", "evaluation.evaluate",
     _counter("evaluation.windows_scored", lambda a, k, r: r.num_samples)),
    ("multistep.serialize", "mlp_to_dict", "serialize.mlp_to_dict", None),
    ("multistep.serialize", "dump_json", "serialize.dump_json",
     _counter("serialize.bytes_written", _file_size)),
    ("multistep.serialize", "load_json", "serialize.load_json", None),
    ("multistep.serialize", "mlp_from_dict", "serialize.mlp_from_dict", None),
    ("multistep.cli", "cmd_ingest", "cli.ingest", None),
    ("multistep.cli", "cmd_train", "cli.train", None),
    ("multistep.cli", "cmd_evaluate", "cli.evaluate", None),
    ("multistep.synth", "make_synthetic_series", "synth.make_synthetic_series", None),
]
# `strategies.batch_predictor` returns a closure; the closure it returns is
# what gets traced, as `strategies.predict`.
PREDICTOR = ("multistep.strategies", "batch_predictor", "strategies.predict")

SPAN_NAMES = sorted(
    {n for _, _, n, _ in TARGETS if isinstance(n, str)}
    | {"nn.forward_train", "nn.forward_eval", PREDICTOR[2]}
)
COUNTERS = [
    "nn.train_steps", "nn.eval_rows", "nn.flops", "cgan.gan_steps",
    "strategies.rollout.predictions", "dad.aug_rows", "cgan.synthetic_rows",
    "data.ingest_rows", "data.windows_built", "evaluation.windows_scored",
    "serialize.bytes_written",
]


class Tracer:
    def __init__(self):
        # one (span name, start, end, parent index) per call, None while it runs
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.active = Counter()  # spans of each name currently open
        self.root_s = 0.0  # time covered by spans that have no parent
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, fn, name, count=None):
        spans, stack, active = self.spans, self._stack, self.active
        self_s, calls = self.self_s, self.calls
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            active[span] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[span] -= 1
                duration = end - start
                self_s[span] += duration - frame[1]
                calls[span] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                spans[index] = (span, start, end, parent)
            if count is not None:
                count(self, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the traced wrappers in every loaded multistep module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "multistep" or n.startswith("multistep.")]
        replaced = []

        def rebind(original, wrapper):
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))

        try:
            for module_name, attr, name, count in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                rebind(original, self.wrap(original, name, count))
            module_name, attr, name = PREDICTOR
            make_predictor = getattr(sys.modules[module_name], attr)
            rebind(make_predictor,
                   lambda *a, **k: self.wrap(make_predictor(*a, **k), name))
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def metrics(self, traced_wall_s: float, untraced_wall_s: float,
                iteration_root_s: float) -> dict[str, float]:
        """Every per-layer metric, by name."""
        s, c = self.self_s, self.counts
        out: dict[str, float] = {f"{n}.self_s": v for n, v in s.items()}
        out.update({f"{n}.calls": v for n, v in self.calls.items()})
        out.update(c)
        step_s = s["nn.forward_train"] + s["nn.backward"] + s["nn.adam_step"] + s["nn.fit"]
        matmul_s = s["nn.forward_train"] + s["nn.forward_eval"] + s["nn.backward"]
        out["nn.step_us"] = 1e6 * step_s / c["nn.train_steps"] if c["nn.train_steps"] else 0.0
        out["nn.gflops"] = c["nn.flops"] / matmul_s / 1e9 if matmul_s else 0.0
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        out["trace.unattributed_s"] = traced_wall_s - iteration_root_s
        return out

    def write(self, path) -> None:
        """Write the recorded spans as columns, times relative to the first span."""
        spans = self.spans
        names = sorted({sp[0] for sp in spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = min((sp[1] for sp in spans), default=0.0)
        np.savez(
            path,
            names=np.array(names),
            name=np.array([ids[sp[0]] for sp in spans], dtype=np.int32),
            start=np.array([sp[1] - t0 for sp in spans]),
            end=np.array([sp[2] - t0 for sp in spans]),
            parent=np.array([sp[3] for sp in spans], dtype=np.int64),
        )
