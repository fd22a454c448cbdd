"""One table from strategy tag to training recipe.

`train(strategy, train_values, val_values, spec)` is how the CLI, the
experiment script and the acceptance suite train every strategy. Recipes
look trainers up on their modules at call time and never store them, so
a profiler that rebinds `strategies.train_*`, `dad.train_*` or `cgan.*`
sees every call.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import cgan, dad, schema, strategies
from .cgan import CganConfig
from .data import WindowedDataset, make_windows
from .errors import ConfigError
from .nn import ARCH, BUDGET, DROPOUT


# what a strategy trains with besides its data; the seed of `train` also seeds the noise and
# C-GAN sampling, and only the strategies whose row names `dad`, `noise` or `cgan` read it
_SECTION = schema.Table(None, null=True)  # a config section's dict, or null
TrainSpec = schema.record(
    "TrainSpec", ARCH,
    hidden_layers=replace(ARCH["hidden_layers"], default=...),
    hidden_units=replace(ARCH["hidden_units"], default=...),
    dropout=replace(DROPOUT, default=0.0),
    p=schema.Int(1), q=schema.Int(1), train=BUDGET, dad=_SECTION, noise=_SECTION,
    cgan=schema.Kind("a CganConfig", lambda v: isinstance(v, CganConfig), default=None),
)


def _arch(spec: TrainSpec) -> dict:
    return {k: getattr(spec, k) for k in ARCH}


def _recursive(train_values, val_values, spec):
    windows = make_windows(train_values, spec.p, 1)
    return strategies.train_recursive(windows, spec.train, **_arch(spec)), {}


def _corrective(train_values, val_values, spec, conditional):
    section = dict(spec.dad)
    cfg = dad.DadConfig(
        p=spec.p,
        inner_train=replace(spec.train, epochs=section.pop("inner_epochs")),
        conditional=conditional,
        base_train=spec.train,
        **_arch(spec),
        **section,
    )
    trainer = dad.train_cdad if conditional else dad.train_dad
    result = trainer(train_values, val_values, cfg)
    return result.best_model, result.to_log_dict()


def _direct(train_values, val_values, spec, hybrid):
    windows = make_windows(train_values, spec.p, spec.q)
    return strategies.train_direct(windows, spec.train, hybrid=hybrid, **_arch(spec)), {}


def _multi(train_values, val_values, spec, augment):
    windows = make_windows(train_values, spec.p, spec.q)
    log: dict = {}
    if augment is not None:
        windows = augment(windows, spec, log)
    return strategies.train_multi_output(windows, spec.train, **_arch(spec)), log


def _noise(windows, spec, log):
    rng = np.random.default_rng((spec.train.seed, 1))
    windows = cgan.noise_augment(windows, rng=rng, **spec.noise)
    log["augmented_rows"] = len(windows)
    return windows


def _gan(windows, spec, log):
    pair = cgan.train_cgan(windows, spec.cgan)
    count = len(windows) if spec.cgan.synthetic_count is None else spec.cgan.synthetic_count
    rng = np.random.default_rng((spec.train.seed, 2))
    synthetic = cgan.generate_pairs(pair, cgan.resample_futures(windows, count, rng), rng)
    log.update(cgan_log=pair.training_log, synthetic_rows=len(synthetic))
    log["combined_rows"] = len(windows) + len(synthetic)
    return WindowedDataset(
        np.concatenate([windows.histories, synthetic.histories]),
        np.concatenate([windows.futures, synthetic.futures]),
        windows.p,
        windows.q,
    )


class Strategy(NamedTuple):
    kind: type  # the model class it trains
    section: str | None  # the TrainSpec field, and config section, it reads
    recipe: Callable  # called as recipe(train_values, val_values, spec, **options)
    options: dict


# Every strategy, in the order of the CLI's choices and the experiment tables.
STRATEGIES = {
    "recursive": Strategy(strategies.RecursiveModel, None, _recursive, {}),
    "dad": Strategy(strategies.RecursiveModel, "dad", _corrective, {"conditional": False}),
    "cdad": Strategy(strategies.RecursiveModel, "dad", _corrective, {"conditional": True}),
    "direct": Strategy(strategies.DirectModelSet, None, _direct, {"hybrid": False}),
    "hybrid": Strategy(strategies.DirectModelSet, None, _direct, {"hybrid": True}),
    "multi": Strategy(strategies.MultiOutputModel, None, _multi, {"augment": None}),
    "multi-noise": Strategy(strategies.MultiOutputModel, "noise", _multi, {"augment": _noise}),
    "multi-cgan": Strategy(strategies.MultiOutputModel, "cgan", _multi, {"augment": _gan}),
}


def train(strategy: str, train_values, val_values, spec: TrainSpec):
    """Train `strategy` on normalised series values; returns (model, log),
    the log being what `multistep train` writes to `<out>.log.json`. Only
    the corrective strategies read `val_values`, to pick their iterate."""
    row = STRATEGIES.get(strategy)
    if row is None:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {tuple(STRATEGIES)}")
    if row.section is not None and getattr(spec, row.section) is None:
        raise ConfigError(f"strategy {strategy!r} needs spec.{row.section}")
    return row.recipe(train_values, val_values, spec, **row.options)
