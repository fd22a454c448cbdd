"""One table from strategy tag to training recipe, and the run config it reads.

`train(cfg, train_values, val_values)` trains a run config on a split
series and `run(cfg, series)` splits one for it; the CLI, the experiment
script and the acceptance suite train every strategy through `run`.
Recipes look trainers up on their modules at call time and never store
them, so a profiler that rebinds `strategies.train_*`, `dad.train_*`,
`cgan.*` or `split_by_date` sees every call.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime
from typing import Callable, NamedTuple

import numpy as np

from . import cgan, dad, schema, strategies
from .data import RECIPE, SplitSpec, WindowedDataset, fit_normalizer, make_windows, split_by_date
from .errors import ConfigError
from .nn import ARCH, TRAIN, TrainConfig


def _arch(cfg: dict) -> dict:
    return {k: cfg["model"][k] for k in ARCH}


def _budget(cfg: dict) -> TrainConfig:
    return TrainConfig(seed=cfg["seed"], **cfg["model"]["train"])


def _recursive(train_values, val_values, cfg):
    windows = make_windows(train_values, cfg["data"]["p"], 1)
    return strategies.train_recursive(windows, _budget(cfg), **_arch(cfg)), {}


def _corrective(train_values, val_values, cfg, conditional):
    section, budget = dict(cfg["dad"]), _budget(cfg)
    dad_cfg = dad.DadConfig(
        p=cfg["data"]["p"],
        inner_train=replace(budget, epochs=section.pop("inner_epochs")),
        conditional=conditional,
        base_train=budget,
        **_arch(cfg),
        **section,
    )
    trainer = dad.train_cdad if conditional else dad.train_dad
    result = trainer(train_values, val_values, dad_cfg)
    return result.best_model, result.to_log_dict()


def _direct(train_values, val_values, cfg, hybrid):
    windows = make_windows(train_values, cfg["data"]["p"], cfg["data"]["q"])
    return strategies.train_direct(windows, _budget(cfg), hybrid=hybrid, **_arch(cfg)), {}


def _multi(train_values, val_values, cfg, augment):
    windows = make_windows(train_values, cfg["data"]["p"], cfg["data"]["q"])
    log: dict = {}
    if augment is not None:
        windows = augment(windows, cfg, log)
    return strategies.train_multi_output(windows, _budget(cfg), **_arch(cfg)), log


def _noise(windows, cfg, log):
    rng = np.random.default_rng((cfg["seed"], 1))
    windows = cgan.noise_augment(windows, rng=rng, **cfg["noise"])
    log["augmented_rows"] = len(windows)
    return windows


def _gan(windows, cfg, log):
    # a null width is the predictor's; the nets train without dropout, seeded by the run
    widths = {k: cfg["model"][k] if cfg["cgan"][k] is None else cfg["cgan"][k]
              for k in ("hidden_layers", "hidden_units")}
    gan_cfg = cgan.CganConfig(**{**cfg["cgan"], **widths}, seed=cfg["seed"])
    pair = cgan.train_cgan(windows, gan_cfg)
    rng = np.random.default_rng((cfg["seed"], 2))  # one synthetic pair per real window
    synthetic = cgan.generate_pairs(pair, cgan.resample_futures(windows, len(windows), rng), rng)
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
    section: str | None  # the config section it reads besides `data`, `model` and `seed`
    recipe: Callable  # called as recipe(train_values, val_values, cfg, **options)
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


def train(cfg: dict, train_values, val_values):
    """Train the strategy of the run config `cfg`, resolved first, on
    normalised series values; returns (model, log), the log being what
    `multistep train` writes to `<out>.log.json`. Only the corrective
    strategies read `val_values`, to pick their iterate."""
    cfg = resolve_config(cfg)
    row = STRATEGIES[cfg["model"]["strategy"]]
    return row.recipe(train_values, val_values, cfg, **row.options)


# a run config; a strategy keeps the one of dad, cgan and noise its row names
CONFIG = {
    "seed": schema.Int(0, default=0),
    "data": schema.Table({
        "split": schema.Table({"train_end": schema.DATETIME, "val_end": schema.DATETIME}),
        "p": schema.Int(1, default=8),
        "q": schema.Int(1, default=8),
        **RECIPE,
    }),
    "model": schema.Table({
        "strategy": schema.OneOf(tuple(STRATEGIES)),
        **ARCH,
        "train": schema.Table(TRAIN),
    }),
    "dad": schema.Table(dad.SECTION),
    "cgan": schema.Table(cgan.SECTION),
    "noise": schema.Table(cgan.NOISE),
}


def resolve_config(doc: dict, seed_override: int | None = None) -> dict:
    """`doc` checked against CONFIG, every default materialized."""
    if seed_override is not None and isinstance(doc, dict):  # the check refuses a non-object
        doc = dict(doc, seed=seed_override)
    cfg = schema.check(doc, CONFIG)
    strategy, q = cfg["model"]["strategy"], cfg["data"]["q"]
    row = STRATEGIES[strategy]
    for name in ("dad", "cgan", "noise"):
        if name != row.section:
            if name in doc:
                raise ConfigError(f"{name!r} section given but strategy is {strategy!r}")
            del cfg[name]
    if row.options.get("conditional") and q > cfg["dad"]["n_steps"]:
        # its step input is trained to depth n_steps, and serving refuses deeper
        raise ConfigError(f"{strategy} trained to depth dad.n_steps={cfg['dad']['n_steps']} "
                          f"cannot be evaluated at data.q={q}")
    if row.kind is strategies.MultiOutputModel and q < 2:
        raise ConfigError(f"{strategy} needs data.q >= 2, got {q}; "
                          "train recursive or direct for one step")
    return cfg


def run(cfg: dict, series):
    """Train the config `cfg`, resolved first, on `series`: split at
    data.split, min-max normalise on the train segment, train its
    strategy. Returns (model, log, normalizer, normalised test values)."""
    cfg = resolve_config(cfg)
    split = SplitSpec(**{k: datetime.fromisoformat(v) for k, v in cfg["data"]["split"].items()})
    train_series, val_series, test_series = split_by_date(series, split)
    normalizer = fit_normalizer(train_series)
    trained, log = train(cfg, normalizer.apply(train_series.values),
                         normalizer.apply(val_series.values))
    return trained, log, normalizer, normalizer.apply(test_series.values)
