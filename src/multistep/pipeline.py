"""One table from strategy tag to training recipe, and the run config it reads.

`run(cfg, series)` trains a resolved `multistep train` config on a
series; it is how the CLI, the experiment script and the acceptance
suite train every strategy. Recipes look trainers up on their modules at
call time and never store them, so a profiler that rebinds
`strategies.train_*`, `dad.train_*`, `cgan.*` or `split_by_date` sees
every call.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime
from typing import Callable, NamedTuple

import numpy as np

from . import cgan, dad, schema, strategies
from .data import RECIPE, SplitSpec, WindowedDataset, fit_normalizer, make_windows, split_by_date
from .errors import ConfigError
from .nn import ARCH, BUDGET, TRAIN, TrainConfig


# what a strategy trains with besides its data; the seed of `train` also seeds the noise and
# C-GAN sampling, and only the strategies whose row names `dad`, `noise` or `cgan` read it.
# Each section holds its config section as its table fills it, or null.
TrainSpec = schema.record(
    "TrainSpec", ARCH, p=schema.Int(1), q=schema.Int(1), train=BUDGET,
    dad=schema.Table(dad.SECTION, null=True), noise=schema.Table(cgan.NOISE, null=True),
    cgan=schema.Table(cgan.SECTION, null=True),
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
    # a null width is the predictor's; the nets train without dropout, seeded by the run
    widths = {k: getattr(spec, k) if spec.cgan[k] is None else spec.cgan[k]
              for k in ("hidden_layers", "hidden_units")}
    cfg = cgan.CganConfig(**{**spec.cgan, **widths}, seed=spec.train.seed)
    pair = cgan.train_cgan(windows, cfg)
    count = len(windows) if cfg.synthetic_count is None else cfg.synthetic_count
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
    cfg = schema.check(doc if seed_override is None else dict(doc, seed=seed_override), CONFIG)
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
    """Train the resolved config `cfg` on `series`: split at data.split,
    min-max normalise on the train segment, train its strategy. Returns
    (model, log, normalizer, normalised test values)."""
    data, model = cfg["data"], cfg["model"]
    split = SplitSpec(**{k: datetime.fromisoformat(v) for k, v in data["split"].items()})
    train_series, val_series, test_series = split_by_date(series, split)
    normalizer = fit_normalizer(train_series)
    spec = TrainSpec(p=data["p"], q=data["q"],
                     train=TrainConfig(seed=cfg["seed"], **model["train"]),
                     **{k: model[k] for k in ARCH},
                     **{k: cfg.get(k) for k in ("dad", "noise", "cgan")})
    trained, log = train(model["strategy"], normalizer.apply(train_series.values),
                         normalizer.apply(val_series.values), spec)
    return trained, log, normalizer, normalizer.apply(test_series.values)
