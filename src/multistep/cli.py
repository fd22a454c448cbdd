"""Command-line entry point.

Subcommands: ingest, train, evaluate, compare, synth-data. Runs are
driven by a JSON config (strict keys, defaults materialized into an
echoed copy next to the model) and are reproducible from the seed.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from datetime import datetime, timedelta

from . import cgan, evaluation, pipeline, serialize, strategies, synth
from .data import (
    Normalizer,
    SplitSpec,
    aggregate,
    fit_normalizer,
    ingest_csv,
    make_windows,
    split_by_date,
    write_series_csv,
)
from .errors import ConfigError, MultistepError
from .nn import TrainConfig, _is_int

STRATEGIES = tuple(pipeline.STRATEGIES)


def _section(doc: dict, key: str, defaults: dict, required: tuple = ()) -> dict:
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    unknown = set(raw) - set(defaults) - set(required)
    if unknown:
        raise ConfigError(f"unknown config keys in {key!r}: {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys in {key!r}: {missing}")
    out = dict(defaults)
    out.update(raw)
    return out


# The optional config sections with their defaults; a strategy takes the
# one its pipeline row names and rejects the others.
_SECTION_DEFAULTS = {
    "dad": {
        "n_steps": 8,
        "meta_iterations": 30,
        "inner_epochs": 50,
        "selection_metric": "mse",
        "accumulate": False,
    },
    "cgan": {
        "noise_dim": 16,
        "lr_discriminator": 2e-4,
        "lr_generator": 1e-4,
        "epochs": 200,
        "batch_size": 64,
        "synthetic_count": None,
    },
    "noise": {"sigma": 0.1, "interpret_as_stddev": True},
}


def resolve_config(doc: dict, seed_override: int | None = None) -> dict:
    """Validate a run config and materialize every default."""
    known_top = {"seed", "data", "model", *_SECTION_DEFAULTS}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    seed = int(doc.get("seed", 0)) if seed_override is None else seed_override

    data = _section(
        doc,
        "data",
        defaults={
            "aggregate_factor": 1,
            "resolution_minutes": 15,
            "p": 8,
            "q": 8,
            "gap_policy": "reject",
        },
        required=("split",),
    )
    if not all(_is_int(data[k]) and data[k] >= 1 for k in ("p", "q")):
        raise ConfigError(f"data.p and data.q must be integers >= 1, got {data['p']!r}, "
                          f"{data['q']!r}")
    split = data["split"]
    if not isinstance(split, dict) or set(split) != {"train_end", "val_end"}:
        raise ConfigError("data.split must contain exactly train_end and val_end")

    model = _section(
        doc,
        "model",
        defaults={
            "hidden_layers": 2,
            "hidden_units": 150,
            "dropout": 0.1,
            "train": {},
        },
        required=("strategy",),
    )
    if model["strategy"] not in STRATEGIES:
        raise ConfigError(
            f"model.strategy must be one of {STRATEGIES}, got {model['strategy']!r}"
        )
    train = dict(model["train"])
    unknown = set(train) - {"epochs", "batch_size", "learning_rate"}
    if unknown:
        raise ConfigError(f"unknown config keys in model.train: {sorted(unknown)}")
    model["train"] = {
        "epochs": train.get("epochs", 200),
        "batch_size": train.get("batch_size", 64),
        "learning_rate": train.get("learning_rate", 1e-3),
    }

    resolved = {"seed": seed, "data": data, "model": model}
    strategy = model["strategy"]
    row = pipeline.STRATEGIES[strategy]
    for name, defaults in _SECTION_DEFAULTS.items():
        if name == row.section:
            resolved[name] = _section(doc, name, defaults)
        elif name in doc:
            raise ConfigError(f"{name!r} section given but strategy is {strategy!r}")
    if row.options.get("conditional") and data["q"] > resolved["dad"]["n_steps"]:
        # its step input is trained to depth n_steps, and serving refuses deeper
        raise ConfigError(
            f"{strategy} trained to depth dad.n_steps={resolved['dad']['n_steps']} "
            f"cannot be evaluated at data.q={data['q']}"
        )
    return resolved


# what `_load_series` reads; `train` records it as the model's metadata.data
RECIPE_KEYS = ("resolution_minutes", "aggregate_factor", "gap_policy")


def _resolution(minutes) -> timedelta:
    """`minutes` as a timedelta; ConfigError unless it is a finite real number > 0."""
    if (isinstance(minutes, numbers.Real) and not isinstance(minutes, bool)
            and math.isfinite(minutes) and minutes > 0):
        try:
            return timedelta(minutes=minutes)
        except OverflowError:
            pass
    raise ConfigError(f"resolution_minutes must be a finite number > 0, got {minutes!r}")


def _load_series(path, recipe: dict):
    resolution = _resolution(recipe["resolution_minutes"])
    series = ingest_csv(path, resolution, gap_policy=recipe["gap_policy"])
    return aggregate(series, recipe["aggregate_factor"])


def cmd_ingest(args) -> int:
    series = ingest_csv(
        args.input, _resolution(args.resolution_minutes), gap_policy=args.gap_policy
    )
    raw_rows = len(series)
    series = aggregate(series, args.factor, how=args.how)
    write_series_csv(series, args.output)
    sidecar = {
        "rows": len(series),
        "resolution_minutes": series.resolution.total_seconds() / 60.0,
        "aggregate_factor": args.factor,
    }
    serialize.dump_json(sidecar, str(args.output) + ".json")
    print(f"read {raw_rows} rows, wrote {len(series)} rows to {args.output}")
    return 0


def cmd_synth_data(args) -> int:
    series = synth.make_synthetic_series(args.points, seed=args.seed)
    write_series_csv(series, args.output)
    print(f"wrote {len(series)} synthetic rows to {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(serialize.load_json(args.config), seed_override=args.seed)
    data_cfg = cfg["data"]
    series = _load_series(args.data, data_cfg)
    split = SplitSpec(
        datetime.fromisoformat(data_cfg["split"]["train_end"]),
        datetime.fromisoformat(data_cfg["split"]["val_end"]),
    )
    train_series, val_series, _ = split_by_date(series, split)
    normalizer = fit_normalizer(train_series)
    train_values = normalizer.apply(train_series.values)
    val_values = normalizer.apply(val_series.values)

    model_cfg = cfg["model"]
    strategy = model_cfg["strategy"]
    arch = {k: model_cfg[k] for k in ("hidden_layers", "hidden_units")}
    gan = dict(cfg.get("cgan", {}))
    synthetic_count = gan.pop("synthetic_count", None)
    spec = pipeline.TrainSpec(
        p=data_cfg["p"],
        q=data_cfg["q"],
        train=TrainConfig(
            seed=cfg["seed"], dropout_rate=model_cfg["dropout"], **model_cfg["train"]
        ),
        **arch,
        dad=cfg.get("dad"),
        noise=cfg.get("noise"),
        cgan=cgan.CganConfig(seed=cfg["seed"], **arch, **gan) if gan else None,
        synthetic_count=synthetic_count,
    )
    model, training_log = pipeline.train(strategy, train_values, val_values, spec)
    meta = {
        "strategy_tag": strategy,
        "normalization": {"min": normalizer.min, "max": normalizer.max},
        "q": spec.q,
        "data": {k: data_cfg[k] for k in RECIPE_KEYS},
    }
    serialize.dump_json(serialize.model_to_doc(model, meta), args.out)
    serialize.dump_json(cfg, str(args.out) + ".config.json")
    serialize.dump_json(training_log, str(args.out) + ".log.json")
    print(f"trained {strategy} model -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    doc = serialize.load_json(args.model)
    model = serialize.model_from_doc(doc)
    meta = doc["metadata"]
    p, q = meta["p"], meta["q"]
    norm = meta["normalization"]
    normalizer = Normalizer(norm["min"], norm["max"])
    recipe = meta.get("data", {})
    missing = [k for k in RECIPE_KEYS if not isinstance(recipe, dict) or k not in recipe]
    if missing:
        raise ConfigError(f"{args.model}: metadata.data lacks {missing}; retrain to record them")
    series = _load_series(args.data, recipe)
    values = normalizer.apply(series.values)
    test = make_windows(values, p, q)
    predict_fn = strategies.batch_predictor(model, n_steps=q)
    report = evaluation.evaluate(
        predict_fn,
        test,
        normalizer=normalizer,
        model_tag=args.tag or meta["strategy_tag"],
        denormalize=args.denormalize,
    )
    evaluation.save_report(report, args.report)
    if args.curves:
        evaluation.export_step_curves([report], args.curves)
    print(
        f"{report.model_tag}: mse={report.overall_mse:.6f} mae={report.overall_mae:.6f} "
        f"({report.num_samples} samples)"
    )
    return 0


def cmd_compare(args) -> int:
    reports = [evaluation.load_report(p) for p in args.reports]
    table = evaluation.build_comparison(reports, args.baseline)
    serialize.dump_json(table.to_dict(), args.out + ".json")
    text = evaluation.render_comparison_text(table)
    with open(args.out + ".txt", "w") as f:
        f.write(text)
    if args.curves:
        evaluation.export_step_curves(reports, args.curves)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multistep", description="Multi-step traffic-flow forecasting toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ing = sub.add_parser("ingest", help="validate and aggregate a raw flow CSV")
    p_ing.add_argument("--input", required=True)
    p_ing.add_argument("--output", required=True)
    p_ing.add_argument("--factor", type=int, default=3)
    p_ing.add_argument("--resolution-minutes", type=float, default=5.0)
    p_ing.add_argument("--gap-policy", choices=["reject", "linear"], default="reject")
    p_ing.add_argument("--how", choices=["sum", "mean"], default="sum")
    p_ing.set_defaults(func=cmd_ingest)

    p_syn = sub.add_parser("synth-data", help="write the seeded synthetic benchmark series")
    p_syn.add_argument("--points", type=int, required=True)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--output", required=True)
    p_syn.set_defaults(func=cmd_synth_data)

    p_tr = sub.add_parser("train", help="train any strategy from a JSON config")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--data", required=True)
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--seed", type=int, default=None, help="override config seed")
    p_tr.set_defaults(func=cmd_train)

    p_ev = sub.add_parser("evaluate", help="score a trained model on a series CSV")
    p_ev.add_argument("--model", required=True)
    p_ev.add_argument("--data", required=True)
    p_ev.add_argument("--report", required=True)
    p_ev.add_argument("--curves", default=None)
    p_ev.add_argument("--denormalize", action="store_true")
    p_ev.add_argument("--tag", default=None)
    p_ev.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="improvement table from report JSONs")
    p_cmp.add_argument("--reports", nargs="+", required=True)
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--curves", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MultistepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
