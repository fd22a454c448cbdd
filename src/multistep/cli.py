"""Command-line entry point.

Subcommands: ingest, train, evaluate, compare, synth-data. Runs are
driven by a JSON config (strict keys, defaults materialized into an
echoed copy next to the model) and are reproducible from the seed.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np

from . import cgan as cgan_mod
from . import dad as dad_mod
from . import evaluation, serialize, strategies, synth
from .data import (
    Normalizer,
    SplitSpec,
    WindowedDataset,
    aggregate,
    fit_normalizer,
    ingest_csv,
    make_windows,
    split_by_date,
    write_series_csv,
)
from .errors import ConfigError, MultistepError
from .nn import TrainConfig

STRATEGIES = tuple(serialize.MODEL_KINDS)


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


def resolve_config(doc: dict, seed_override: int | None = None) -> dict:
    """Validate a run config and materialize every default."""
    known_top = {"seed", "data", "model", "dad", "cgan", "noise", "eval"}
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
            "stride": 1,
            "gap_policy": "reject",
            "input_csv": None,
        },
        required=("split",),
    )
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

    resolved = {
        "seed": seed,
        "data": data,
        "model": model,
        "eval": _section(doc, "eval", defaults={"denormalize": False}),
    }
    strategy = model["strategy"]
    if strategy in ("dad", "cdad"):
        resolved["dad"] = _section(
            doc,
            "dad",
            defaults={
                "n_steps": 8,
                "meta_iterations": 30,
                "inner_epochs": 50,
                "selection_metric": "mse",
                "accumulate": False,
            },
        )
    elif "dad" in doc:
        raise ConfigError(f"'dad' section given but strategy is {strategy!r}")
    if strategy == "multi-cgan":
        resolved["cgan"] = _section(
            doc,
            "cgan",
            defaults={
                "noise_dim": 16,
                "lr_discriminator": 2e-4,
                "lr_generator": 1e-4,
                "epochs": 200,
                "batch_size": 64,
                "synthetic_count": None,
            },
        )
    elif "cgan" in doc:
        raise ConfigError(f"'cgan' section given but strategy is {strategy!r}")
    if strategy == "multi-noise":
        resolved["noise"] = _section(
            doc, "noise", defaults={"sigma": 0.1, "interpret_as_stddev": True}
        )
    elif "noise" in doc:
        raise ConfigError(f"'noise' section given but strategy is {strategy!r}")
    return resolved


def _train_config(cfg: dict, seed: int, dropout: float) -> TrainConfig:
    t = cfg["model"]["train"]
    return TrainConfig(
        epochs=t["epochs"],
        batch_size=t["batch_size"],
        seed=seed,
        dropout_rate=dropout,
        learning_rate=t["learning_rate"],
    )


def _load_series(path, cfg_data: dict):
    series = ingest_csv(
        path,
        timedelta(minutes=cfg_data["resolution_minutes"]),
        gap_policy=cfg_data["gap_policy"],
    )
    if cfg_data["aggregate_factor"] > 1:
        series = aggregate(series, cfg_data["aggregate_factor"])
    return series


def cmd_ingest(args) -> int:
    series = ingest_csv(
        args.input,
        timedelta(minutes=args.resolution_minutes),
        gap_policy=args.gap_policy,
    )
    raw_rows = len(series)
    if args.factor > 1:
        series = aggregate(series, args.factor, how=args.how)
    write_series_csv(series, args.output)
    sidecar = {
        "rows": len(series),
        "resolution_minutes": series.resolution.total_seconds() / 60.0,
        "aggregate_factor": args.factor,
    }
    with open(str(args.output) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"read {raw_rows} rows, wrote {len(series)} rows to {args.output}")
    return 0


def cmd_synth_data(args) -> int:
    series = synth.make_synthetic_series(args.points, seed=args.seed)
    write_series_csv(series, args.output)
    print(f"wrote {len(series)} synthetic rows to {args.output}")
    return 0


def cmd_train(args) -> int:
    with open(args.config) as f:
        cfg = resolve_config(json.load(f), seed_override=args.seed)
    data_cfg = cfg["data"]
    series = _load_series(args.data, data_cfg)
    spec = SplitSpec(
        datetime.fromisoformat(data_cfg["split"]["train_end"]),
        datetime.fromisoformat(data_cfg["split"]["val_end"]),
    )
    train_series, val_series, _ = split_by_date(series, spec)
    normalizer = fit_normalizer(train_series)
    train_values = normalizer.apply(train_series.values)
    val_values = normalizer.apply(val_series.values)

    p, q = data_cfg["p"], data_cfg["q"]
    model_cfg = cfg["model"]
    strategy = model_cfg["strategy"]
    seed = cfg["seed"]
    tc = _train_config(cfg, seed, model_cfg["dropout"])
    arch = {
        "hidden_layers": model_cfg["hidden_layers"],
        "hidden_units": model_cfg["hidden_units"],
    }
    meta = {
        "strategy_tag": strategy,
        "normalization": {"min": normalizer.min, "max": normalizer.max},
        "q": q,
    }
    training_log: dict = {}

    if strategy == "recursive":
        model = strategies.train_recursive(make_windows(train_values, p, 1), tc, **arch)
    elif strategy in ("dad", "cdad"):
        d = cfg["dad"]
        dcfg = dad_mod.DadConfig(
            p=p,
            n_steps=d["n_steps"],
            meta_iterations=d["meta_iterations"],
            inner_train=replace(tc, epochs=d["inner_epochs"]),
            conditional=(strategy == "cdad"),
            selection_metric=d["selection_metric"],
            accumulate=d["accumulate"],
            base_train=tc,
            **arch,
        )
        trainer = dad_mod.train_cdad if strategy == "cdad" else dad_mod.train_dad
        result = trainer(train_values, val_values, dcfg)
        meta["max_step"] = None  # DaD documents carry it too; model_to_doc sets CDaD's
        model = result.best_model
        training_log = result.to_log_dict()
    elif strategy in ("direct", "hybrid"):
        model = strategies.train_direct(
            make_windows(train_values, p, q), tc, hybrid=(strategy == "hybrid"), **arch
        )
    elif strategy in ("multi", "multi-noise", "multi-cgan"):
        windows = make_windows(train_values, p, q)
        if strategy == "multi-noise":
            n = cfg["noise"]
            windows = cgan_mod.noise_augment(
                windows,
                n["sigma"],
                np.random.default_rng((seed, 1)),
                interpret_as_stddev=n["interpret_as_stddev"],
            )
            training_log["augmented_rows"] = len(windows)
        elif strategy == "multi-cgan":
            c = cfg["cgan"]
            ccfg = cgan_mod.CganConfig(
                noise_dim=c["noise_dim"],
                lr_discriminator=c["lr_discriminator"],
                lr_generator=c["lr_generator"],
                epochs=c["epochs"],
                batch_size=c["batch_size"],
                seed=seed,
                hidden_layers=model_cfg["hidden_layers"],
                hidden_units=model_cfg["hidden_units"],
            )
            pair = cgan_mod.train_cgan(windows, ccfg)
            count = c["synthetic_count"] if c["synthetic_count"] is not None else len(windows)
            rng = np.random.default_rng((seed, 2))
            synthetic = cgan_mod.generate_pairs(
                pair, cgan_mod.resample_futures(windows, count, rng), rng
            )
            combined_h = np.concatenate([windows.histories, synthetic.histories])
            combined_f = np.concatenate([windows.futures, synthetic.futures])
            training_log["cgan_log"] = pair.training_log
            training_log["synthetic_rows"] = len(synthetic)
            windows = WindowedDataset(combined_h, combined_f, p, q)
            training_log["combined_rows"] = len(windows)
        model = strategies.train_multi_output(windows, tc, **arch)
    else:  # pragma: no cover - resolve_config rejects unknown strategies
        raise ConfigError(f"unknown strategy {strategy!r}")

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
    series = ingest_csv(
        args.data, timedelta(minutes=args.resolution_minutes), gap_policy="reject"
    )
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
    p_ev.add_argument("--resolution-minutes", type=float, default=15.0)
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
