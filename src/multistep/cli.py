"""Command-line entry point.

Subcommands: ingest, train, evaluate, compare, synth-data. Runs are
driven by a JSON config (strict keys, defaults materialized into an
echoed copy next to the model) and are reproducible from the seed.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from datetime import timedelta

from . import evaluation, pipeline, schema, serialize, strategies, synth
from .data import RECIPE, Normalizer, aggregate, ingest_csv, make_windows, write_series_csv
from .errors import ConfigError, MultistepError

# the metadata rows that `train` writes and `evaluate` requires, beside the model's own
METADATA = {
    "q": schema.Int(1),
    "normalization": schema.Table({"min": schema.Real(), "max": schema.Real()}),
    "data": schema.Table({k: replace(kind, default=...) for k, kind in RECIPE.items()}),
}


# the suffixes a command adds to an output flag's path for the files it writes,
# where that is not the path alone: compare's --out is a prefix
WRITES = {("ingest", "output"): ("", ".json"), ("train", "out"): ("", ".config.json", ".log.json"),
          ("compare", "out"): (".json", ".txt")}


def _check_outputs(args) -> None:
    """Refuse, before any work, an output flag whose directory does not exist,
    or one of whose files is an existing directory; the files written beside
    an output share its directory."""
    for flag in ("output", "out", "report", "curves"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"--{flag} {path}: its directory does not exist")
        for file in (path + suffix for suffix in WRITES.get((args.command, flag), ("",))):
            if os.path.isdir(file):
                raise ConfigError(f"--{flag} {path}: {file} is an existing directory")


def _load_series(path, recipe: dict):
    resolution = timedelta(minutes=recipe["resolution_minutes"])
    series = ingest_csv(path, resolution, gap_policy=recipe["gap_policy"])
    return aggregate(series, recipe["aggregate_factor"])


def cmd_ingest(args) -> int:
    minutes = RECIPE["resolution_minutes"].check(args.resolution_minutes, "--resolution-minutes")
    RECIPE["aggregate_factor"].check(args.factor, "--factor")
    series = ingest_csv(args.input, timedelta(minutes=minutes), gap_policy=args.gap_policy)
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
    cfg = pipeline.resolve_config(serialize.load_json(args.config), seed_override=args.seed)
    data_cfg, strategy = cfg["data"], cfg["model"]["strategy"]
    model, training_log, normalizer, _ = pipeline.run(cfg, _load_series(args.data, data_cfg))
    meta = {
        "strategy_tag": strategy,
        "normalization": {"min": normalizer.min, "max": normalizer.max},
        "q": data_cfg["q"],
        "data": {k: data_cfg[k] for k in RECIPE},
    }
    serialize.dump_json(serialize.model_to_doc(model, meta), args.out)
    serialize.dump_json(cfg, str(args.out) + ".config.json")
    serialize.dump_json(training_log, str(args.out) + ".log.json")
    print(f"trained {strategy} model -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    doc = serialize.load_json(args.model)
    meta = serialize.check_metadata(doc.get("metadata", {}), METADATA)
    model = serialize.model_from_doc(doc)
    normalizer = Normalizer(meta["normalization"]["min"], meta["normalization"]["max"])
    series = _load_series(args.data, meta["data"])
    values = normalizer.apply(series.values)
    test = make_windows(values, meta["p"], meta["q"])
    predict_fn = strategies.batch_predictor(model, n_steps=meta["q"])
    report = evaluation.evaluate(
        predict_fn,
        test,
        normalizer=normalizer if args.denormalize else None,
        model_tag=args.tag or meta["strategy_tag"],
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
    text = evaluation.render_comparison_text(table)
    serialize.dump_json(table, args.out + ".json")
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
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MultistepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's message names the array it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
