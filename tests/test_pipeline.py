"""The strategy table: same bits as the hand-written dispatch it replaced,
each strategy reaching exactly its trainers, and one list of tags; the
seeded benchmark loop: same bits as the loop written out by hand, and as
`multistep train` and `evaluate` on the test segment."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from multistep import cgan, cli, dad, evaluation, pipeline, serialize, strategies, synth
from multistep.data import WindowedDataset, fit_normalizer, make_windows
from multistep.errors import ConfigError
from multistep.nn import TrainConfig

RNG = np.random.default_rng(5)
TRAIN, VAL = RNG.uniform(0, 1, 80), RNG.uniform(0, 1, 40)
SPEC = pipeline.TrainSpec(
    p=4,
    q=4,
    train=TrainConfig(epochs=2, batch_size=16, seed=3),
    hidden_layers=1,
    hidden_units=4,
    dropout=0.1,
    dad={"n_steps": 5, "meta_iterations": 2, "inner_epochs": 1,
         "selection_metric": "mae", "accumulate": True},
    noise={"sigma": 0.01, "interpret_as_stddev": False},
    cgan={"noise_dim": 2, "epochs": 2, "batch_size": 16, "synthetic_count": 30,
          "hidden_units": 6},
)


def hand_dispatch(strategy, train_values, val_values, spec):
    """The per-strategy sequence `multistep train` ran before the table,
    kept as the reference."""
    p, q, tc, seed = spec.p, spec.q, spec.train, spec.train.seed
    arch = {"hidden_layers": spec.hidden_layers, "hidden_units": spec.hidden_units,
            "dropout": spec.dropout}
    log = {}
    if strategy == "recursive":
        model = strategies.train_recursive(make_windows(train_values, p, 1), tc, **arch)
    elif strategy in ("dad", "cdad"):
        d = spec.dad
        dcfg = dad.DadConfig(
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
        trainer = dad.train_cdad if strategy == "cdad" else dad.train_dad
        result = trainer(train_values, val_values, dcfg)
        model, log = result.best_model, result.to_log_dict()
    elif strategy in ("direct", "hybrid"):
        model = strategies.train_direct(
            make_windows(train_values, p, q), tc, hybrid=(strategy == "hybrid"), **arch
        )
    else:
        windows = make_windows(train_values, p, q)
        if strategy == "multi-noise":
            windows = cgan.noise_augment(
                windows,
                spec.noise["sigma"],
                np.random.default_rng((seed, 1)),
                interpret_as_stddev=spec.noise["interpret_as_stddev"],
            )
            log["augmented_rows"] = len(windows)
        elif strategy == "multi-cgan":
            section = dict(spec.cgan)
            for key in ("hidden_layers", "hidden_units"):  # null: the predictor's
                if section[key] is None:
                    section[key] = getattr(spec, key)
            gan = cgan.CganConfig(**section, seed=seed)  # no dropout
            pair = cgan.train_cgan(windows, gan)
            count = len(windows) if gan.synthetic_count is None else gan.synthetic_count
            rng = np.random.default_rng((seed, 2))
            synthetic = cgan.generate_pairs(
                pair, cgan.resample_futures(windows, count, rng), rng
            )
            log["cgan_log"] = pair.training_log
            log["synthetic_rows"] = len(synthetic)
            windows = WindowedDataset(
                np.concatenate([windows.histories, synthetic.histories]),
                np.concatenate([windows.futures, synthetic.futures]),
                p,
                q,
            )
            log["combined_rows"] = len(windows)
        model = strategies.train_multi_output(windows, tc, **arch)
    return model, log


def nets(model):
    return model.models if isinstance(model, strategies.DirectModelSet) else [model.net]


@pytest.mark.parametrize("tag", pipeline.STRATEGIES)
def test_table_equals_hand_dispatch_bitwise(tag):
    model, log = pipeline.train(tag, TRAIN, VAL, SPEC)
    ref_model, ref_log = hand_dispatch(tag, TRAIN, VAL, SPEC)
    assert type(model) is type(ref_model)
    assert len(nets(model)) == len(nets(ref_model))
    for net, ref in zip(nets(model), nets(ref_model)):
        assert np.array_equal(net.params, ref.params)
    meta = {"strategy_tag": tag}
    assert serialize.model_to_doc(model, meta) == serialize.model_to_doc(ref_model, meta)
    assert log == ref_log


@pytest.mark.parametrize("tag", pipeline.STRATEGIES)
def test_dropout_reaches_every_predictor_net(tag):
    model, _ = pipeline.train(tag, TRAIN, VAL, SPEC)
    assert [net.dropout_rate for net in nets(model)] == [SPEC.dropout] * len(nets(model))


def benchmark_config(strategy, **sections):
    return {"seed": 9, "data": {"p": 4, "q": 4, "split": synth.split(60, n_val=40)},
            "model": {"strategy": strategy, "hidden_layers": 1, "hidden_units": 4,
                      "train": {"epochs": 2, "batch_size": 16}}, **sections}


def test_run_seeds_equals_the_hand_loop_bitwise():
    configs = [benchmark_config("cdad", dad={"n_steps": 4, "meta_iterations": 2,
                                             "inner_epochs": 1}),
               benchmark_config("multi-cgan", cgan={"noise_dim": 2, "epochs": 2,
                                                    "hidden_layers": 2})]
    got = synth.run_seeds(configs, (0, 1), n_points=140)
    for i, seed in enumerate((0, 1)):
        values = synth.make_synthetic_series(140, seed=1000 + seed).values
        norm = fit_normalizer(values[:60])
        train, val, test = np.split(norm.apply(values), [60, 100])
        for cfg in configs:
            tag = cfg["model"]["strategy"]
            spec = replace(SPEC, train=TrainConfig(epochs=2, batch_size=16, seed=seed),
                           hidden_units=4, dropout=0.1, dad=cfg.get("dad"),
                           noise=None, cgan=cfg.get("cgan"))
            model, _ = pipeline.train(tag, train, val, spec)
            ref = evaluation.evaluate(strategies.batch_predictor(model, 4),
                                      make_windows(test, 4, 4), model_tag=tag)
            assert got[tag][i] == ref


def test_the_cli_on_the_test_segment_gives_the_reports_of_run_seeds(tmp_path):
    # one seed of every strategy: synth-data, train at --seed 0, then evaluate
    # on a CSV of the rows after val_end
    sections = {"dad": {"n_steps": 4, "meta_iterations": 2, "inner_epochs": 1},
                "noise": {"sigma": 0.05}, "cgan": {"noise_dim": 2, "epochs": 2, "hidden_layers": 2}}
    configs = [benchmark_config(tag, **({row.section: sections[row.section]} if row.section
                                        else {})) for tag, row in pipeline.STRATEGIES.items()]
    expected = synth.run_seeds(configs, [0], n_points=140)
    series, test = tmp_path / "series.csv", tmp_path / "test.csv"
    assert cli.main(["synth-data", "--points", "140", "--seed", "1000", "--output",
                     str(series)]) == 0
    header, *rows = series.read_text().splitlines(keepends=True)
    test.write_text(header + "".join(rows[100:]))
    for cfg in configs:
        tag = cfg["model"]["strategy"]
        paths = {name: str(tmp_path / f"{tag}.{name}") for name in ("cfg", "model", "report")}
        with open(paths["cfg"], "w") as f:
            json.dump(cfg, f)
        assert cli.main(["train", "--config", paths["cfg"], "--data", str(series), "--seed", "0",
                         "--out", paths["model"]]) == 0
        assert cli.main(["evaluate", "--model", paths["model"], "--data", str(test),
                         "--report", paths["report"]]) == 0
        assert evaluation.load_report(paths["report"]) == expected[tag][0]


TRAINERS = {
    "strategies.train_recursive": (strategies, "train_recursive"),
    "strategies.train_direct": (strategies, "train_direct"),
    "strategies.train_multi_output": (strategies, "train_multi_output"),
    "dad.train_dad": (dad, "train_dad"),
    "dad.train_cdad": (dad, "train_cdad"),
    "cgan.noise_augment": (cgan, "noise_augment"),
    "cgan.train_cgan": (cgan, "train_cgan"),
    "cgan.generate_pairs": (cgan, "generate_pairs"),
}
REACHES = {
    "recursive": ["strategies.train_recursive"],
    "dad": ["dad.train_dad"],
    "cdad": ["dad.train_cdad"],
    "direct": ["strategies.train_direct"],
    "hybrid": ["strategies.train_direct"],
    "multi": ["strategies.train_multi_output"],
    "multi-noise": ["cgan.noise_augment", "strategies.train_multi_output"],
    "multi-cgan": ["cgan.train_cgan", "cgan.generate_pairs", "strategies.train_multi_output"],
}


@pytest.mark.parametrize("tag", list(REACHES))
def test_each_strategy_calls_its_trainers_once_through_the_module(monkeypatch, tag):
    # Rebinding only the module attribute, as a profiler does, must catch
    # every call: the table may not hold the trainers themselves.
    counts = Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (module, attr) in TRAINERS.items():
        monkeypatch.setattr(module, attr, counting(getattr(module, attr), name))
    pipeline.train(tag, TRAIN, VAL, SPEC)
    assert counts == Counter(REACHES[tag])


def test_one_list_of_tags():
    assert tuple(serialize.MODEL_KINDS) == tuple(pipeline.STRATEGIES)


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError, match="unknown strategy"):
        pipeline.train("lstm", TRAIN, VAL, SPEC)


@pytest.mark.parametrize("tag, field", [("cdad", "dad"), ("multi-noise", "noise"),
                                        ("multi-cgan", "cgan")])
def test_missing_section_rejected(tag, field):
    with pytest.raises(ConfigError, match=f"spec.{field}"):
        pipeline.train(tag, TRAIN, VAL, replace(SPEC, **{field: None}))


def test_a_dad_section_without_inner_epochs_trains_with_the_tables_default():
    section = {"n_steps": 2, "meta_iterations": 1}
    spec = replace(SPEC, dad=section)
    assert spec.dad == {**section, "inner_epochs": 50, "selection_metric": "mse",
                        "accumulate": False}
    model, log = pipeline.train("dad", TRAIN, VAL, spec)
    ref_model, ref_log = pipeline.train("dad", TRAIN, VAL,
                                        replace(SPEC, dad={**section, "inner_epochs": 50}))
    assert np.array_equal(model.net.params, ref_model.net.params)
    assert log == ref_log


@pytest.mark.parametrize("field, section, message", [
    ("noise", {"sigma": 0.1, "bogus": 1}, r"^noise keys missing \[\], unknown \['bogus'\]"),
    ("dad", {"selection_metric": "rmse"}, r"^dad\.selection_metric must be one of"),
], ids=["noise", "dad"])
def test_a_bad_section_is_refused_when_the_spec_is_built(field, section, message):
    with pytest.raises(ConfigError, match=message):
        replace(SPEC, **{field: section})


def test_a_section_is_a_filled_copy_of_the_callers_dict():
    section = {"n_steps": 3}
    spec = replace(SPEC, dad=section)
    section["n_steps"] = 7
    assert spec.dad["n_steps"] == 3 and spec.dad is not section
