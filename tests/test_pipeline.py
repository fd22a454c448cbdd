"""The strategy table: same bits as the hand-written dispatch it replaced,
each strategy reaching exactly its trainers, and one list of tags; the
seeded benchmark loop: same bits as the loop written out by hand."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from multistep import cgan, cli, dad, evaluation, pipeline, serialize, strategies, synth
from multistep.data import WindowedDataset, make_windows
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
    cgan=cgan.CganConfig(noise_dim=2, epochs=2, batch_size=16, synthetic_count=30, seed=3,
                         hidden_layers=1, hidden_units=6),
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
            pair = cgan.train_cgan(windows, spec.cgan)
            count = len(windows) if spec.cgan.synthetic_count is None else spec.cgan.synthetic_count
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


@pytest.mark.parametrize("tag", cli.STRATEGIES)
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


def test_run_seeds_equals_the_hand_loop_bitwise():
    tags = ("cdad", "multi-cgan")
    specs = {seed: replace(SPEC, train=replace(SPEC.train, seed=seed)) for seed in (0, 1)}
    got = synth.run_seeds(tags, specs, specs.get, n_train=60)
    for i, (seed, spec) in enumerate(specs.items()):
        train, val, test = synth.benchmark_splits(seed, 60)
        for tag in tags:
            model, _ = pipeline.train(tag, train, val, spec)
            ref = evaluation.evaluate(strategies.batch_predictor(model, spec.q),
                                      make_windows(test, spec.p, spec.q), model_tag=tag)
            assert got[tag][i] == ref


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
    assert tuple(pipeline.STRATEGIES) == cli.STRATEGIES
    assert tuple(serialize.MODEL_KINDS) == cli.STRATEGIES


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError, match="unknown strategy"):
        pipeline.train("lstm", TRAIN, VAL, SPEC)


@pytest.mark.parametrize("tag, field", [("cdad", "dad"), ("multi-noise", "noise"),
                                        ("multi-cgan", "cgan")])
def test_missing_section_rejected(tag, field):
    with pytest.raises(ConfigError, match=f"spec.{field}"):
        pipeline.train(tag, TRAIN, VAL, replace(SPEC, **{field: None}))
