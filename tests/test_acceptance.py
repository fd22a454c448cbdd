"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible even under capture).
The empirical criteria run the seeded synthetic benchmark over 5 seeds
and compare medians, since the published absolute numbers came from a
non-redistributable dataset.
"""

import hashlib
import json

import numpy as np
import pytest

from multistep import cgan, cli, evaluation, nn, pipeline, serialize, strategies, synth
from multistep.data import WindowedDataset, make_windows
from test_nn import mse_loss

pytestmark = pytest.mark.acceptance

SEEDS = range(5)
P = 8
HORIZON = 8
HIDDEN = dict(hidden_layers=2, hidden_units=32)


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        with capsys.disabled():
            suffix = f" ({detail})" if detail else ""
            print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"criterion {num} ({name}) failed{suffix}"

    return _announce


def config(strategy, epochs, n_train, **sections):
    """The `multistep train` config of one benchmark run: the predictor is
    2x32 without dropout, trained on the first `n_train` points."""
    return {"data": {"p": P, "q": HORIZON, "split": synth.split(n_train)},
            "model": {"strategy": strategy, **HIDDEN, "dropout": 0.0,
                      "train": {"epochs": epochs, "batch_size": 64}},
            **sections}


def median_mse(reports, step=None):
    return float(
        np.median([r.overall_mse if step is None else r.per_step_mse[step] for r in reports])
    )


@pytest.fixture(scope="session")
def recursive_family():
    """Vanilla recursive vs corrective retraining vs its conditioned variant."""
    dad = dict(n_steps=HORIZON, meta_iterations=15, inner_epochs=10)
    return synth.run_seeds([config("recursive", 20, 2000), config("dad", 20, 2000, dad=dad),
                            config("cdad", 20, 2000, dad=dad)], SEEDS, n_points=2600)


@pytest.fixture(scope="session")
def direct_family():
    return synth.run_seeds([config("direct", 30, 2000), config("hybrid", 30, 2000)], SEEDS,
                           n_points=2600)


@pytest.fixture(scope="session")
def multi_family():
    """Multi-output vs its noise- and generator-augmented variants on a
    deliberately small training split (500 points)."""
    return synth.run_seeds([config("multi", 100, 500),
                            config("multi-noise", 100, 500, noise={"sigma": 0.05}),
                            config("multi-cgan", 100, 500, cgan={**synth.CGAN, "epochs": 500})],
                           SEEDS, n_points=1100)


@pytest.fixture(scope="session")
def gan_tails():
    """Per seed, the mean holdout discriminator accuracy over the last tenth
    of a C-GAN's epochs on a learnable pairing; and whether every loss stayed finite."""
    rng = np.random.default_rng(99)
    q = 4
    futures = rng.uniform(0, 1, (1000, q))
    data = WindowedDataset(futures[:, ::-1].copy(), futures, q, q)
    hold_f = rng.uniform(0, 1, (200, q))
    holdout = WindowedDataset(hold_f[:, ::-1].copy(), hold_f, q, q)
    tails, finite = [], True
    for seed in SEEDS:
        cfg = cgan.CganConfig(**synth.CGAN, epochs=400, seed=seed)
        pair = cgan.train_cgan(data, cfg, holdout=holdout)
        accs = [e["d_accuracy"] for e in pair.training_log]
        finite = finite and all(
            np.isfinite(e["d_loss"]) and np.isfinite(e["g_loss"])
            for e in pair.training_log
        )
        tails.append(float(np.mean(accs[-len(accs) // 10 :])))
    return tails, finite


# sha256 of every number the empirical criteria read, in full precision: per
# family, each tag's per-seed overall and per-step MSE and MAE, and criterion
# 06's five tails. A change to any of them is a change of results, to be listed
# with its old and new values.
PINS = {
    "recursive": "9e88718180045dfefd604e0563198ecc3c8b115c5bbd27f92b2dc97214a4b75d",
    "direct": "a9c87115d2d0e5950919bb8ce0c46a5779cbb4a8854ef7672d5ee84896ee8d1d",
    "multi": "29f2d54a083875595f3cd5b5518d69a096fbf0b9747c916ab291da55871eb0b6",
    "gan-convergence": "a080cd6de9258b2b7c901b120cb1fa8455cc4f8fdc0dd4e9e23e784dd914b8e6",
}


def report_lines(reports):
    return [f"{tag} {seed} " + " ".join(repr([float(v) for v in values]) for values in (
        [r.overall_mse], [r.overall_mae], r.per_step_mse, r.per_step_mae))
        for tag, per_seed in reports.items() for seed, r in zip(SEEDS, per_seed)]


def test_acceptance_numbers_are_pinned(recursive_family, direct_family, multi_family, gan_tails):
    families = {
        "recursive": report_lines(recursive_family),
        "direct": report_lines(direct_family),
        "multi": report_lines(multi_family),
        "gan-convergence": [repr(float(t)) for t in gan_tails[0]],
    }
    digests = {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for name, lines in families.items()}
    changed = [name for name in PINS if digests[name] != PINS[name]]
    assert not changed, "".join(f"\n{name}: {PINS[name]} -> {digests[name]}\n  "
                                + "\n  ".join(families[name]) for name in changed)


def test_criterion_01_gradient_correctness(announce):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = [6, int(rng.integers(2, 13)), int(rng.integers(2, 13)), 4]
        act = str(rng.choice(["relu", "sigmoid", "tanh"]))
        net = nn.init_mlp(dims, rng=rng, hidden_activation=act)
        x = rng.standard_normal(dims[0])[None, :]
        y = rng.standard_normal(dims[-1])[None, :]
        pred, cache = nn.forward(net, x)
        _, lg = mse_loss(pred, y)
        analytic = nn.backward(net, cache, lg)

        h = 1e-5
        params = net.params
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            up, _ = mse_loss(nn.forward(net, x)[0], y)
            params[i] = orig - h
            down, _ = mse_loss(nn.forward(net, x)[0], y)
            params[i] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(analytic[i] - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
    announce(1, "gradient-correctness", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_02_recursive_oracle_equivalence(announce):
    ok = True
    for case in range(100):
        rng = np.random.default_rng(case)
        p = int(rng.integers(1, 9))
        n_steps = int(rng.integers(1, 17))
        net = nn.init_mlp([p, int(rng.integers(2, 8)), 1], rng=rng)
        history = rng.uniform(0, 1, p)
        model = strategies.RecursiveModel(net, p=p)
        got = strategies.batch_predictor(model, n_steps)(history[None, :])[0]
        window = list(history)
        for n in range(n_steps):
            out, _ = nn.forward(net, np.array([window]))
            ok = ok and got[n] == out[0, 0]
            window = window[1:] + [out[0, 0]]
    announce(2, "recursive-oracle-equivalence", ok)


def medians(*families):
    """{tag: median overall MSE}, with {tag}_s8 the median MSE of the last step."""
    out = {}
    for reports in families:
        for tag, rs in reports.items():
            out[tag], out[f"{tag}_s8"] = median_mse(rs), median_mse(rs, step=-1)
    return out


def test_criterion_03_corrective_beats_recursive(announce, recursive_family):
    m = medians(recursive_family)
    announce(
        3,
        "corrective-beats-recursive",
        m["dad"] < m["recursive"],
        f"dad {m['dad']:.5f} vs recursive {m['recursive']:.5f}",
    )


def test_criterion_04_conditioned_beats_corrective(announce, recursive_family):
    m = medians(recursive_family)
    ok = m["cdad"] <= m["dad"] and m["cdad_s8"] <= m["recursive_s8"]
    announce(
        4,
        "conditioned-beats-corrective",
        ok,
        f"cdad {m['cdad']:.5f} vs dad {m['dad']:.5f}; "
        f"step-8 {m['cdad_s8']:.5f} vs {m['recursive_s8']:.5f}",
    )


def test_criterion_05_direct_and_hybrid_ordering(announce, recursive_family, direct_family):
    m = medians(recursive_family, direct_family)
    ok = m["direct"] < m["recursive"] and m["hybrid"] < m["direct"]
    announce(
        5,
        "direct-and-hybrid-ordering",
        ok,
        f"hybrid {m['hybrid']:.5f} < direct {m['direct']:.5f} < recursive {m['recursive']:.5f}",
    )


def test_criterion_06_gan_convergence(announce, gan_tails):
    tails, finite = gan_tails
    ok = finite and all(abs(t - 0.5) <= 0.10 for t in tails)
    announce(
        6, "gan-convergence", ok, "tail acc " + ", ".join(f"{t:.3f}" for t in tails)
    )


def test_criterion_07_augmentation_helps_multi_output(announce, multi_family):
    m = medians(multi_family)
    ok = m["multi-cgan"] < m["multi"] and m["multi-noise"] < m["multi"]
    announce(
        7,
        "augmentation-helps-multi-output",
        ok,
        f"cgan {m['multi-cgan']:.5f}, noise {m['multi-noise']:.5f} vs multi {m['multi']:.5f}",
    )


def test_criterion_08_metric_identities(announce):
    ok = True
    for case in range(50):
        rng = np.random.default_rng(case)
        m, q = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        preds = rng.uniform(-2, 2, (m, q))
        truth = rng.uniform(-2, 2, (m, q))
        data = WindowedDataset(np.zeros((m, 2)), truth, 2, q)
        rep = evaluation.evaluate(lambda h, preds=preds: preds, data)
        err = preds - truth
        ok = ok and rep.overall_mse == float(np.mean(err * err))
        ok = ok and rep.overall_mae == float(np.mean(np.abs(err)))
        ok = ok and rep.per_step_mse == [float(v) for v in np.mean(err * err, axis=0)]
        ok = ok and all(
            a * a <= s + 1e-15 for a, s in zip(rep.per_step_mae, rep.per_step_mse)
        )
        ok = ok and np.isclose(rep.overall_mse, np.mean(rep.per_step_mse))
        ok = ok and np.isclose(rep.overall_mae, np.mean(rep.per_step_mae))
    announce(8, "metric-identities", ok)


def test_criterion_09_published_percentages_recompute(announce):
    # (baseline, candidate, printed improvement %) from the published
    # comparison tables, MSE and MAE columns.
    rows = [
        (0.0101, 0.0092, 8.16),
        (0.0101, 0.0078, 22.92),
        (0.0781, 0.0627, 19.64),
        (0.0781, 0.0563, 27.89),
        (0.0090, 0.0082, 8.68),
        (0.0715, 0.0674, 5.63),
        (0.0089, 0.0082, 8.13),
        (0.0089, 0.0072, 18.47),
        (0.0718, 0.0671, 6.57),
        (0.0718, 0.0576, 19.71),
    ]
    worst = max(
        abs(evaluation.percent_improvement(b, c) - printed) for b, c, printed in rows
    )
    announce(
        9, "published-percentages-recompute", worst <= 1.0, f"max diff {worst:.2f} pts"
    )


def test_criterion_10_end_to_end_reproducibility(announce, tmp_path):
    series = tmp_path / "series.csv"
    assert cli.main(["synth-data", "--points", "400", "--seed", "3", "--output", str(series)]) == 0
    cfg = {
        "seed": 4,
        "data": {
            "p": 8,
            "q": 8,
            "split": {
                "train_end": "2011-01-03T18:00:00",
                "val_end": "2011-01-04T11:15:00",
            },
        },
        "model": {
            "strategy": "recursive",
            "hidden_layers": 2,
            "hidden_units": 16,
            "dropout": 0.1,
            "train": {"epochs": 10, "batch_size": 32},
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for run in ("a", "b"):
        model = tmp_path / f"model_{run}.json"
        report = tmp_path / f"report_{run}.json"
        assert cli.main(
            ["train", "--config", str(cfg_path), "--data", str(series), "--out", str(model)]
        ) == 0
        assert cli.main(
            ["evaluate", "--model", str(model), "--data", str(series), "--report", str(report)]
        ) == 0
        reports.append(report.read_bytes())
    announce(10, "end-to-end-reproducibility", reports[0] == reports[1])


def test_criterion_11_serialization_round_trip(announce, tmp_path):
    rng = np.random.default_rng(0)
    p = q = 4
    train, val = rng.uniform(0, 1, 60), rng.uniform(0, 1, 40)
    sections = {"dad": dict(n_steps=q, meta_iterations=1, inner_epochs=1),
                "noise": dict(sigma=0.05), "cgan": dict(noise_dim=3, epochs=1, batch_size=16)}
    histories = make_windows(train, p, q).histories[:6]
    ok = True
    for tag, row in pipeline.STRATEGIES.items():
        cfg = {"seed": 0, "data": {"p": p, "q": q, "split": synth.split(60, n_val=40)},
               "model": {"strategy": tag, "hidden_layers": 1, "hidden_units": 5, "dropout": 0.0,
                         "train": {"epochs": 2, "batch_size": 16}},
               **({row.section: sections[row.section]} if row.section else {})}
        model, _ = pipeline.train(cfg, train, val)
        path = tmp_path / f"{tag}.json"
        serialize.dump_json(serialize.model_to_doc(model, {"strategy_tag": tag}), path)
        loaded = serialize.model_from_doc(serialize.load_json(path))
        before = strategies.batch_predictor(model, q)(histories)
        after = strategies.batch_predictor(loaded, q)(histories)
        ok = ok and type(loaded) is type(model) and np.array_equal(before, after)
    announce(11, "serialization-round-trip", ok)
