"""The benchmark's workloads.

Each workload generates its inputs from the seed in `setup()`. One
iteration then runs three timed phases, `ingest()`, `train()` and
`evaluate()`, against the unchanged multistep package. `evaluate()`
returns the outputs the runner compares across iterations and raises
`CheckFailed` when an output is malformed.

The package is always reached through module attributes
(`strategies.train_recursive`, never `from ... import`), so the tracer's
rebinding of those attributes sees every call made from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

import reference
from multistep import cgan, cli, dad, data, evaluation, nn, strategies, synth

P = 8
HORIZON = 8
SMALL_NET = dict(hidden_layers=2, hidden_units=32)
BATCH = 64


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Outputs:
    test_mse: float  # held-out overall MSE of the final model, normalized units
    digest: str  # sha256 of the test predictions, or of the model document


@dataclass
class Fit:
    """One minibatch-Adam training run the workload performs."""

    epochs: int
    rows: int
    batch: int = BATCH

    @property
    def steps(self) -> int:
        return self.epochs * math.ceil(self.rows / self.batch)


def _check_predictions(preds: np.ndarray, m: int, q: int) -> None:
    if preds.shape != (m, q):
        raise CheckFailed(f"predictions shape {preds.shape} != ({m}, {q})")
    if not np.all(np.isfinite(preds)):
        raise CheckFailed("non-finite predictions")


def _scored(model, windows) -> tuple[evaluation.MetricsReport, np.ndarray]:
    """Score `model` on `windows`, keeping the predictions the score used."""
    predict = strategies.batch_predictor(model, HORIZON)
    seen = []

    def predict_fn(histories):
        seen.append(predict(histories))
        return seen[-1]

    report = evaluation.evaluate(predict_fn, windows)
    preds = np.asarray(seen[-1], dtype=float)
    _check_predictions(preds, len(windows), HORIZON)
    return report, preds


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _dad_fits(n_train: int, n_steps: int, base_epochs: int, inner_epochs: int,
              meta_iterations: int, conditional: bool) -> list[Fit]:
    """The fits `dad.train_dad`/`train_cdad` make on an n_train-point series."""
    one_step = n_train - P
    aug = one_step + (n_steps - 1) * (n_train - P - n_steps + 1)
    fits = [Fit(base_epochs, one_step)]
    if conditional:  # M_0 is trained from scratch on the first augmented set
        fits.append(Fit(base_epochs, aug))
    fits += [Fit(inner_epochs, aug)] * meta_iterations
    return fits


class Workload:
    name: str
    # the passes of reference.py that slow with the host as this workload does
    reference_passes = (reference.small_net_s,)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def reference_s(self) -> float:
        """Seconds of one reference pass of this workload, now."""
        return sum(timed() for timed in self.reference_passes)


class InProcessWorkload(Workload):
    """Shared set-up and ingest for the workloads built on the acceptance
    fixtures: one seeded synthetic series, min-max fitted on its train split."""

    n_train: int
    n_val = 300
    n_test = 300

    def setup(self) -> None:
        n = self.n_train + self.n_val + self.n_test
        self.raw = synth.make_synthetic_series(n, seed=1000 + self.seed).values

    def ingest(self) -> None:
        norm = data.fit_normalizer(self.raw[: self.n_train])
        v = norm.apply(self.raw)
        self.train_v = v[: self.n_train]
        self.val_v = v[self.n_train : self.n_train + self.n_val]
        self.test_w = data.make_windows(v[self.n_train + self.n_val :], P, HORIZON)


class RecursiveFamily(InProcessWorkload):
    """The data and nets of the acceptance `recursive_family` fixture,
    with a tenth of its epochs and a fifth of its meta-iterations: vanilla
    recursive, DaD and CDaD at 2x32 hidden, batch 64."""

    name = "recursive-family"
    n_train = 2000
    base_epochs = 2
    inner_epochs = 1
    meta_iterations = 3

    def ingest(self) -> None:
        super().ingest()
        self.one_step = data.make_windows(self.train_v, P, 1)

    def train(self) -> None:
        base = nn.TrainConfig(epochs=self.base_epochs, batch_size=BATCH, seed=self.seed)
        inner = nn.TrainConfig(epochs=self.inner_epochs, batch_size=BATCH, seed=self.seed)
        common = dict(p=P, n_steps=HORIZON, meta_iterations=self.meta_iterations,
                      inner_train=inner, base_train=base, **SMALL_NET)
        self.models = [
            strategies.train_recursive(self.one_step, base, **SMALL_NET),
            dad.train_dad(self.train_v, self.val_v, dad.DadConfig(**common)).best_model,
            dad.train_cdad(
                self.train_v, self.val_v, dad.DadConfig(conditional=True, **common)
            ).best_model,
        ]

    def evaluate(self) -> Outputs:
        scored = [_scored(model, self.test_w) for model in self.models]
        return Outputs(scored[-1][0].overall_mse, _digest(preds for _, preds in scored))

    def fits(self) -> list[Fit]:
        dad_args = (self.n_train, HORIZON, self.base_epochs, self.inner_epochs,
                    self.meta_iterations)
        return ([Fit(self.base_epochs, self.n_train - P)]
                + _dad_fits(*dad_args, conditional=False)
                + _dad_fits(*dad_args, conditional=True))


class GanAugment(InProcessWorkload):
    """The C-GAN path of the acceptance `multi_family` fixture, with a
    tenth of its epochs: a 500-point train split, C-GAN at 2x64 hidden,
    then a multi-output net on the real plus generated windows."""

    name = "gan-augment"
    n_train = 500
    gan_epochs = 50
    multi_epochs = 10

    def ingest(self) -> None:
        super().ingest()
        self.windows = data.make_windows(self.train_v, P, HORIZON)

    def train(self) -> None:
        with warnings.catch_warnings():
            # The fixture's discriminator learns slower than its generator
            # on purpose; CganConfig warns about that.
            warnings.simplefilter("ignore")
            gan_cfg = cgan.CganConfig(noise_dim=8, epochs=self.gan_epochs, batch_size=BATCH,
                                      seed=self.seed, hidden_layers=2, hidden_units=64,
                                      lr_generator=2e-3, lr_discriminator=2e-4)
        w = self.windows
        pair = cgan.train_cgan(w, gan_cfg)
        rng = np.random.default_rng((self.seed, 2))
        synthetic = cgan.generate_pairs(pair, cgan.resample_futures(w, len(w), rng), rng)
        combined = data.WindowedDataset(
            np.concatenate([w.histories, synthetic.histories]),
            np.concatenate([w.futures, synthetic.futures]),
            P,
            HORIZON,
        )
        cfg = nn.TrainConfig(epochs=self.multi_epochs, batch_size=BATCH, seed=self.seed)
        self.model = strategies.train_multi_output(combined, cfg, **SMALL_NET)

    def evaluate(self) -> Outputs:
        report, preds = _scored(self.model, self.test_w)
        return Outputs(report.overall_mse, _digest([preds]))

    def fits(self) -> list[Fit]:
        windows = self.n_train - P - HORIZON + 1
        # discriminator and generator each take one step per minibatch
        return [Fit(self.gan_epochs, windows)] * 2 + [Fit(self.multi_epochs, 2 * windows)]


class CliMonth(Workload):
    """The user path at the README's network width: thirty days of raw
    5-minute flow through `ingest`, `train --strategy cdad` and `evaluate`,
    each through `cli.main` in this process."""

    name = "cli-month"
    # width-150 training and large-batch inference, beside small-call overhead
    reference_passes = (reference.small_net_s, reference.wide_batch_s)
    raw_points = 30 * 288  # thirty days at 5 minutes
    factor = 3
    points = raw_points // factor  # 2,880 at 15 minutes
    n_train = round(0.70 * points)
    n_val = round(0.15 * points)
    start = datetime(2011, 1, 1)
    step = timedelta(minutes=15)
    train_cfg = dict(epochs=1, batch_size=BATCH)
    dad_cfg = dict(n_steps=HORIZON, meta_iterations=2, inner_epochs=1)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {k: str(self.workdir / f) for k, f in (
            ("raw", "raw.csv"), ("flow", "flow.csv"), ("config", "config.json"),
            ("model", "model.json"), ("report", "report.json"))}
        series = synth.make_synthetic_series(
            self.raw_points, seed=1000 + self.seed, start=self.start,
            resolution=timedelta(minutes=5),
        )
        data.write_series_csv(series, self.paths["raw"])
        train_end = self.start + (self.n_train - 1) * self.step
        val_end = train_end + self.n_val * self.step
        config = {
            "seed": self.seed,
            "data": {"p": P, "q": HORIZON, "split": {"train_end": train_end.isoformat(),
                                                     "val_end": val_end.isoformat()}},
            "model": {"strategy": "cdad", "hidden_layers": 2, "hidden_units": 150,
                      "dropout": 0.1, "train": self.train_cfg},
            "dad": self.dad_cfg,
        }
        with open(self.paths["config"], "w") as f:
            json.dump(config, f, indent=2)

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise CheckFailed(f"multistep {argv[0]} exited with code {code}")

    def ingest(self) -> None:
        path = self.paths
        self._cli("ingest", "--input", path["raw"], "--output", path["flow"],
                  "--factor", str(self.factor))

    def train(self) -> None:
        path = self.paths
        self._cli("train", "--config", path["config"], "--data", path["flow"],
                  "--out", path["model"])

    def evaluate(self) -> Outputs:
        path = self.paths
        self._cli("evaluate", "--model", path["model"], "--data", path["flow"],
                  "--report", path["report"])
        report = evaluation.load_report(path["report"])
        steps = np.array([report.per_step_mse, report.per_step_mae])
        if report.num_samples != self.points - P - HORIZON + 1:
            raise CheckFailed(f"evaluate scored {report.num_samples} windows")
        if steps.shape != (2, HORIZON) or not np.all(np.isfinite(steps)):
            raise CheckFailed("per-step errors are not finite [q] vectors")
        with open(path["model"], "rb") as f:
            return Outputs(report.overall_mse, hashlib.sha256(f.read()).hexdigest())

    def fits(self) -> list[Fit]:
        return _dad_fits(self.n_train, self.dad_cfg["n_steps"], self.train_cfg["epochs"],
                         self.dad_cfg["inner_epochs"], self.dad_cfg["meta_iterations"],
                         conditional=True)


WORKLOADS = {w.name: w for w in (RecursiveFamily, GanAugment, CliMonth)}
