"""Conditional-GAN data augmentation for multi-output training.

The generator learns to produce history windows conditioned on future
windows; generated (history, future) pairs are appended to the real
training set. A Gaussian noise-on-histories augmentation is included as
the baseline it is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import schema
from .data import WindowedDataset
from .errors import ConfigError, ShapeError
from .nn import (ARCH, DROPOUT, AdamState, Mlp, Workspace, adam_step, backward, batches,
                 forward, init_net, input_grad)

PROB_EPS = 1e-7  # clamp for log arguments
# the `cgan` config section
SECTION = {
    "hidden_layers": schema.Int(0, default=None),  # both nets'; null: the predictor's
    "hidden_units": schema.Int(1, default=None),
    "noise_dim": schema.Int(1, default=16),
    "lr_discriminator": schema.Real(gt=0, default=2e-4),
    "lr_generator": schema.Real(gt=0, default=1e-4),
    "epochs": schema.Int(1, default=200),
    "batch_size": schema.Int(1, default=64),
    "synthetic_count": schema.Int(0, default=None),  # C-GAN rows to add; null: one per window
}
# the `noise` config section: `noise_augment`'s options
NOISE = {"sigma": schema.Real(ge=0, default=0.1), "interpret_as_stddev": schema.Bool(default=True)}


# the `cgan` section with both nets' whole architecture (by default without dropout), and a seed
CganConfig = schema.record("CganConfig", SECTION, ARCH, dropout=replace(DROPOUT, default=0.0),
                           seed=schema.Int(0, default=0))


@dataclass
class CganPair:
    generator: Mlp  # [noise_dim + q] -> p, linear output
    discriminator: Mlp  # [p + q] -> 1, sigmoid output
    training_log: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.q < 1 or self.noise_dim < 1 or self.discriminator.output_dim != 1:
            raise ShapeError(f"nets {self.generator.input_dim} -> {self.p}, "
                             f"{self.discriminator.input_dim} -> {self.discriminator.output_dim} "
                             "are not [noise_dim + q] -> p, [p + q] -> 1 with q, noise_dim >= 1")

    @property
    def p(self) -> int:
        return self.generator.output_dim

    @property
    def q(self) -> int:
        return self.discriminator.input_dim - self.p

    @property
    def noise_dim(self) -> int:
        return self.generator.input_dim - self.q


def _clamp_into(prob: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.clip(prob, PROB_EPS, 1 - PROB_EPS) into out: the same bits, NaN included."""
    np.maximum(prob, PROB_EPS, out=out)
    return np.minimum(out, 1.0 - PROB_EPS, out=out)


def _log_mean(prob: np.ndarray, numerator: float, grad: np.ndarray) -> np.floating:
    """np.mean(np.log(prob)) over its b rows, with numerator / (prob * b)
    into grad; prob is overwritten by its log."""
    b = len(prob)
    np.multiply(prob, b, out=grad)
    np.divide(numerator, grad, out=grad)
    np.log(prob, out=prob)
    return np.add.reduce(prob, axis=None) / b  # the sum and division of np.mean


def train_cgan(
    data: WindowedDataset, cfg: CganConfig, holdout: WindowedDataset | None = None
) -> CganPair:
    """Alternating discriminator/generator updates on (history, future) pairs.

    Discriminator: binary cross-entropy on real pairs vs generated ones.
    Generator: the non-saturating -log D(G(z, y), y) of Goodfellow et al.
    (arXiv 1406.2661). Fresh standard normal z per sample. Deterministic
    given cfg.seed.

    With `holdout` given, the per-epoch d_accuracy in the training log is
    computed on that set (plus an equal number of generated fakes) instead
    of on the training batches.
    """
    if len(data) == 0:
        raise ConfigError("empty dataset")
    p, q = data.p, data.q
    if holdout is not None and (len(holdout) == 0 or (holdout.p, holdout.q) != (p, q)):
        raise ConfigError(f"holdout must hold windows of p={p}, q={q}, got {len(holdout)} "
                          f"of p={holdout.p}, q={holdout.q}")
    rng = np.random.default_rng(cfg.seed)
    arch = {k: getattr(cfg, k) for k in ARCH}
    gen = init_net(cfg.noise_dim + q, p, rng, **arch)
    disc = init_net(p + q, 1, rng, **arch, final_activation="sigmoid")
    g_state = AdamState(gen.params, cfg.lr_generator)
    d_state = AdamState(disc.params, cfg.lr_discriminator)

    n, nd = len(data), cfg.noise_dim
    pairs = np.concatenate([data.histories, data.futures], axis=1)  # real [h | futures]
    # per batch row count: workspaces of G, of D's real pass (reused by the
    # G-step's eval pass) and of D's fake pass, the z and input blocks, then
    # [b, 1] columns for the real and fake probabilities (clamped, then their
    # logs) and their loss gradients, which the G-step reuses
    starts, work = batches(n, cfg.batch_size, lambda b: (
        Workspace(gen, b), Workspace(disc, b), Workspace(disc, b),
        np.empty((b, nd)), np.empty((b, nd + q)), np.empty((b, p + q)), np.empty((b, p + q)),
        *np.empty((4, b, 1))))
    log: list[dict] = []
    eval_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x60DA)))
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        d_losses, g_losses, acc_hits, acc_total = [], [], 0, 0
        for start in starts:
            idx = order[start : start + cfg.batch_size]
            b = len(idx)
            g_ws, real_ws, fake_ws, z, gen_in, real_in, fake_in, pr, pf, grad_r, grad_f = work[b]
            np.take(pairs, idx, axis=0, out=real_in, mode="clip")  # idx never clips
            gen_in[:, nd:] = fake_in[:, p:] = real_in[:, p:]

            # --- discriminator update ---
            rng.standard_normal(out=z)
            gen_in[:, :nd] = z
            fake_h, _ = forward(gen, gen_in, mode="eval", workspace=g_ws)
            fake_in[:, :p] = fake_h
            d_real, cache_r = forward(disc, real_in, mode="train", rng=rng, workspace=real_ws)
            d_fake, cache_f = forward(disc, fake_in, mode="train", rng=rng, workspace=fake_ws)
            real_term = _log_mean(_clamp_into(d_real, pr), -1.0, grad_r)
            fake_term = _log_mean(np.subtract(1.0, _clamp_into(d_fake, pf), out=pf), 1.0, grad_f)
            d_loss = float(-real_term - fake_term)
            d_grad = backward(disc, cache_r, grad_r)
            d_grad += backward(disc, cache_f, grad_f)
            adam_step(disc.params, d_grad, d_state)
            # read d_real now: the G-step's eval pass overwrites it
            acc_hits += np.count_nonzero(d_real > 0.5) + np.count_nonzero(d_fake <= 0.5)

            # --- generator update ---
            rng.standard_normal(out=z)
            gen_in[:, :nd] = z
            fake_h, cache_g = forward(gen, gen_in, mode="train", rng=rng, workspace=g_ws)
            fake_in[:, :p] = fake_h
            d_out, cache_d = forward(disc, fake_in, mode="eval", workspace=real_ws)
            g_loss = float(-_log_mean(_clamp_into(d_out, pr), -1.0, grad_r))
            d_input_grad = input_grad(disc, cache_d, grad_r)
            adam_step(gen.params, backward(gen, cache_g, d_input_grad[:, :p]), g_state)

            d_losses.append(d_loss)
            g_losses.append(g_loss)
            acc_total += 2 * b
        epoch_acc = acc_hits / acc_total
        if holdout is not None:
            epoch_acc = discriminator_accuracy(CganPair(gen, disc), holdout, eval_rng)
        log.append(
            {
                "d_loss": float(np.mean(d_losses)),
                "g_loss": float(np.mean(g_losses)),
                "d_accuracy": epoch_acc,
            }
        )
    return CganPair(gen, disc, training_log=log)


def discriminator_accuracy(
    pair: CganPair, data: WindowedDataset, rng: np.random.Generator
) -> float:
    """Share of right real/fake calls (real iff D > 0.5) on `data` and one fake per row."""
    real_in = np.concatenate([data.histories, data.futures], axis=1)
    d_real, _ = forward(pair.discriminator, real_in, mode="eval")
    futures = data.futures[rng.integers(0, len(data), size=len(data))]
    fakes = generate_pairs(pair, futures, rng)
    fake_in = np.concatenate([fakes.histories, fakes.futures], axis=1)
    d_fake, _ = forward(pair.discriminator, fake_in, mode="eval")
    hits = int(np.sum(d_real[:, 0] > 0.5)) + int(np.sum(d_fake[:, 0] <= 0.5))
    return hits / (2 * len(data))


def generate_pairs(
    pair: CganPair, futures: np.ndarray, rng: np.random.Generator
) -> WindowedDataset:
    """Sample one history per future row: (G(z, future), future).

    Generator output is clamped to [0, 1] on emission since the data it
    imitates is min-max normalized.
    """
    futures = np.asarray(futures, dtype=float)
    if futures.ndim != 2 or futures.shape[1] != pair.q:
        raise ShapeError(f"futures shape {futures.shape} != [m, q={pair.q}]")
    z = rng.standard_normal((futures.shape[0], pair.noise_dim))
    histories, _ = forward(pair.generator, np.concatenate([z, futures], axis=1), mode="eval")
    return WindowedDataset(np.clip(histories, 0.0, 1.0), futures, pair.p, pair.q)


def resample_futures(
    data: WindowedDataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Futures drawn uniformly with replacement from the real training set."""
    schema.Int(0).check(count, "synthetic count")
    if count and not len(data):
        raise ConfigError(f"cannot draw {count} synthetic futures from an empty training set")
    return data.futures[rng.integers(0, len(data), size=count)]


def noise_augment(
    data: WindowedDataset,
    sigma: float,
    rng: np.random.Generator,
    interpret_as_stddev: bool = True,
) -> WindowedDataset:
    """Original rows plus copies whose histories carry N(0, sigma^2) noise.

    Futures stay exact. With interpret_as_stddev=False, sigma is taken as
    a variance and the standard deviation used is sqrt(sigma).
    """
    schema.check({"sigma": sigma, "interpret_as_stddev": interpret_as_stddev}, NOISE)
    std = sigma if interpret_as_stddev else float(np.sqrt(sigma))
    noisy = data.histories + rng.normal(0.0, std, size=data.histories.shape)
    histories = np.concatenate([data.histories, noisy])
    futures = np.concatenate([data.futures, data.futures])
    return WindowedDataset(histories, futures, data.p, data.q)
