"""Conditional-GAN data augmentation for multi-output training.

The generator learns to produce history windows conditioned on future
windows; generated (history, future) pairs are appended to the real
training set. A Gaussian noise-on-histories augmentation is included as
the baseline it is compared against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import schema
from .data import WindowedDataset
from .errors import ConfigError, ShapeError
from .nn import (ARCH, Mlp, Workspace, adam_step, backward, batches, forward, init_adam,
                 init_net, input_grad)

PROB_EPS = 1e-7  # clamp for log arguments
# the `cgan` config section; CganConfig checks the fields it shares with it
SECTION = {
    "noise_dim": schema.Int(1, default=16),
    "lr_discriminator": schema.Real(gt=0, default=2e-4),
    "lr_generator": schema.Real(gt=0, default=1e-4),
    "epochs": schema.Int(1, default=200),
    "batch_size": schema.Int(1, default=64),
    "synthetic_count": schema.Int(0, default=None),  # C-GAN rows to add; null: one per window
}
# the `noise` config section: `noise_augment`'s options
NOISE = {"sigma": schema.Real(ge=0, default=0.1), "interpret_as_stddev": schema.Bool(default=True)}


@dataclass
class CganConfig:
    noise_dim: int = 16
    lr_discriminator: float = 2e-4
    lr_generator: float = 1e-4
    epochs: int = 200
    batch_size: int = 64
    synthetic_count: int | None = None  # rows `multi-cgan` adds; None: one per real window
    seed: int = 0
    hidden_layers: int = 2
    hidden_units: int = 150
    dropout: float = 0.0

    def __post_init__(self):
        schema.check_fields(self, dict(SECTION, **ARCH, seed=schema.Int(0)))
        if self.lr_discriminator < self.lr_generator:
            warnings.warn(
                "discriminator learning rate below generator's; the "
                "discriminator is usually configured to learn faster",
                stacklevel=2,
            )


@dataclass
class CganPair:
    generator: Mlp  # [noise_dim + q] -> p, linear output
    discriminator: Mlp  # [p + q] -> 1, sigmoid output
    noise_dim: int
    p: int
    q: int
    training_log: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.generator.input_dim != self.noise_dim + self.q:
            raise ShapeError("generator input_dim != noise_dim + q")
        if self.generator.output_dim != self.p:
            raise ShapeError("generator output_dim != p")
        if self.discriminator.input_dim != self.p + self.q:
            raise ShapeError("discriminator input_dim != p + q")
        if self.discriminator.output_dim != 1:
            raise ShapeError("discriminator output_dim != 1")


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
    g_state = init_adam(gen.params, learning_rate=cfg.lr_generator)
    d_state = init_adam(disc.params, learning_rate=cfg.lr_discriminator)

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
            np.take(pairs, idx, axis=0, out=real_in)
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
            snapshot = CganPair(gen, disc, cfg.noise_dim, p, q)
            epoch_acc = discriminator_accuracy(snapshot, holdout, len(holdout), eval_rng)
        log.append(
            {
                "d_loss": float(np.mean(d_losses)),
                "g_loss": float(np.mean(g_losses)),
                "d_accuracy": epoch_acc,
            }
        )
    return CganPair(gen, disc, cfg.noise_dim, p, q, training_log=log)


def discriminator_accuracy(
    pair: CganPair,
    data: WindowedDataset,
    num_fakes: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of correct real/fake calls at threshold 0.5 (real iff D > 0.5)."""
    schema.Int(1).check(num_fakes, "num_fakes")
    real_in = np.concatenate([data.histories, data.futures], axis=1)
    d_real, _ = forward(pair.discriminator, real_in, mode="eval")
    futures = data.futures[rng.integers(0, len(data), size=num_fakes)]
    fakes = generate_pairs(pair, futures, rng)
    fake_in = np.concatenate([fakes.histories, fakes.futures], axis=1)
    d_fake, _ = forward(pair.discriminator, fake_in, mode="eval")
    hits = int(np.sum(d_real[:, 0] > 0.5)) + int(np.sum(d_fake[:, 0] <= 0.5))
    return hits / (len(data) + num_fakes)


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
    m = futures.shape[0]
    if m == 0:
        return WindowedDataset(np.empty((0, pair.p)), np.empty((0, pair.q)), pair.p, pair.q)
    z = rng.standard_normal((m, pair.noise_dim))
    histories, _ = forward(pair.generator, np.concatenate([z, futures], axis=1), mode="eval")
    return WindowedDataset(np.clip(histories, 0.0, 1.0), futures, pair.p, pair.q)


def resample_futures(
    data: WindowedDataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Futures drawn uniformly with replacement from the real training set."""
    schema.Int(0).check(count, "synthetic count")
    if count == 0:
        return np.empty((0, data.q))
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
    NOISE["sigma"].check(sigma, "sigma")
    std = sigma if interpret_as_stddev else float(np.sqrt(sigma))
    noisy = data.histories + rng.normal(0.0, std, size=data.histories.shape)
    histories = np.concatenate([data.histories, noisy])
    futures = np.concatenate([data.futures, data.futures])
    return WindowedDataset(histories, futures, data.p, data.q)
