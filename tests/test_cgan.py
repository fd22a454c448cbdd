import numpy as np
import pytest

from multistep import cgan, nn
from multistep.data import WindowedDataset, make_windows
from multistep.errors import ConfigError, ShapeError


def tiny_data(n=40, p=4, q=3, seed=0):
    rng = np.random.default_rng(seed)
    return make_windows(rng.uniform(0, 1, n + p + q), p, q)


def tiny_cfg(**overrides):
    defaults = dict(
        noise_dim=3, epochs=2, batch_size=16, seed=0, hidden_layers=1, hidden_units=5
    )
    defaults.update(overrides)
    return cgan.CganConfig(**defaults)


class TestConfig:
    def test_invalid_values_rejected(self):
        for bad in (dict(noise_dim=0), dict(lr_generator=0.0), dict(epochs=0),
                    dict(noise_dim=2.5), dict(epochs=2.5), dict(batch_size=16.5),
                    dict(batch_size=True)):
            with pytest.raises(ConfigError):
                tiny_cfg(**bad)


class TestPair:
    def test_sizes_are_read_off_the_nets(self):
        pair = cgan.CganPair(nn.init_mlp([5, 3, 4], rng=0), nn.init_mlp([6, 3, 1], rng=1))
        assert (pair.p, pair.q, pair.noise_dim) == (4, 2, 3)

    @pytest.mark.parametrize("gen_dims, disc_dims", [
        ([3, 2], [2, 1]), ([3, 2], [1, 1]), ([2, 2], [4, 1]), ([4, 2], [4, 2]),
    ], ids=["q-zero", "q-negative", "no-noise", "two-outputs"])
    def test_nets_that_are_not_a_pair_refused(self, gen_dims, disc_dims):
        with pytest.raises(ShapeError, match="are not \\[noise_dim \\+ q\\] -> p"):
            cgan.CganPair(nn.init_mlp(gen_dims, rng=0), nn.init_mlp(disc_dims, rng=1))


class TestTraining:
    def test_network_shapes(self):
        data = tiny_data()
        pair = cgan.train_cgan(data, tiny_cfg())
        assert pair.generator.input_dim == 3 + data.q
        assert pair.generator.output_dim == data.p
        assert pair.discriminator.input_dim == data.p + data.q
        assert pair.discriminator.output_dim == 1
        assert pair.discriminator.layers[-1].activation == "sigmoid"

    def test_log_entries_finite(self):
        pair = cgan.train_cgan(tiny_data(), tiny_cfg(epochs=3))
        assert len(pair.training_log) == 3
        for entry in pair.training_log:
            assert np.isfinite(entry["d_loss"])
            assert np.isfinite(entry["g_loss"])
            assert 0.0 <= entry["d_accuracy"] <= 1.0

    def test_determinism(self):
        data = tiny_data()
        a = cgan.train_cgan(data, tiny_cfg())
        b = cgan.train_cgan(data, tiny_cfg())
        for la, lb in zip(a.generator.layers, b.generator.layers):
            assert np.array_equal(la.weights, lb.weights)
        assert a.training_log == b.training_log

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(np.empty((0, 4)), np.empty((0, 3)), 4, 3)
        with pytest.raises(ConfigError):
            cgan.train_cgan(empty, tiny_cfg())

    @pytest.mark.parametrize("holdout", [
        WindowedDataset(np.empty((0, 4)), np.empty((0, 3)), 4, 3), tiny_data(p=5), tiny_data(q=2)
    ], ids=["empty", "wrong-p", "wrong-q"])
    def test_bad_holdout_refused_before_the_first_step(self, monkeypatch, holdout):
        monkeypatch.setattr(cgan, "forward", None)  # a training step would call it
        with pytest.raises(ConfigError, match="holdout must hold windows of p=4, q=3, got"):
            cgan.train_cgan(tiny_data(), tiny_cfg(), holdout=holdout)

    def test_holdout_accuracy_logged(self):
        data = tiny_data()
        holdout = tiny_data(seed=9)
        pair = cgan.train_cgan(data, tiny_cfg(), holdout=holdout)
        assert all(0.0 <= e["d_accuracy"] <= 1.0 for e in pair.training_log)


class TestLossArithmetic:
    """The in-place loss helpers give the bits of the textbook expressions."""

    EDGES = [0.0, -0.0, 1e-300, 5e-8, 1e-7, 0.3, 0.5, 1 - 1e-7, 1 - 5e-8, 1.0, 2.0, -1.0,
             np.inf, -np.inf, np.nan]

    def test_clamp_equals_clip_bitwise_nan_included(self):
        prob = np.array(self.EDGES + list(np.random.default_rng(0).uniform(-0.5, 1.5, 40)))
        expected = np.clip(prob, cgan.PROB_EPS, 1.0 - cgan.PROB_EPS)
        out = np.empty_like(prob)
        assert cgan._clamp_into(prob, out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("b", [1, 7, 64, 200])
    @pytest.mark.parametrize("numerator", [-1.0, 1.0])
    def test_log_mean_equals_mean_of_log_and_its_gradient(self, b, numerator):
        prob = np.clip(np.random.default_rng(b).uniform(0, 1, (b, 1)), cgan.PROB_EPS,
                       1.0 - cgan.PROB_EPS)
        expected_mean, expected_grad = np.mean(np.log(prob)), numerator / (prob * b)
        grad = np.empty_like(prob)
        mean = cgan._log_mean(prob, numerator, grad)
        assert np.float64(mean).tobytes() == np.float64(expected_mean).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()


class TestGenerate:
    def test_counting_and_range(self):
        data = tiny_data()
        pair = cgan.train_cgan(data, tiny_cfg())
        rng = np.random.default_rng(0)
        futures = cgan.resample_futures(data, 17, rng)
        fakes = cgan.generate_pairs(pair, futures, rng)
        assert fakes.histories.shape == (17, data.p)
        assert np.array_equal(fakes.futures, futures)
        assert fakes.histories.min() >= 0.0
        assert fakes.histories.max() <= 1.0

    @pytest.mark.parametrize("count", [3.5, -3, 2.0, True])
    def test_resample_refuses_bad_counts(self, count):
        with pytest.raises(ConfigError, match="synthetic count must be an integer >= 0"):
            cgan.resample_futures(tiny_data(), count, np.random.default_rng(0))

    def test_resample_from_an_empty_set(self):
        # any draw is refused; no draw still gives [0, q] and leaves rng as it was
        empty = WindowedDataset(np.empty((0, 4)), np.empty((0, 3)), 4, 3)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="cannot draw 1 synthetic futures from an empty"):
            cgan.resample_futures(empty, 1, rng)
        assert cgan.resample_futures(empty, 0, rng).shape == (0, 3)
        assert rng.bit_generator.state == state

    def test_empty_request(self):
        # zero rows: an empty set of the pair's p and q, and no draw from rng
        data = tiny_data()
        pair = cgan.train_cgan(data, tiny_cfg())
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        futures = cgan.resample_futures(data, 0, rng)
        assert futures.shape == (0, data.q)
        for requested in (futures, np.empty((0, 3))):
            out = cgan.generate_pairs(pair, requested, rng)
            assert (out.p, out.q, len(out)) == (pair.p, pair.q, 0)
            assert out.histories.shape == (0, pair.p) and out.futures.shape == (0, pair.q)
        assert rng.bit_generator.state == state

    def test_determinism_given_rng_state(self):
        data = tiny_data()
        pair = cgan.train_cgan(data, tiny_cfg())
        futures = data.futures[:5]
        a = cgan.generate_pairs(pair, futures, np.random.default_rng(3))
        b = cgan.generate_pairs(pair, futures, np.random.default_rng(3))
        assert np.array_equal(a.histories, b.histories)

    def test_wrong_future_width_rejected(self):
        pair = cgan.train_cgan(tiny_data(q=3), tiny_cfg())
        with pytest.raises(ShapeError):
            cgan.generate_pairs(pair, np.zeros((2, 4)), np.random.default_rng(0))

    def test_conditioning_is_not_ignored(self):
        # Same noise, different futures: the generator must not collapse to
        # a future-independent map straight out of initialization.
        data = tiny_data()
        pair = cgan.train_cgan(data, tiny_cfg())
        z = np.random.default_rng(1).standard_normal((1, pair.noise_dim))
        a, _ = nn.forward(pair.generator, np.concatenate([z, data.futures[:1]], axis=1))
        b, _ = nn.forward(pair.generator, np.concatenate([z, data.futures[1:2]], axis=1))
        assert not np.allclose(a, b)


class TestDiscriminatorAccuracy:
    def test_degenerate_discriminators(self):
        # D == 1 always: all reals right, all fakes wrong.
        p, q, nd = 2, 2, 2
        gen = nn.init_mlp([nd + q, 3, p], rng=0)
        ones = nn.Mlp(
            [nn.Layer(np.zeros((1, p + q)), np.array([50.0]), "sigmoid")]
        )
        pair = cgan.CganPair(gen, ones)
        data = tiny_data(n=20, p=p, q=q)
        rng = np.random.default_rng(0)
        acc = cgan.discriminator_accuracy(pair, data, rng)
        assert acc == 0.5
        # D == 0 always: all reals wrong, all fakes right.
        zeros = nn.Mlp(
            [nn.Layer(np.zeros((1, p + q)), np.array([-50.0]), "sigmoid")]
        )
        pair = cgan.CganPair(gen, zeros)
        assert cgan.discriminator_accuracy(pair, data, rng) == 0.5


class TestNoiseAugment:
    def test_sigma_zero_duplicates_exactly(self):
        data = tiny_data()
        out = cgan.noise_augment(data, 0.0, np.random.default_rng(0))
        assert len(out) == 2 * len(data)
        assert np.array_equal(out.histories[len(data):], data.histories)
        assert np.array_equal(out.futures[len(data):], data.futures)

    def test_originals_come_first_unchanged(self):
        data = tiny_data()
        out = cgan.noise_augment(data, 0.3, np.random.default_rng(0))
        assert np.array_equal(out.histories[: len(data)], data.histories)
        assert np.array_equal(out.futures, np.concatenate([data.futures] * 2))

    def test_noise_scale_statistical_oracle(self):
        # ~1e5 perturbed entries: sample std within 2% of sigma.
        data = tiny_data(n=2000, p=50, q=1)
        sigma = 0.2
        out = cgan.noise_augment(data, sigma, np.random.default_rng(42))
        deltas = out.histories[len(data):] - data.histories
        assert abs(deltas.std() - sigma) < 0.02 * sigma
        assert abs(deltas.mean()) < 0.01

    def test_variance_interpretation(self):
        data = tiny_data(n=2000, p=50, q=1)
        out = cgan.noise_augment(
            data, 0.04, np.random.default_rng(42), interpret_as_stddev=False
        )
        deltas = out.histories[len(data):] - data.histories
        assert abs(deltas.std() - 0.2) < 0.02 * 0.2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            cgan.noise_augment(tiny_data(), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("flag", ["no", 0, None, 2])
    def test_interpret_as_stddev_must_be_a_bool(self, flag):
        with pytest.raises(ConfigError, match="^interpret_as_stddev must be true or false"):
            cgan.noise_augment(tiny_data(), 0.1, np.random.default_rng(0),
                               interpret_as_stddev=flag)
