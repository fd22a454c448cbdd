import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import dad, nn
from multistep import strategies as stg
from multistep.data import make_windows
from multistep.errors import AlignmentError, ConfigError


def small_cfg(**overrides):
    defaults = dict(
        p=3,
        n_steps=3,
        meta_iterations=2,
        inner_train=nn.TrainConfig(epochs=2, batch_size=16, seed=0),
        hidden_layers=1,
        hidden_units=4,
    )
    defaults.update(overrides)
    return dad.DadConfig(**defaults)


def wave(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / 12) + 0.02 * rng.standard_normal(n)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [("p", 0), ("n_steps", 0), ("meta_iterations", 0), ("selection_metric", "rmse")],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            small_cfg(**{field: value})

    def test_wrapper_mode_checks(self):
        series, val = wave(40), wave(30, seed=1)
        with pytest.raises(ConfigError):
            dad.train_dad(series, val, small_cfg(conditional=True))
        with pytest.raises(ConfigError):
            dad.train_cdad(series, val, small_cfg(conditional=False))


def loop_augmented(values, p, starts, preds, n_steps, conditional):
    """build_augmented_dataset as per-row loops, the reference the
    vectorised builder must equal bitwise."""
    xs = [values[i : i + p] for i in range(len(values) - p)]
    ys = [values[i + p] for i in range(len(values) - p)]
    tags = [0] * len(xs)
    for n in range(1, n_steps):
        for j, s in enumerate(starts):
            truth = list(values[s + n : s + p]) if n < p else []
            xs.append(np.array(truth + list(preds[j, max(0, n - p) : n])))
            ys.append(values[s + p + n])
            tags.append(n)
    inputs = np.array(xs)
    if conditional:
        encoded = np.array([t / n_steps for t in tags])
        inputs = np.concatenate([inputs, encoded[:, None]], axis=1)
    return inputs, np.array(ys), np.array(tags)


class TestAugmentedDataset:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        n_steps=st.integers(1, 8),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vectorised_builder_equals_loop_oracle(self, p, n_steps, extra, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, p + n_steps + extra)
        positions = np.arange(extra + 1)
        starts = np.sort(rng.choice(positions, size=rng.integers(1, extra + 2), replace=False))
        preds = rng.uniform(0, 1, (len(starts), n_steps))
        for conditional in (False, True):
            aug = dad.build_augmented_dataset(values, p, starts, preds, conditional, n_steps)
            inputs, targets, tags = loop_augmented(
                values, p, starts, preds, n_steps, conditional
            )
            assert np.array_equal(aug.inputs, inputs)
            assert np.array_equal(aug.targets, targets)
            assert np.array_equal(aug.tags, tags)

    def test_three_point_enumeration(self):
        # Series [1, 2, 3], p=1, rollout depth 2, one trajectory starting
        # at index 0 whose first prediction was 0.9. Exactly three rows:
        # the two ground-truth pairs plus one synthetic pair targeting the
        # true value two steps out.
        aug = dad.build_augmented_dataset(
            np.array([1.0, 2.0, 3.0]), p=1, starts=np.array([0]),
            preds=np.array([[0.9, 0.7]]), conditional=False, n_steps=2,
        )
        assert aug.inputs.tolist() == [[1.0], [2.0], [0.9]]
        assert aug.targets.tolist() == [2.0, 3.0, 3.0]
        assert aug.tags.tolist() == [0, 0, 1]

    def test_row_counting_oracle(self):
        # n points, window p, depth N: (n-p) ground-truth rows plus
        # (N-1) synthetic rows per rollout start, of which there are
        # n-p-N+1 at stride 1.
        values = wave(10)
        p, n_steps = 2, 3
        roll = make_windows(values, p, n_steps)
        net = nn.init_mlp([p, 3, 1], rng=0)
        starts = np.arange(len(roll))
        preds = stg.rollout(net, roll.histories, n_steps)
        aug = dad.build_augmented_dataset(values, p, starts, preds, False, n_steps)
        n = len(values)
        expected = (n - p) + (n_steps - 1) * (n - p - n_steps + 1)
        assert len(aug) == expected

    def test_ground_truth_rows_preserved_bit_exact(self):
        values = wave(12)
        one_step = make_windows(values, 3, 1)
        aug = dad.build_augmented_dataset(
            values, 3, np.empty(0, dtype=int), np.empty((0, 2)), False, n_steps=2
        )
        assert np.array_equal(aug.inputs, one_step.histories)
        assert np.array_equal(aug.targets, one_step.futures[:, 0])

    def test_perfect_model_reproduces_true_windows(self):
        # f(x) = 0.5 x is exact on the geometric series 0.5^i, so every
        # synthetic window coincides with the true window at its position.
        values = 0.5 ** np.arange(8.0)
        net = nn.Mlp([nn.Layer(np.array([[0.5]]), np.zeros(1), "linear")])
        p, n_steps = 1, 3
        roll = make_windows(values, p, n_steps)
        starts = np.arange(len(roll))
        preds = stg.rollout(net, roll.histories, n_steps)
        aug = dad.build_augmented_dataset(values, p, starts, preds, False, n_steps)
        for x, y, tag in zip(aug.inputs, aug.targets, aug.tags):
            # every row, synthetic or not, is a true (value, next value) pair
            i = int(np.argmin(np.abs(values - x[0])))
            assert np.isclose(x[0], values[i])
            assert np.isclose(y, values[i + 1])

    def test_conditional_appends_scaled_tag_column(self):
        aug = dad.build_augmented_dataset(
            np.array([1.0, 2.0, 3.0]), 1, np.array([0]), np.array([[0.9, 0.7]]),
            conditional=True, n_steps=2,
        )
        assert aug.inputs.shape == (3, 2)
        assert aug.inputs[:, 1].tolist() == [0.0, 0.0, 0.5]  # tag / n_steps

    def test_tag_range(self):
        values = wave(14)
        p, n_steps = 2, 4
        roll = make_windows(values, p, n_steps)
        net = nn.init_mlp([p, 3, 1], rng=1)
        starts = np.arange(len(roll))
        preds = stg.rollout(net, roll.histories, n_steps)
        aug = dad.build_augmented_dataset(values, p, starts, preds, False, n_steps)
        assert aug.tags.min() == 0
        assert aug.tags.max() == n_steps - 1

    def test_depth_one_gives_no_synthetic_rows(self):
        aug = dad.build_augmented_dataset(
            np.array([1.0, 2.0]), 1, np.array([0]), np.array([[0.4]]), False, 1
        )
        assert len(aug) == 1
        assert aug.tags.tolist() == [0]

    def test_misaligned_trajectory_rejected(self):
        values = np.array([1.0, 2.0, 3.0])
        short = np.array([[0.9]])
        with pytest.raises(AlignmentError):
            dad.build_augmented_dataset(values, 1, np.array([0]), short, False, 2)
        with pytest.raises(AlignmentError):  # start 5 has no two true successors
            dad.build_augmented_dataset(
                values, 1, np.array([5]), np.array([[0.9, 0.7]]), False, 2
            )

    def test_starts_and_preds_must_pair_up(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        preds = np.array([[0.9, 0.7]])
        with pytest.raises(AlignmentError):  # two starts, one rollout
            dad.build_augmented_dataset(values, 1, np.array([0, 1]), preds, False, 2)
        with pytest.raises(AlignmentError):  # fractional start index
            dad.build_augmented_dataset(values, 1, np.array([0.5]), preds, False, 2)


class TestSelectBest:
    def test_argmin_and_tie_break(self):
        results = [("a", 1.0, 2.0), ("b", 0.5, 3.0), ("c", 0.5, 1.0)]
        assert dad.select_best(results, "mse") == ("b", 1)  # tie -> earliest
        assert dad.select_best(results, "mae") == ("c", 2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            dad.select_best([])


class TestMetaTrain:
    def test_candidate_count_is_iterations_plus_one(self):
        train, val = wave(50), wave(30, seed=1)
        for fn, conditional in ((dad.train_dad, False), (dad.train_cdad, True)):
            res = fn(train, val, small_cfg(conditional=conditional))
            assert len(res.per_iteration_val_errors) == 3  # K=2 plus the start
            assert 0 <= res.best_iteration < 3

    def test_best_iteration_is_validation_argmin(self):
        res = dad.train_dad(wave(50), wave(30, seed=1), small_cfg())
        mses = [m for m, _ in res.per_iteration_val_errors]
        assert mses[res.best_iteration] == min(mses)

    def test_model_shapes(self):
        train, val = wave(50), wave(30, seed=1)
        plain = dad.train_dad(train, val, small_cfg()).best_model
        assert not plain.time_step_augmented
        assert plain.net.input_dim == 3
        cond = dad.train_cdad(train, val, small_cfg(conditional=True)).best_model
        assert cond.time_step_augmented
        assert cond.net.input_dim == 4
        assert cond.max_step == 3

    def test_determinism(self):
        train, val = wave(50), wave(30, seed=1)
        a = dad.train_dad(train, val, small_cfg())
        b = dad.train_dad(train, val, small_cfg())
        assert a.per_iteration_val_errors == b.per_iteration_val_errors
        for la, lb in zip(a.best_model.net.layers, b.best_model.net.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_zero_tag_encoding_never_touches_step_weights(self):
        # With the step feature forced to zero its incoming weights get no
        # gradient, so fitting a conditioned set degenerates to an
        # unconditioned fit and the step column survives training bit-exact.
        values, p, n_steps = wave(50), 3, 3
        roll = make_windows(values, p, n_steps)
        preds = stg.rollout(nn.init_mlp([p, 4, 1], rng=3), roll.histories, n_steps)
        aug = dad.build_augmented_dataset(
            values, p, np.arange(len(roll)), preds, True, n_steps
        )
        assert aug.inputs[:, -1].max() > 0
        aug.inputs[:, -1] = 0.0
        m0 = nn.init_mlp([p + 1, 4, 1], rng=np.random.default_rng(7))
        column_before = m0.layers[0].weights[:, -1].copy()
        trained, _ = nn.fit(m0, aug.to_windowed(), small_cfg().inner_train)
        assert not np.array_equal(trained.layers[0].weights[:, :-1], m0.layers[0].weights[:, :-1])
        assert np.array_equal(trained.layers[0].weights[:, -1], column_before)

    def test_log_dict_shape(self):
        res = dad.train_dad(wave(50), wave(30, seed=1), small_cfg())
        doc = res.to_log_dict()
        assert doc["best_iteration"] == res.best_iteration
        assert [e["k"] for e in doc["iterations"]] == [0, 1, 2]


class TestAccumulate:
    @staticmethod
    def rows_per_fit(monkeypatch, train, val, cfg):
        """Run the meta-training loop, recording the row count of every fit."""
        rows = []

        def counting_fit(net, data, train_cfg):
            rows.append(len(data.histories))
            return nn.fit(net, data, train_cfg)

        monkeypatch.setattr(dad, "fit", counting_fit)
        fn = dad.train_cdad if cfg.conditional else dad.train_dad
        return fn(train, val, cfg), rows

    @pytest.mark.parametrize("conditional", [False, True])
    def test_each_fit_sees_one_more_synthetic_block(self, monkeypatch, conditional):
        train, val = wave(50), wave(30, seed=1)
        p, n_steps, big_k = 3, 3, 3
        cfg = small_cfg(conditional=conditional, meta_iterations=big_k)
        plain, plain_rows = self.rows_per_fit(monkeypatch, train, val, cfg)
        acc, acc_rows = self.rows_per_fit(
            monkeypatch, train, val, small_cfg(
                conditional=conditional, meta_iterations=big_k, accumulate=True
            ),
        )
        ground_truth = len(train) - p
        block = (n_steps - 1) * (len(train) - p - n_steps + 1)
        # the base fit, CDaD's M_0 fit, then one fit per meta-iteration
        rebuilds = big_k + int(conditional)
        assert plain_rows == [ground_truth] + [ground_truth + block] * rebuilds
        assert acc_rows == [ground_truth] + [
            ground_truth + j * block for j in range(1, rebuilds + 1)
        ]
        # the first fit on a rebuilt set sees the same rows in the same order:
        # DaD's iterate 1 (after the base model) and CDaD's M_0
        same = 1 if conditional else 2
        assert acc.per_iteration_val_errors[:same] == plain.per_iteration_val_errors[:same]
        assert acc.per_iteration_val_errors[same:] != plain.per_iteration_val_errors[same:]
