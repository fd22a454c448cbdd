import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistep import dad, nn
from multistep import strategies as stg
from multistep.data import make_windows
from multistep.errors import ConfigError, NumericError, ShapeError


def small_cfg(**overrides):
    train = nn.TrainConfig(epochs=2, batch_size=16, seed=0)
    defaults = dict(
        p=3,
        n_steps=3,
        meta_iterations=2,
        inner_train=train,
        base_train=train,
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
        [("p", 0), ("n_steps", 0), ("meta_iterations", 0), ("p", 2.5), ("n_steps", 2.5),
         ("meta_iterations", 1.5), ("n_steps", True), ("base_train", None), ("inner_train", None)],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field,value", [("conditional", "yes"), ("conditional", None)])
    def test_flags_must_be_bool(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("conditional", [False, True], ids=["dad", "cdad"])
    def test_base_train_seed_seeds_the_base_model(self, conditional):
        # the base model (CDaD's M_0 included) once drew every seed from
        # inner_train.seed, so base seeds 0 and 123 gave the same run
        series, val = wave(40), wave(30, seed=1)
        train = dad.train_cdad if conditional else dad.train_dad
        errors = [train(series, val, small_cfg(
                      conditional=conditional,
                      base_train=nn.TrainConfig(epochs=2, batch_size=16, seed=seed),
                  )).per_iteration_val_errors[0] for seed in (0, 123)]
        assert errors[0] != errors[1]

    def test_wrapper_mode_checks(self):
        series, val = wave(40), wave(30, seed=1)
        with pytest.raises(ConfigError):
            dad.train_dad(series, val, small_cfg(conditional=True))
        with pytest.raises(ConfigError):
            dad.train_cdad(series, val, small_cfg(conditional=False))


def built(values, p, preds, conditional, n_steps):
    """A set allocated for one rollout, with that rollout's predictions written."""
    return dad.build_augmented_dataset(dad.augmented_set(values, p, n_steps, conditional), preds)


def loop_augmented(values, p, preds, n_steps, conditional):
    """The allocator and builder as per-row loops, the reference the
    vectorised pair must equal bitwise: one rollout from every window
    that has n_steps true successors."""
    xs = [values[i : i + p] for i in range(len(values) - p)]
    ys = [values[i + p] for i in range(len(values) - p)]
    tags = [0] * len(xs)
    for n in range(1, n_steps):
        for j, s in enumerate(range(len(values) - p - n_steps + 1)):
            truth = list(values[s + n : s + p]) if n < p else []
            xs.append(np.array(truth + list(preds[j, max(0, n - p) : n])))
            ys.append(values[s + p + n])
            tags.append(n)
    inputs = np.array(xs)
    if conditional:
        encoded = np.array([t / n_steps for t in tags])
        inputs = np.concatenate([inputs, encoded[:, None]], axis=1)
    return inputs, np.array(ys)


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
        preds = rng.uniform(0, 1, (extra + 1, n_steps))  # one rollout per window
        for conditional in (False, True):
            aug = built(values, p, preds, conditional, n_steps)
            # a set rebuilt in place after another rollout's predictions
            allocated = dad.augmented_set(values, p, n_steps, conditional)
            dad.build_augmented_dataset(allocated, rng.uniform(0, 1, preds.shape))
            rebuilt = dad.build_augmented_dataset(allocated, preds)
            assert np.shares_memory(rebuilt.histories, allocated.histories)
            inputs, targets = loop_augmented(values, p, preds, n_steps, conditional)
            for each in (aug, rebuilt):
                assert np.array_equal(each.histories, inputs)
                assert np.array_equal(each.futures, targets[:, None])

    def test_three_point_enumeration(self):
        # Series [1, 2, 3], p=1, rollout depth 2: one trajectory, starting
        # at index 0, whose first prediction was 0.9. Exactly three rows:
        # the two ground-truth pairs plus one synthetic pair targeting the
        # true value two steps out.
        aug = built(
            np.array([1.0, 2.0, 3.0]), p=1, preds=np.array([[0.9, 0.7]]), conditional=False,
            n_steps=2,
        )
        assert aug.histories.tolist() == [[1.0], [2.0], [0.9]]
        assert aug.futures.tolist() == [[2.0], [3.0], [3.0]]

    def test_row_counting_oracle(self):
        # n points, window p, depth N: (n-p) ground-truth rows plus
        # (N-1) synthetic rows per rollout start, of which there are
        # n-p-N+1 at stride 1.
        values = wave(10)
        p, n_steps = 2, 3
        roll = make_windows(values, p, n_steps)
        net = nn.init_mlp([p, 3, 1], rng=0)
        preds = stg.rollout(net, roll.histories, n_steps)
        aug = built(values, p, preds, False, n_steps)
        n = len(values)
        expected = (n - p) + (n_steps - 1) * (n - p - n_steps + 1)
        assert len(aug) == expected

    def test_ground_truth_rows_preserved_bit_exact(self):
        values = wave(12)
        one_step = make_windows(values, 3, 1)
        aug = built(values, 3, np.full((8, 2), 9.0), False, n_steps=2)  # 8 rollouts
        assert np.array_equal(aug.histories[: len(one_step)], one_step.histories)
        assert np.array_equal(aug.futures[: len(one_step)], one_step.futures)

    def test_perfect_model_reproduces_true_windows(self):
        # f(x) = 0.5 x is exact on the geometric series 0.5^i, so every
        # synthetic window coincides with the true window at its position.
        values = 0.5 ** np.arange(8.0)
        net = nn.Mlp([nn.Layer(np.array([[0.5]]), np.zeros(1), "linear")])
        p, n_steps = 1, 3
        roll = make_windows(values, p, n_steps)
        preds = stg.rollout(net, roll.histories, n_steps)
        aug = built(values, p, preds, False, n_steps)
        for x, y in zip(aug.histories, aug.futures[:, 0]):
            # every row, synthetic or not, is a true (value, next value) pair
            i = int(np.argmin(np.abs(values - x[0])))
            assert np.isclose(x[0], values[i])
            assert np.isclose(y, values[i + 1])

    def test_conditional_appends_scaled_tag_column(self):
        aug = built(np.array([1.0, 2.0, 3.0]), 1, np.array([[0.9, 0.7]]), conditional=True,
                    n_steps=2)
        assert aug.histories.shape == (3, 2)
        assert aug.histories[:, 1].tolist() == [0.0, 0.0, 0.5]  # depth / n_steps

    def test_tag_range(self):
        # the step column spans depths 0 (the one-step rows) to n_steps - 1
        values = wave(14)
        p, n_steps = 2, 4
        roll = make_windows(values, p, n_steps)
        net = nn.init_mlp([p + 1, 3, 1], rng=1)
        preds = stg.rollout(net, roll.histories, n_steps, step_scale=n_steps)
        aug = built(values, p, preds, True, n_steps)
        assert sorted(set(aug.histories[:, p] * n_steps)) == list(range(n_steps))

    def test_depth_one_gives_no_synthetic_rows(self):
        aug = built(np.array([1.0, 2.0]), 1, np.array([[0.4]]), False, 1)
        assert len(aug) == 1

    def test_misaligned_trajectory_rejected(self):
        values = np.array([1.0, 2.0, 3.0])
        aug = dad.augmented_set(values, 1, 2, False)
        for bad in ([[0.9]], [0.9, 0.7], [[0.9, 0.7, 0.5]]):  # short, 1-D, long
            with pytest.raises(ShapeError):
                dad.build_augmented_dataset(aug, np.array(bad))

    def test_starts_and_preds_must_pair_up(self):
        two_starts = dad.augmented_set(np.array([1.0, 2.0, 3.0, 4.0]), 1, 2, False)
        assert two_starts.layout == (3, 1, 2)  # 3 one-step rows, so 2 rollouts
        with pytest.raises(ShapeError):  # two starts, one rollout
            dad.build_augmented_dataset(two_starts, np.array([[0.9, 0.7]]))

    @pytest.mark.parametrize("p", [0, 3, 4, 2.0], ids=["zero", "series-length", "past-end", "float"])
    def test_window_length_the_series_cannot_fill_rejected(self, p):
        with pytest.raises(ConfigError, match="^p must be an integer in"):
            dad.augmented_set(np.array([1.0, 2.0, 3.0]), p, 1, False)

    def test_window_that_leaves_no_rollout_rejected(self):
        # p = 2 fills the series, but no window of 2 has 2 true successors
        with pytest.raises(ConfigError, match=r"^p must be an integer in \[1, 1\], got 2"):
            dad.augmented_set(np.array([1.0, 2.0, 3.0]), 2, 2, False)

    @pytest.mark.parametrize("n, n_steps", [(60, 70), (3, 3)], ids=["past-end", "series-length"])
    def test_a_depth_that_leaves_no_window_names_n_steps(self, n, n_steps):
        with pytest.raises(ConfigError,
                           match=rf"^n_steps must be < the series length {n}, got {n_steps}$"):
            dad.augmented_set(wave(n), 4, n_steps, False)

    @pytest.mark.parametrize("n_steps", [0, 2.5, True])
    def test_depth_is_an_integer(self, n_steps):
        with pytest.raises(ConfigError, match="^n_steps must be an integer >= "):
            dad.augmented_set(np.arange(6.0), 1, n_steps, conditional=False)


class TestSelectBest:
    def test_argmin_and_tie_break(self):
        # by MSE alone: "c" has the least MAE
        results = [("a", 1.0, 2.0), ("b", 0.5, 3.0), ("c", 0.5, 1.0)]
        assert dad.select_best(results) == ("b", 1)  # tie -> earliest

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            dad.select_best([])

    def test_a_non_finite_score_is_refused(self):
        results = [("a", 0.2, 0.3), ("b", 0.1, 0.1), ("c", float("nan"), 0.05)]
        with pytest.raises(NumericError, match="^candidate 2 has a non-finite validation mse nan$"):
            dad.select_best(results)


class TestMetaTrain:
    def test_candidate_count_is_iterations_plus_one(self):
        train, val = wave(50), wave(30, seed=1)
        for fn, conditional in ((dad.train_dad, False), (dad.train_cdad, True)):
            res = fn(train, val, small_cfg(conditional=conditional))
            assert len(res.per_iteration_val_errors) == 3  # K=2 plus the start
            assert 0 <= res.best_iteration < 3

    def test_a_short_validation_series_names_n_steps_before_any_fit(self, monkeypatch):
        monkeypatch.setattr(dad, "fit", None)
        with pytest.raises(ConfigError,
                           match=r"^validation series length 6 < p \+ n_steps = 8$"):
            dad.train_dad(wave(50), wave(6), small_cfg(p=4, n_steps=4))

    def test_best_iteration_is_validation_argmin(self):
        res = dad.train_dad(wave(50), wave(30, seed=1), small_cfg())
        mses = [m for m, _ in res.per_iteration_val_errors]
        assert mses[res.best_iteration] == min(mses)

    def test_model_shapes(self):
        train, val = wave(50), wave(30, seed=1)
        plain = dad.train_dad(train, val, small_cfg()).best_model
        assert plain.max_step is None
        assert plain.net.input_dim == 3
        cond = dad.train_cdad(train, val, small_cfg(conditional=True)).best_model
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
        aug = built(values, p, preds, True, n_steps)
        assert aug.histories[:, -1].max() > 0
        aug.histories[:, -1] = 0.0
        m0 = nn.init_mlp([p + 1, 4, 1], rng=np.random.default_rng(7))
        column_before = m0.layers[0].weights[:, -1].copy()
        trained, _ = nn.fit(m0, aug, small_cfg().inner_train)
        assert not np.array_equal(trained.layers[0].weights[:, :-1], m0.layers[0].weights[:, :-1])
        assert np.array_equal(trained.layers[0].weights[:, -1], column_before)

    def test_log_dict_shape(self):
        res = dad.train_dad(wave(50), wave(30, seed=1), small_cfg())
        doc = res.to_log_dict()
        assert doc["best_iteration"] == res.best_iteration
        assert [e["k"] for e in doc["iterations"]] == [0, 1, 2]


def concatenating_builder(values):
    """The builder the in-place one replaced, as the bitwise oracle of the
    meta loop on `values`: every call builds the whole set afresh by
    concatenation. Of the set it is given it reads only p, n_steps and the
    step flag."""

    def build(allocated, preds):
        _, p, n_steps = allocated.layout
        conditional = allocated.histories.shape[1] == p + 1
        starts = np.arange(len(values) - p - n_steps + 1)
        one_step = make_windows(values, p, 1)
        xs, ys = [one_step.histories], [one_step.futures[:, 0]]
        ts = [np.zeros(len(one_step), dtype=int)]
        for n in range(1, n_steps):
            if n < p:
                gt_part = np.lib.stride_tricks.sliding_window_view(values, p - n)[starts + n]
                xs.append(np.concatenate([gt_part, preds[:, :n]], axis=1))
            else:
                xs.append(preds[:, n - p : n])
            ys.append(values[starts + p + n])
            ts.append(np.full(len(starts), n, dtype=int))
        inputs, targets, tags = np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)
        if conditional:
            inputs = np.concatenate([inputs, (tags / n_steps)[:, None]], axis=1)
        return dad.AugmentedDataset(inputs, targets[:, None], allocated.layout)

    return build


TRAIN, VAL = wave(50), wave(30, seed=1)


def fits_and_result(monkeypatch, cfg, builder=None):
    """Meta-train on TRAIN, keeping a copy of every set fit receives."""
    sets = []

    def recording_fit(net, data, train_cfg):
        sets.append((data.histories.copy(), data.futures.copy()))
        return nn.fit(net, data, train_cfg)

    with monkeypatch.context() as patch:
        patch.setattr(dad, "fit", recording_fit)
        if builder is not None:
            patch.setattr(dad, "build_augmented_dataset", builder)
        fn = dad.train_cdad if cfg.conditional else dad.train_dad
        return sets, fn(TRAIN, VAL, cfg)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInPlaceRebuild:
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 5], ids=["N=1", "N<p", "N=p", "N>p"])
    @pytest.mark.parametrize("conditional", [False, True], ids=["dad", "cdad"])
    def test_every_fit_equals_the_concatenating_oracle(self, monkeypatch, conditional, n_steps):
        cfg = small_cfg(n_steps=n_steps, meta_iterations=3, conditional=conditional)
        sets, result = fits_and_result(monkeypatch, cfg)
        oracle_sets, oracle = fits_and_result(monkeypatch, cfg, concatenating_builder(TRAIN))
        assert len(sets) == len(oracle_sets) == 4 + int(conditional)
        for (x, y), (ox, oy) in zip(sets, oracle_sets):
            assert same_bits(x, ox) and same_bits(y, oy)
        assert result.best_iteration == oracle.best_iteration
        assert result.per_iteration_val_errors == oracle.per_iteration_val_errors
        for a, b in zip(result.best_model.net.params, oracle.best_model.net.params):
            assert same_bits(a, b)

    @pytest.mark.parametrize("conditional", [False, True], ids=["dad", "cdad"])
    def test_rebuilds_allocate_no_set_sized_array(self, monkeypatch, conditional):
        """No rebuild of the meta loop's set allocates an array as large as
        the set's inputs. NumPy's iterator takes a scratch buffer of up to
        getbufsize() elements for a strided copy; it is cut to 16 elements
        here so that only arrays count."""
        build = dad.build_augmented_dataset
        marks = []  # (peak growth during the rebuild, bytes of the set's inputs)

        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            aug = build(*args, **kwargs)
            marks.append((tracemalloc.get_traced_memory()[1] - before, aug.histories.nbytes))
            return aug

        monkeypatch.setattr(dad, "build_augmented_dataset", measured)
        cfg = small_cfg(n_steps=5, meta_iterations=3, conditional=conditional)
        fn = dad.train_cdad if conditional else dad.train_dad
        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            fn(wave(400), wave(60, seed=1), cfg)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert len(marks) == 3 + int(conditional)
        assert all(growth < nbytes for growth, nbytes in marks), marks
