"""Splitting, standardization, network math, Adam, training, metrics."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from hyperfield.config import load_config
from hyperfield.errors import ConfigError, DataError, DivergenceError
from hyperfield.mlp import (
    AdamState,
    EpochLog,
    MlpModel,
    NormStats,
    SplitSpec,
    TrainConfig,
    adam_step,
    backward,
    evaluate,
    forward,
    init_model,
    load_model,
    predict,
    r2_score,
    rmse,
    save_model,
    standardize_apply,
    standardize_fit,
    standardize_fit_apply,
    stratified_split,
    train,
    write_training_log_csv,
)
from hyperfield.subplot import Records
from hyperfield.table import read_table

from oracles import batch_mse, central_difference, mlp_forward_naive, train_lists

CONFIG = load_config(None)


def split_spec(**changes) -> SplitSpec:
    """``[split]``'s defaults with ``changes``; no test plots unless they ask."""
    return replace(CONFIG.split_spec(), **{"test_plots": 0, **changes})


def train_config(**changes) -> TrainConfig:
    """``[train]``'s defaults with ``changes``."""
    return replace(CONFIG.train_config(), **changes)


def _fake_rows(rng, n_plots=20, per_plot=8, k=5):
    """(plot_id, window_row, window_col, n_sl, yield_g, features) per record."""
    return [
        (f"p{p:03d}", 0, w, int(rng.integers(1, 40)), float(rng.uniform(1.0, 30.0)),
         rng.normal(size=k))
        for p in range(n_plots)
        for w in range(per_plot)
    ]


def _fake_records(rng, **kwargs):
    rows = _fake_rows(rng, **kwargs)
    return Records(
        [row[0] for row in rows],
        np.array([row[1:4] for row in rows]),
        np.array([row[4] for row in rows]),
        np.stack([row[5] for row in rows]),
    )


class TestSplit:
    def test_single_stratum_exact_fractions(self):
        y = np.arange(100, dtype=float)
        ids = [f"p{i}" for i in range(100)]
        split = stratified_split(
            y, ids, split_spec(train_fraction=0.9, validation_fraction=0.1, strata=1)
        )
        assert split.train.size == 90
        assert split.validation.size == 10
        assert split.test.size == 0

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(1, 50, size=517)
        ids = [f"p{i % 37}" for i in range(517)]
        split = stratified_split(
            y, ids, split_spec(seed=3, test_plot_ids=("p0", "p5"))
        )
        everything = np.concatenate([split.train, split.validation, split.test])
        assert np.array_equal(np.sort(everything), np.arange(517))

    def test_per_stratum_share_tracks_global(self):
        # Counting oracle: each yield-rank chunk gives up its share of
        # validation records to within a record or two.
        rng = np.random.default_rng(8)
        n = 1000
        y = rng.uniform(0, 100, size=n)
        ids = [f"p{i}" for i in range(n)]
        spec = split_spec(train_fraction=0.85, validation_fraction=0.15, strata=10)
        split = stratified_split(y, ids, spec)
        assert split.validation.size == round(0.15 * n)
        order = np.argsort(y, kind="stable")
        val = set(split.validation.tolist())
        for s in range(10):
            chunk = order[s * 100 : (s + 1) * 100]
            got = sum(1 for i in chunk if i in val)
            assert abs(got - 15) <= 2

    def test_plot_holdout_by_id_is_leak_free(self):
        rng = np.random.default_rng(11)
        records = _fake_records(rng)
        y, ids = records.yields, records.plot_ids
        split = stratified_split(
            y, ids, split_spec(test_plot_ids=("p003", "p011"))
        )
        test_plots = {ids[i] for i in split.test}
        assert test_plots == {"p003", "p011"}
        assert split.test.size == 16
        for i in np.concatenate([split.train, split.validation]):
            assert ids[i] not in test_plots

    def test_plot_holdout_by_count(self):
        rng = np.random.default_rng(13)
        records = _fake_records(rng, n_plots=30)
        y, ids = records.yields, records.plot_ids
        split = stratified_split(y, ids, split_spec(seed=2, test_plots=6))
        assert len({ids[i] for i in split.test}) == 6
        assert split.test.size == 48

    def test_holdout_spreads_over_yield_range(self):
        # Plots with strictly increasing totals: a stratified holdout
        # cannot take all its plots from one end.
        y = np.repeat(np.arange(40, dtype=float) + 1.0, 4)
        ids = [f"p{i:02d}" for i in range(40) for _ in range(4)]
        split = stratified_split(y, ids, split_spec(seed=0, test_plots=10))
        picked = sorted(int(ids[i][1:]) for i in split.test)
        held_plots = sorted(set(picked))
        assert len(held_plots) == 10
        assert min(held_plots) < 20 <= max(held_plots)

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(17)
        y = rng.uniform(1, 9, size=300)
        ids = [f"p{i % 25}" for i in range(300)]
        a = stratified_split(y, ids, split_spec(seed=4, test_plots=3))
        b = stratified_split(y, ids, split_spec(seed=4, test_plots=3))
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)
        c = stratified_split(y, ids, split_spec(seed=5, test_plots=3))
        assert not np.array_equal(a.validation, c.validation)

    def test_tiny_strata_merge_instead_of_failing(self, caplog):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ids = [f"p{i}" for i in range(5)]
        with caplog.at_level("WARNING", logger="hyperfield.mlp"):
            split = stratified_split(
                y, ids, split_spec(train_fraction=0.8, validation_fraction=0.2, strata=10)
            )
        assert split.train.size + split.validation.size == 5
        assert any("merged" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "records, plots, spec, unit",
        [
            (300, 3, dict(strata=10, test_plots=1), "plot"),
            (5, 5, dict(train_fraction=0.8, validation_fraction=0.2, strata=10), "record"),
        ],
        ids=["plot-strata", "record-strata"],
    )
    def test_merge_warnings_name_what_the_strata_hold(self, caplog, records, plots, spec, unit):
        """The hold-out draw ranks plots and the validation draw records; a
        merge warning names the one whose strata merged."""
        y = np.random.default_rng(8).uniform(1.0, 9.0, records)
        ids = [f"p{i % plots}" for i in range(records)]
        with caplog.at_level("WARNING", logger="hyperfield.mlp"):
            stratified_split(y, ids, split_spec(**spec))
        merges = [r.message for r in caplog.records if "merged" in r.message]
        assert merges
        assert all(f"stratum with 1 {unit} merged" in message for message in merges)

    # (name, records, plots, split_spec keywords): each draws its yields from
    # default_rng(29), and record i belongs to plot i % plots
    _PINNED = [
        ("tied", 21, 6, dict(strata=4, seed=5, test_plots=2)),
        ("more-strata-than-plots", 12, 3, dict(strata=10, seed=1, test_plots=1)),
        ("merged-at-head", 5, 5,
         dict(train_fraction=0.6, validation_fraction=0.4, strata=3, seed=2)),
        ("merged-at-tail", 7, 7,
         dict(train_fraction=0.7, validation_fraction=0.3, strata=10, seed=3)),
        ("remainder-ties", 12, 12,
         dict(train_fraction=0.5, validation_fraction=0.1, strata=4, seed=4)),
        ("test-plot-ids", 90, 9, dict(strata=5, seed=6, test_plot_ids=("p2", "p7"))),
        ("all-but-one-plot", 40, 8, dict(strata=3, seed=7, test_plots=7)),
        ("defaults", 400, 40, dict(test_plots=10)),
    ]
    # (train, validation, test sizes, merge warnings, sha256 of the three
    # index arrays as little-endian int64, each followed by b"|")
    _PINS = {
        "tied": (12, 2, 7, 2, "8e351727a3466603726135cd13543b6b6d474454fcb580e6e8c49bcb4a3c9340"),
        "more-strata-than-plots":
            (7, 1, 4, 6, "8c87af32edf1357f8be01abcb46cabdee6ee972638a0a5b4371b0059c57cc27c"),
        "merged-at-head":
            (3, 2, 0, 1, "b8f3b3dd1d2ddce6ea1f5344c957f3c6e1924c42d505bf0a0971a6e406f26c09"),
        "merged-at-tail":
            (5, 2, 0, 4, "8af180626d6907721d68a48ab2ec0c7b7c9d8281e375bef741a4ee941856560a"),
        "remainder-ties":
            (10, 2, 0, 0, "046b172d3cabd31bacb1cc447e94f2d74a22a8d78a8073ef7b6174c6997075bd"),
        "test-plot-ids":
            (59, 11, 20, 0, "7bb0fa024c6f28d6dd3e095a533a9ac2f850926d09a088ef64c0f2e23fbe3ce8"),
        "all-but-one-plot":
            (4, 1, 35, 1, "683a06965140fd282db16afb4e54d877071891e3a76c50bfcf67ea7ac73c92e1"),
        "defaults":
            (255, 45, 100, 0, "c4b5d6885f307038195169ef15143c3973a2b1e25b3f45371a263fa6b7a6c020"),
    }

    @pytest.mark.parametrize("name, records, plots, spec", _PINNED, ids=[c[0] for c in _PINNED])
    def test_split_keeps_its_indices(self, caplog, name, records, plots, spec):
        """The exact split of each case: ties, merges and remainders included."""
        y = np.random.default_rng(29).uniform(1.0, 30.0, records)
        if name == "tied":
            y = np.repeat([3.0, 1.0, 2.0], 7)
        ids = [f"p{i % plots}" for i in range(records)]
        with caplog.at_level("WARNING", logger="hyperfield.mlp"):
            split = stratified_split(y, ids, split_spec(**spec))
        digest = hashlib.sha256()
        for part in (split.train, split.validation, split.test):
            digest.update(np.asarray(part, "<i8").tobytes() + b"|")
        merges = sum("merged" in r.message for r in caplog.records)
        sizes = (split.train.size, split.validation.size, split.test.size)
        assert (*sizes, merges, digest.hexdigest()) == self._PINS[name]

    def test_argument_validation(self):
        y = np.ones(4)
        ids = ["a", "b", "c", "d"]
        with pytest.raises(ConfigError):
            split_spec(train_fraction=0.0)
        with pytest.raises(ConfigError):
            split_spec(train_fraction=0.9, validation_fraction=0.2)
        with pytest.raises(ConfigError):
            split_spec(strata=0)
        with pytest.raises(ConfigError):
            split_spec(test_plots=1, test_plot_ids=("a",))
        with pytest.raises(DataError):
            stratified_split(y, ids, split_spec(test_plot_ids=("zz",)))
        with pytest.raises(ConfigError):
            stratified_split(y, ids, split_spec(test_plots=4))
        with pytest.raises(DataError, match="^3 yields but 4 plot ids$"):
            stratified_split(np.ones(3), ids, split_spec())


class TestStandardize:
    def test_train_output_is_zero_mean_unit_variance(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-5, 20, size=(400, 7)) * rng.uniform(0.1, 30, size=7)
        stats, z = standardize_fit_apply(x)
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-9
        assert z.var(axis=0) == pytest.approx(np.ones(7), abs=1e-6)
        assert stats.variance == pytest.approx(x.var(axis=0))

    def test_constant_feature_maps_to_zero(self):
        x = np.column_stack([np.full(10, 3.7), np.arange(10.0)])
        _, z = standardize_fit_apply(x)
        assert np.all(z[:, 0] == 0.0)
        assert z[:, 1].std() == pytest.approx(1.0)

    def test_two_point_example(self):
        _, z = standardize_fit_apply(np.array([[-1.0], [1.0]]))
        assert z == pytest.approx(np.array([[-1.0], [1.0]]))

    def test_record_at_train_mean_is_all_zeros(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(50, 4))
        stats = standardize_fit(x)
        z = standardize_apply(stats, x.mean(axis=0)[None, :])
        assert z == pytest.approx(np.zeros((1, 4)), abs=1e-12)

    def test_apply_uses_training_statistics(self):
        stats = NormStats(mean=np.array([10.0]), variance=np.array([4.0]))
        z = standardize_apply(stats, np.array([[14.0], [10.0], [8.0]]))
        assert z.ravel() == pytest.approx([2.0, 0.0, -1.0])


def _manual_model(layer_sizes, weights, biases):
    return MlpModel(
        layer_sizes=layer_sizes,
        weights=[np.asarray(w, dtype=float) for w in weights],
        biases=[np.asarray(b, dtype=float) for b in biases],
    )


class TestForward:
    def test_zero_weights_output_bias(self):
        model = _manual_model(
            (3, 2, 1),
            [np.zeros((3, 2)), np.zeros((2, 1))],
            [np.zeros(2), np.array([4.25])],
        )
        x = np.random.default_rng(0).normal(size=(9, 3))
        assert forward(model, x) == pytest.approx(np.full(9, 4.25))

    def test_single_relu_chain(self):
        model = _manual_model(
            (1, 1, 1), [np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)]
        )
        assert forward(model, np.array([[2.0]]))[0] == pytest.approx(2.0)
        assert forward(model, np.array([[-3.0]]))[0] == pytest.approx(0.0)

    def test_matches_loop_oracle(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            model = init_model((5, 7, 3, 1), seed=0, rng=rng)
            x = rng.normal(size=(9, 5))
            got = forward(model, x)
            expected = [
                mlp_forward_naive(model.weights, model.biases, row) for row in x
            ]
            assert got == pytest.approx(np.array(expected).ravel(), abs=1e-12)

    def test_feature_width_checked(self):
        model = init_model((4, 3, 1), seed=0)
        with pytest.raises(DataError, match="^input has 5 features, model expects 4$"):
            forward(model, np.ones((2, 5)))


class TestBackward:
    def test_zero_error_batch_gives_zero_gradients(self):
        model = _manual_model(
            (2, 2, 1),
            [np.zeros((2, 2)), np.zeros((2, 1))],
            [np.zeros(2), np.array([7.0])],
        )
        x = np.random.default_rng(1).normal(size=(6, 2))
        y = np.full(6, 7.0)
        gw, gb = backward(model, x, y)
        for g in gw + gb:
            assert np.all(g == 0.0)

    def test_single_linear_unit_closed_form(self):
        w0, b0 = 1.5, -0.25
        model = _manual_model((1, 1), [np.array([[w0]])], [np.array([b0])])
        x = np.array([[2.0], [-1.0], [0.5]])
        y = np.array([1.0, 0.0, 2.0])
        gw, gb = backward(model, x, y)
        residual = w0 * x[:, 0] + b0 - y
        assert gw[0][0, 0] == pytest.approx(np.mean(2.0 * residual * x[:, 0]))
        assert gb[0][0] == pytest.approx(np.mean(2.0 * residual))

    def test_relu_subgradient_at_zero_is_zero(self):
        model = _manual_model(
            (1, 1, 1), [np.zeros((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)]
        )
        gw, gb = backward(model, np.array([[3.0]]), np.array([1.0]))
        assert gw[0][0, 0] == 0.0
        assert gb[0][0] == 0.0

    def test_matches_central_differences(self):
        # Seed chosen so no pre-activation sits near the ReLU kink.
        model, x, y = _kink_free_problem((7, 6, 5, 1), batch=5)
        gw, gb = backward(model, x, y)
        worst = 0.0
        for layer in range(model.n_layers):
            for arrays, grads in ((model.weights, gw), (model.biases, gb)):
                flat = arrays[layer].ravel()  # view: the oracle perturbs in place
                fd = central_difference(lambda _: batch_mse(model, x, y), flat, 1e-5)
                a = grads[layer].ravel()
                err = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
                worst = max(worst, float(err.max()))
        assert worst < 1e-4


def _kink_free_problem(layer_sizes, batch, guard=1e-3, tries=200):
    for seed in range(tries):
        rng = np.random.default_rng(seed)
        model = init_model(layer_sizes, seed=0, rng=rng)
        x = rng.normal(size=(batch, layer_sizes[0]))
        y = rng.normal(size=batch)
        closest = _nearest_preactivation_to_zero(model, x)
        if closest > guard:
            return model, x, y
    raise AssertionError(f"no kink-free seed found in {tries} tries")


def _nearest_preactivation_to_zero(model, x):
    a = x
    closest = np.inf
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if i < model.n_layers - 1:
            closest = min(closest, float(np.min(np.abs(z))))
            a = np.maximum(z, 0.0)
    return closest


class TestAdam:
    def test_first_step_magnitude(self):
        # Holds whenever |g| dominates Adam's epsilon.
        config = train_config(learning_rate=1e-3)
        for g0 in (0.5, -2.0, 0.05, 300.0):
            params = np.array([1.0])
            state = AdamState(params)
            adam_step(params, np.array([g0]), state, config)
            step = abs(params[0] - 1.0)
            assert config.learning_rate * (1 - 1e-6) <= step <= config.learning_rate
            assert np.sign(1.0 - params[0]) == np.sign(g0)

    def test_zero_gradients_leave_parameters_alone(self):
        params = np.array([3.0, -1.0])
        state = AdamState(params)
        for _ in range(10):
            adam_step(params, np.zeros(2), state, train_config())
        assert params == pytest.approx([3.0, -1.0])

    def test_scalar_quadratic_convergence(self):
        config = train_config(learning_rate=0.1)
        params = np.array([0.0])
        state = AdamState(params)
        for _ in range(200):
            g = 2.0 * (params - 3.0)
            adam_step(params, g, state, config)
        assert abs(params[0] - 3.0) < 0.05


def _linear_problem(rng, n, k, noise=0.5, intercept=30.0):
    x = rng.normal(size=(n, k)) * rng.uniform(0.5, 2.0, size=k)
    c = rng.uniform(-1.0, 1.0, size=k)
    y = intercept + x @ c + rng.normal(scale=noise, size=n)
    return x, y


class TestTrain:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(31)
        x, y = _linear_problem(rng, 200, 6)
        config = train_config(epochs=5, batch_size=32, seed=9)
        for hidden in ((8,), CONFIG.hidden_sizes()):
            m1, log1 = train(x[:160], y[:160], x[160:], y[160:], hidden, config)
            m2, log2 = train(x[:160], y[:160], x[160:], y[160:], hidden, config)
            for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
                assert a.dtype == b.dtype == np.float64
                assert a.tobytes() == b.tobytes()
            assert log1 == log2

    def test_checkpoint_is_best_logged_epoch(self):
        rng = np.random.default_rng(37)
        x, y = _linear_problem(rng, 300, 5)
        config = train_config(epochs=20, seed=1)
        model, logbook = train(x[:240], y[:240], x[240:], y[240:], (12,), config)
        vals = [e.val_rmse for e in logbook]
        assert len(logbook) == 21
        assert [e.epoch for e in logbook] == list(range(21))
        assert model.best_epoch == int(np.argmin(vals))
        assert vals[model.best_epoch] <= vals[0]

    def test_learns_a_linear_map(self):
        rng = np.random.default_rng(41)
        x, y = _linear_problem(rng, 2400, 30, noise=0.5)
        config = train_config(epochs=100, batch_size=32, seed=3)
        model, _ = train(x[:2000], y[:2000], x[2000:2200], y[2000:2200], (16,), config)
        held_x, held_y = x[2200:], y[2200:]
        assert r2_score(held_y, predict(model, held_x)) >= 0.95

    def test_divergence_names_the_epoch(self):
        # An absurd learning rate blows a deep ReLU stack up to inf
        # gradients, whose Adam update is NaN.
        rng = np.random.default_rng(43)
        x, y = _linear_problem(rng, 120, 4)
        config = train_config(epochs=5, learning_rate=1e28, seed=0)
        with pytest.raises(DivergenceError, match=r"epoch \d+"):
            train(x[:100], y[:100], x[100:], y[100:], (8,) * 7, config)

    @pytest.mark.parametrize("hidden", [(8,) * 7, (32, 16)])
    @pytest.mark.parametrize("learning_rate", [1e8, 1e28, 3e38])
    def test_float32_overflow_is_a_divergence(self, hidden, learning_rate):
        # float32 overflows long before float64 would: to inf outputs, or
        # to inf gradients whose Adam update is NaN. Either way the loss
        # is non-finite and the error names the epoch; nothing crashes.
        rng = np.random.default_rng(43)
        x, y = _linear_problem(rng, 120, 4)
        config = train_config(epochs=5, learning_rate=learning_rate, seed=0)
        with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch \d+$"):
            train(x[:100], y[:100], x[100:], y[100:], hidden, config)

    def test_rejects_non_finite_training_data(self):
        x = np.ones((10, 3))
        x[4, 1] = np.nan
        with pytest.raises(DataError):
            train(x, np.ones(10), np.ones((3, 3)), np.ones(3), (4,), train_config())

    def test_norm_stats_travel_with_the_model(self):
        rng = np.random.default_rng(47)
        x, y = _linear_problem(rng, 150, 4)
        model, _ = train(
            x[:120], y[:120], x[120:], y[120:], (6,), train_config(epochs=3)
        )
        assert model.norm_stats is not None
        assert model.norm_stats.mean == pytest.approx(x[:120].mean(axis=0))


class TestTrainMatchesPerArrayReference:
    """The flat float32 trainer repeats the per-array float32 loop bit for bit."""

    @pytest.mark.parametrize(
        "n_train, hidden, epochs, batch_size",
        [
            (150, CONFIG.hidden_sizes(), 6, 64),  # the default net
            (128, (12,), 10, 64),  # one hidden layer, whole batches only
            (100, (16, 8), 8, 32),  # a partial last batch of 4
            (90, (10, 6), 5, 500),  # one batch larger than the training set
            (200, (20, 10), 3, 64),  # three epochs
        ],
    )
    def test_same_bits_as_the_reference(self, n_train, hidden, epochs, batch_size):
        rng = np.random.default_rng(61)
        x, y = _linear_problem(rng, n_train + 40, 9)
        config = train_config(epochs=epochs, batch_size=batch_size, seed=5)
        args = (x[:n_train], y[:n_train], x[n_train:], y[n_train:], hidden, config)
        model, logbook = train(*args)
        ref_model, ref_logbook = train_lists(*args)
        assert model.best_epoch == ref_model.best_epoch
        assert logbook == ref_logbook
        assert len(logbook) == epochs + 1
        for a, b in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("hidden", [CONFIG.hidden_sizes(), (16, 8)])
    def test_epoch_errors_stay_close_to_the_float64_loop(self, hidden):
        # float32 training moves each epoch's errors by a few float32 ulps
        rng = np.random.default_rng(61)
        x, y = _linear_problem(rng, 190, 9)
        config = train_config(epochs=3, batch_size=64, seed=5)
        args = (x[:150], y[:150], x[150:], y[150:], hidden, config)
        _, logbook = train(*args)
        _, ref_logbook = train_lists(*args, dtype=np.float64)
        tolerance = 64 * np.finfo(np.float32).eps
        for got, ref in zip(logbook, ref_logbook, strict=True):
            assert got.train_rmse == pytest.approx(ref.train_rmse, rel=tolerance)
            assert got.val_rmse == pytest.approx(ref.val_rmse, rel=tolerance)

    def test_divergence_names_the_reference_epoch(self):
        rng = np.random.default_rng(43)
        x, y = _linear_problem(rng, 120, 4)
        config = train_config(epochs=5, learning_rate=1e28, seed=0)
        args = (x[:100], y[:100], x[100:], y[100:], (8,) * 7, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as ref:
                train_lists(*args)
            with pytest.raises(DivergenceError) as found:
                train(*args)
        assert str(found.value) == str(ref.value)


def _identity_model():
    return _manual_model((1, 1), [np.array([[1.0]])], [np.array([0.0])])


class TestEvaluate:
    def test_perfect_predictions(self):
        y = np.array([5.0, 9.0, 2.0, 8.0])
        ev = evaluate(_identity_model(), y[:, None], y, ["a", "a", "b", "b"])
        assert ev.subplot.r2 == pytest.approx(1.0)
        assert ev.subplot.rmse == pytest.approx(0.0)
        assert ev.plot.r2 == pytest.approx(1.0)
        assert ev.field_percent_error == pytest.approx(0.0)

    def test_constant_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        model = _manual_model((1, 1), [np.array([[0.0]])], [np.array([y.mean()])])
        ev = evaluate(model, y[:, None], y, ["a", "b", "a", "b"])
        assert ev.subplot.r2 == pytest.approx(0.0)

    def test_plot_and_field_totals(self):
        # Sub-plot predictions (10, 20) and (5, 5) against plot yields
        # 30 and 12: plot errors (0, -2), field totals 40 vs 42.
        feats = np.array([[10.0], [20.0], [5.0], [5.0]])
        y = np.array([15.0, 15.0, 6.0, 6.0])
        ev = evaluate(_identity_model(), feats, y, ["a", "a", "b", "b"])
        assert ev.field_actual == pytest.approx(42.0)
        assert ev.field_predicted == pytest.approx(40.0)
        assert ev.field_percent_error == pytest.approx(-2.0 / 42.0 * 100.0)
        assert ev.plot.rmse == pytest.approx(np.sqrt((0.0**2 + 2.0**2) / 2.0))
        assert ev.plot.nrmse == pytest.approx(ev.plot.rmse / 21.0)

    def test_predictions_clamped_at_zero(self):
        feats = np.array([[-5.0], [4.0]])
        y = np.array([1.0, 4.0])
        ev = evaluate(_identity_model(), feats, y, ["a", "b"])
        assert ev.field_predicted == pytest.approx(4.0)

    def test_metric_helpers(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.array([1.0, 2.0, 4.0])
        assert rmse(y, p) == pytest.approx(np.sqrt(1.0 / 3.0))
        assert r2_score(y, p) == pytest.approx(1.0 - 1.0 / 2.0)
        with pytest.raises(DataError):
            r2_score(np.ones(3), p)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(53)
        x, y = _linear_problem(rng, 80, 3)
        model, _ = train(x[:60], y[:60], x[60:], y[60:], (5, 4), train_config(epochs=2, seed=7))
        path = tmp_path / "model.hfm"
        save_model(model, path)
        back = load_model(path)
        assert back.layer_sizes == model.layer_sizes
        assert back.best_epoch == model.best_epoch
        assert back.rng_seed == model.rng_seed
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(back.norm_stats.mean, model.norm_stats.mean)
        assert np.array_equal(back.norm_stats.variance, model.norm_stats.variance)

    def test_round_trip_gives_back_the_widened_float32_values(self, tmp_path):
        rng = np.random.default_rng(71)
        x, y = _linear_problem(rng, 120, 6)
        model, _ = train(x[:100], y[:100], x[100:], y[100:], (16, 8), train_config(epochs=4))
        path = tmp_path / "model.hfm"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            assert b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
        # the layers the target scale is not folded into are float32 values
        for a in back.weights[:-1] + back.biases[:-1]:
            assert a.astype(np.float32).astype(np.float64).tobytes() == a.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        model = init_model((3, 4, 1), seed=11)
        save_model(model, tmp_path / "a.hfm")
        save_model(model, tmp_path / "b.hfm")
        assert (tmp_path / "a.hfm").read_bytes() == (tmp_path / "b.hfm").read_bytes()

    def test_without_norm_stats(self, tmp_path):
        model = init_model((2, 3, 1), seed=1)
        path = tmp_path / "raw.hfm"
        save_model(model, path)
        assert load_model(path).norm_stats is None

    def test_bad_files_rejected(self, tmp_path):
        junk = tmp_path / "junk.hfm"
        junk.write_bytes(b"not a checkpoint at all\n")
        with pytest.raises(DataError):
            load_model(junk)
        model = init_model((2, 2, 1), seed=0)
        good = tmp_path / "good.hfm"
        save_model(model, good)
        truncated = tmp_path / "short.hfm"
        truncated.write_bytes(good.read_bytes()[:-9])
        with pytest.raises(DataError):
            load_model(truncated)
        padded = tmp_path / "padded.hfm"
        padded.write_bytes(good.read_bytes() + b"x")
        with pytest.raises(DataError):
            load_model(padded)


    @pytest.mark.parametrize(
        "header",
        [
            b"{}",
            b"[]",
            b'{"best_epoch": 0, "layer_sizes": [2], "normalized": true, "rng_seed": 0}',
            b'{"best_epoch": 0, "layer_sizes": [2, 2.0, 1], "normalized": true, "rng_seed": 0}',
            b'{"best_epoch": 0, "layer_sizes": [2, true, 1], "normalized": true, "rng_seed": 0}',
            b'{"best_epoch": 0, "layer_sizes": [2, 0, 1], "normalized": true, "rng_seed": 0}',
            b'{"best_epoch": 0, "layer_sizes": [2, 2, 1], "normalized": 1, "rng_seed": 0}',
            b'{"best_epoch": "0", "layer_sizes": [2, 2, 1], "normalized": true, "rng_seed": 0}',
            b'{"best_epoch": 0, "layer_sizes": [2, 2, 1], "normalized": true, "rng_seed": 0.5}',
            b'{"best_epoch": 0, "layer_sizes": [99999999999, 99999999999], "normalized": true,'
            b' "rng_seed": 0}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
    )
    def test_bad_header_rejected_naming_the_file(self, tmp_path, header):
        path = tmp_path / "model.hfm"
        save_model(init_model((2, 2, 1), seed=0), path)
        magic, _, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, header, payload]))
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            load_model(path)


class TestTrainingLogCsv:
    def test_round_trip(self, tmp_path):
        logbook = [EpochLog(0, 5.5, 6.25), EpochLog(1, 4.125, 5.0)]
        path = tmp_path / "log.csv"
        write_training_log_csv(path, logbook)
        table = read_table(path, ("epoch",), floats=("train_rmse", "val_rmse"))
        back = [
            EpochLog(epoch, *rmse)
            for (epoch,), rmse in zip(table.ints("epoch"), table.floats.tolist())
        ]
        assert back == logbook


class TestRecordsToArrays:
    """The records table hands ``train`` and ``evaluate`` their arrays as columns."""

    def test_stacking(self):
        rows = _fake_rows(np.random.default_rng(59), n_plots=3, per_plot=2, k=4)
        records = _fake_records(np.random.default_rng(59), n_plots=3, per_plot=2, k=4)
        x, y, ids = records.features, records.yields, records.plot_ids
        assert x.shape == (6, 4)
        assert y.shape == (6,)
        assert ids[0] == "p000"
        assert x[3] == pytest.approx(rows[3][5])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Records.concat([])
