import json
import tracemalloc

import numpy as np
import pytest

from sparsetuple import hyperloss, trainer
from sparsetuple.dataio import Dataset
from sparsetuple.hyperloss import predict
from sparsetuple.measures import DegenerateClassError, MeasureKind, tuple_loss
from sparsetuple.sparse_coding import (
    Dictionary,
    code_gradient_batch,
    smoothing_weights,
    solve_dictionary,
)
from sparsetuple.trainer import (
    Model,
    ModelFormatError,
    NumericalDivergenceError,
    TrainConfig,
    encode,
    fit,
    initialize,
    load_model,
    save_model,
)

from conftest import MODEL_V1, MODEL_V2, make_gaussian_dataset


# Config keys of earlier releases that load_model ignores.
RETIRED = {"tie_policy", "encode_iters", "dual_rate", "eta_backoff", "eps", "dual_steps"}


def small_dataset(seed=0, n=40, d=5):
    return make_gaussian_dataset(seed=seed, n=n, d=d)


def fit_with_codes(data, config):
    """``fit``'s model and the code matrix its run ends with.

    Nothing changes the codes after the last multiplier ascent, so a copy of
    the ``S`` that ascent receives is the final code matrix.
    """
    ascent = trainer.sparse_coding.dual_ascent_alphas
    last = []

    def recording(X, S, *args):
        last[:] = [S.copy()]
        return ascent(X, S, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer.sparse_coding, "dual_ascent_alphas", recording)
        model = fit(data, config)
    return model, last[0]


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.measure is MeasureKind.F1
        assert cfg.dict_size is None

    def test_measure_accepts_string(self):
        assert TrainConfig(measure="auc").measure is MeasureKind.AUC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c1": -0.1},
            {"eta": 0.0},
            {"iters": 0},
            {"dict_size": 0},
            {"norm_cap": 0.0},
            {"iters": -1},
            {"iters": 2.5},
            {"iters": 3.0},
            {"dict_size": 4.0},
            {"seed": "7"},
            {"seed": -1},
            {"iters": True},
            {"eta": float("nan")},
            {"norm_cap": float("inf")},
            {"c1": "0.1"},
            {"measure": 3},
            {"c2": -1.0},
            {"c3": -1.0},
            {"c1": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_retired_knob_is_not_a_field(self):
        with pytest.raises(TypeError):
            TrainConfig(eta_backoff=True)

    def test_dict_size_default_resolution(self):
        assert TrainConfig().resolved_dict_size(n=100, d=10) == 20
        assert TrainConfig().resolved_dict_size(n=8, d=10) == 8
        assert TrainConfig(dict_size=5).resolved_dict_size(n=100, d=10) == 5


class TestInitialize:
    def test_columns_hit_norm_cap_exactly(self):
        ds = small_dataset()
        cfg = TrainConfig(dict_size=6, norm_cap=2.5, seed=1)
        dic, _, _ = initialize(ds, cfg)
        norms_sq = np.sum(dic.elements**2, axis=0)
        np.testing.assert_allclose(norms_sq, 2.5, atol=1e-12)

    def test_same_seed_same_init(self):
        ds = small_dataset()
        cfg = TrainConfig(dict_size=6, seed=3)
        a = initialize(ds, cfg)
        b = initialize(ds, cfg)
        np.testing.assert_array_equal(a[0].elements, b[0].elements)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_ridge_init_recovers_dictionary_column(self):
        # orthogonal data points: each becomes a dictionary column, and the
        # near-zero ridge brings its own code back to a scaled one-hot
        features = 3.0 * np.eye(4)
        ds = Dataset(features, np.array([1, 1, -1, -1]))
        cfg = TrainConfig(dict_size=4, c1=1e-12, seed=5)
        dic, codes, _ = initialize(ds, cfg)
        for i in range(4):
            reconstructed = dic.elements @ codes[:, i]
            np.testing.assert_allclose(reconstructed, features[i], atol=1e-6)

    def test_sampled_zero_rows_are_replaced_before_the_rescale(self):
        # m = n samples every row, so the three zero rows must each become a
        # random column before the rescale would divide by a zero norm
        features = np.zeros((4, 3))
        features[2] = [1.0, -2.0, 0.5]
        ds = Dataset(features, np.array([1, -1, 1, -1]))
        cfg = TrainConfig(dict_size=4, norm_cap=2.5)
        dic, codes, _ = initialize(ds, cfg)
        np.testing.assert_allclose(np.sum(dic.elements**2, axis=0), 2.5, atol=1e-12)
        assert np.all(np.isfinite(codes))

    def test_oversized_dictionary_samples_with_replacement(self):
        ds = small_dataset(n=4, d=3)
        cfg = TrainConfig(dict_size=9, seed=7)
        dic, _, _ = initialize(ds, cfg)
        assert dic.m == 9

    def test_pinned_stream(self):
        # random.Random(7): sample (choices when m > n), then uniform weights.
        # A Python release that changes either fails here first.  No row is
        # zero, so no gauss draw is made: its values depend on the libm.
        features = np.array([[i + 1.0, (i * i) % 5 - 2.0] for i in range(8)])
        ds = Dataset(features, np.array([1, -1] * 4))

        def sampled(m, rows):
            dic, _, weights = initialize(ds, TrainConfig(dict_size=m, seed=7))
            chosen = features[rows]
            np.testing.assert_allclose(
                dic.elements, (chosen / np.linalg.norm(chosen, axis=1, keepdims=True)).T,
                rtol=1e-15)
            return weights.tolist()

        sampled(11, [2, 1, 5, 0, 4, 2, 0, 4, 0, 3, 0])
        assert sampled(5, [5, 1, 3, 0, 4]) == [
            0.006425485839826167, -0.00811739916120635, 0.0016557601180671021,
            0.008194081262862045, -0.0057060363832867654]

    def test_starting_codes_are_the_test_time_codes(self):
        # training and test codes come from one map: the starting codes are
        # encode of the training features under the initial dictionary
        ds = small_dataset(n=60, d=7)
        cfg = TrainConfig(dict_size=9, c1=0.3, seed=2)
        dic, codes, _ = initialize(ds, cfg)
        np.testing.assert_array_equal(codes, encode(dic, ds.features, cfg))


class TestFit:
    def test_trace_has_one_entry_per_iteration(self):
        model = fit(small_dataset(), TrainConfig(iters=7, dict_size=5, seed=1))
        assert len(model.trace) == 7

    def test_bitwise_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(iters=12, dict_size=5, seed=9)
        a, codes_a = fit_with_codes(ds, cfg)
        b, codes_b = fit_with_codes(ds, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.dictionary.elements, b.dictionary.elements)
        np.testing.assert_array_equal(a.dictionary.multipliers, b.dictionary.multipliers)
        np.testing.assert_array_equal(codes_a, codes_b)
        assert a.trace == b.trace

    def test_update_order_follows_algorithm(self):
        events = []
        fit(
            small_dataset(),
            TrainConfig(iters=3, dict_size=4, seed=2),
            observer=lambda stage, t: events.append((stage, t)),
        )
        expected = []
        for t in range(3):
            expected += [("dictionary", t), ("codes", t), ("weights", t), ("multipliers", t)]
        assert events == expected

    def test_each_stage_fires_where_its_work_ends(self, monkeypatch):
        # codes: after the code step, before the weight step's scoring oracle;
        # weights: after that oracle
        events = []
        for module, name in ((trainer.sparse_coding, "code_gradient_batch"),
                             (hyperloss, "argmax_F_oracle")):
            def recording(*args, _work=getattr(module, name), _name=name):
                events.append(_name)
                return _work(*args)

            monkeypatch.setattr(module, name, recording)
        fit(small_dataset(), TrainConfig(iters=2, dict_size=4, seed=2),
            observer=lambda stage, t: events.append(stage))
        iteration = ["dictionary", "code_gradient_batch", "codes", "argmax_F_oracle", "weights",
                     "multipliers"]
        assert events == ["argmax_F_oracle"] + 2 * iteration

    def test_c3_zero_decouples_labels_and_shrinks_weights(self):
        ds = small_dataset()
        cfg = TrainConfig(iters=20, dict_size=5, seed=4, c3=0.0)
        model, codes = fit_with_codes(ds, cfg)
        flipped = Dataset(ds.features, -ds.labels)
        model_flipped, codes_flipped = fit_with_codes(flipped, cfg)
        # codes and dictionary never see the labels when the loss weight is 0
        np.testing.assert_array_equal(codes, codes_flipped)
        np.testing.assert_array_equal(
            model.dictionary.elements, model_flipped.dictionary.elements
        )
        # weights decay geometrically under the complexity term alone
        _, _, w0 = initialize(ds, cfg)
        expected = w0 * (1.0 - cfg.eta * cfg.c2) ** cfg.iters
        np.testing.assert_allclose(model.weights, expected, rtol=1e-12)

    def test_trace_surrogate_bounds_prediction_loss_each_iteration(self):
        ds = small_dataset(n=30, d=4)
        for iters in (1, 2, 4, 6):
            cfg = TrainConfig(iters=iters, dict_size=4, seed=6)
            model, codes = fit_with_codes(ds, cfg)
            loss = tuple_loss(MeasureKind.F1, ds.labels, predict(model.weights, codes))
            assert model.trace[-1].surrogate >= loss

    def test_objective_composition(self):
        model = fit(small_dataset(), TrainConfig(iters=5, dict_size=4, seed=8))
        cfg = model.config
        for entry in model.trace:
            expected = (
                entry.reconstruction
                + cfg.c1 * entry.sparsity
                + cfg.c2 * entry.complexity
                + cfg.c3 * entry.surrogate
            )
            assert entry.objective == pytest.approx(expected, rel=1e-12)

    def test_degenerate_class_rejected_for_rank_measures(self):
        features = np.random.default_rng(10).normal(size=(6, 3))
        ds = Dataset(features, np.ones(6, dtype=int))
        for measure in ("prbep", "auc"):
            with pytest.raises(DegenerateClassError, match="degenerate class"):
                fit(ds, TrainConfig(measure=measure, iters=2, dict_size=3))
        fit(ds, TrainConfig(measure="f1", iters=2, dict_size=3))  # F1 is fine

    def test_divergence_reports_iteration(self):
        ds = small_dataset()
        cfg = TrainConfig(iters=200, dict_size=5, eta=1e6, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalDivergenceError, match="iteration") as info:
                fit(ds, cfg)
        assert info.value.iteration >= 0

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 1.1e140, -1.1e140, 1.0000001e140, -1.0000001e140]
    )
    def test_non_finite_or_overflowing_arrays_diverge(self, bad):
        # anywhere in the matrix, among entries at the limit that pass
        for index in np.ndindex(3, 4):
            arr = np.zeros((3, 4))
            arr[0], arr[2] = 1e140, -1e140
            trainer._ensure_finite(5, np.ones(2), arr)
            arr[index] = bad
            with pytest.raises(NumericalDivergenceError, match="at iteration 5$"):
                trainer._ensure_finite(5, np.ones(2), arr)

    def test_non_finite_initial_dictionary_diverges_at_iteration_0(self, monkeypatch):
        # the first dictionary is checked once, before any iteration runs;
        # later ones are checked where the ascent returns them
        def poisoned(*args):
            elements = solve_dictionary(*args)
            elements[0, 0] = np.nan
            return elements

        monkeypatch.setattr(trainer.sparse_coding, "solve_dictionary", poisoned)
        stages = []
        with pytest.raises(NumericalDivergenceError, match="at iteration 0$"):
            fit(small_dataset(), TrainConfig(iters=3, dict_size=4),
                observer=lambda stage, iteration: stages.append(stage))
        assert stages == []

    def test_magnitudes_up_to_the_overflow_limit_pass(self):
        trainer._ensure_finite(0, np.array([1e140, -1e140]), np.empty((0, 3)))

    @pytest.mark.parametrize("m", [40, 120])
    def test_peak_memory_is_at_most_two_code_matrices(self, m):
        # The codes plus block-wide buffers: the code step and the objective's
        # sums run over column blocks, so no other array of the codes' size is
        # allocated (d = 20 < m, so no d-by-n array outweighs one either).
        ds = make_gaussian_dataset(n=6000, d=20)
        tracemalloc.start()
        try:
            fit(ds, TrainConfig(iters=3, dict_size=m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * 6000 * 8

    def test_blocked_code_step_matches_the_whole_array_step(self):
        # n = 2.5 blocks: two full blocks and a half one.  A code's gradient
        # reads its own column only, so the blocks give the whole-array step
        # up to the rounding a BLAS build may apply to a block.
        n = 5 * trainer._BLOCK_COLUMNS // 2
        ds = make_gaussian_dataset(seed=3, n=n, d=6)
        config = TrainConfig(iters=1, dict_size=9, seed=5)
        _, stepped = fit_with_codes(ds, config)

        dictionary, codes, weights = initialize(ds, config)
        X = ds.features.T
        elements = solve_dictionary(X, codes, dictionary.multipliers)
        result = hyperloss.argmax_F_oracle(weights, codes, ds.labels, config.measure)
        coefficients = hyperloss.flip_coefficients(ds.labels, result.maximizers, config.c3)
        reweighting = smoothing_weights(codes, trainer._REWEIGHT_FLOOR)
        grads = code_gradient_batch(elements, X, codes, reweighting, config.c1,
                                    np.outer(weights, coefficients))
        expected = codes - config.eta * grads
        np.testing.assert_allclose(stepped, expected, rtol=1e-14,
                                   atol=1e-14 * np.abs(expected).max())

    def test_blocked_objective_sums_match_the_whole_array_sums(self):
        rng = np.random.default_rng(17)
        d, m, n = 6, 9, 5 * trainer._BLOCK_COLUMNS // 2
        X, D, S = rng.normal(size=(d, n)), rng.normal(size=(d, m)), rng.normal(size=(m, n))
        ds = make_gaussian_dataset(n=n, d=d)
        width = trainer._BLOCK_COLUMNS
        entry, _ = trainer._objective_entry(X, D, S, rng.normal(size=m), ds.labels,
                                            TrainConfig(), np.empty((d, width)),
                                            np.empty((m, width)))
        np.testing.assert_allclose(entry.reconstruction, np.sum((X - D @ S) ** 2), rtol=1e-12)
        np.testing.assert_allclose(entry.sparsity, np.abs(S).sum(), rtol=1e-12)

    def test_oracle_runs_once_per_iteration(self, monkeypatch):
        # the argmax that scores iteration t's end is the one t + 1 starts from
        calls = []
        oracle = hyperloss.argmax_F_oracle

        def counting(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(hyperloss, "argmax_F_oracle", counting)
        fit(small_dataset(), TrainConfig(iters=6, dict_size=4, seed=5))
        assert len(calls) == 6 + 1

    @pytest.mark.parametrize(
        "data, config",
        [
            (make_gaussian_dataset(),
             TrainConfig(c1=0.1, c2=0.01, c3=1.0, eta=0.01, iters=100, dict_size=20, seed=7)),
            (make_gaussian_dataset(seed=5, n=300, d=8, separation=0.3, n_pos=60),
             TrainConfig(iters=6)),
        ],
        ids=["gate", "imbalanced"],
    )
    def test_saved_dictionary_is_the_one_its_multipliers_define(self, data, config):
        # The imbalanced case missed the cap in 6 of 6 fixed-rate ascents.
        model, codes = fit_with_codes(data, config)
        assert all(model.ascent_converged)
        elements = model.dictionary.elements
        assert np.sum(elements * elements, axis=0).max() <= config.norm_cap + 1e-6
        expected = solve_dictionary(data.features.T, codes, model.dictionary.multipliers)
        np.testing.assert_allclose(elements, expected, rtol=0, atol=1e-10)

    def test_rank_limited_least_squares_optimum(self):
        # with no sparsity or loss terms, one dictionary solve plus a code
        # least-squares matches the best rank-m fit computed from the SVD
        rng = np.random.default_rng(11)
        for d, n, m in ((4, 3, 3), (3, 5, 3), (5, 5, 2)):
            if m < min(d, n):
                X = rng.normal(size=(d, m)) @ rng.normal(size=(m, n))  # rank <= m
            else:
                X = rng.normal(size=(d, n))
            S0 = rng.normal(size=(m, n))
            D = solve_dictionary(X, S0, np.zeros(m))
            codes = np.linalg.lstsq(D, X, rcond=None)[0]
            achieved = float(np.sum((X - D @ codes) ** 2))
            singular = np.linalg.svd(X, compute_uv=False)
            optimum = float(np.sum(singular[m:] ** 2))
            assert achieved == pytest.approx(optimum, abs=1e-9)


class TestEncode:
    def test_ridge_stationarity(self):
        # the codes minimize ||x - D s||^2 + c1 ||s||^2, so its gradient vanishes
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 6))
            c1 = float(rng.uniform(0.01, 2.0))
            D = rng.normal(size=(d, m))
            X = rng.normal(size=(d, n))
            codes = encode(Dictionary(D, 1.0, np.zeros(m)), X.T, TrainConfig(c1=c1))
            terms = (2.0 * D.T @ D @ codes, -2.0 * D.T @ X, 2.0 * c1 * codes)
            scale = sum(np.linalg.norm(term) for term in terms)
            assert np.linalg.norm(sum(terms)) <= 1e-10 * scale

    @pytest.mark.parametrize("c1", [0.0, 1e-17])
    def test_codes_below_rounding_level_are_the_minimum_norm_codes(self, c1):
        # D'D of a 10-by-20 dictionary has rank 10 but is singular only up
        # to rounding, so an LU solve meets no zero pivot and returns noise;
        # the codes must be the c1 -> 0 limit pinv(D) x
        rng = np.random.default_rng(59)
        D = rng.normal(size=(10, 20))
        X = rng.normal(size=(10, 7))
        codes = encode(Dictionary(D, 1.0, np.zeros(20)), X.T, TrainConfig(c1=c1))
        expected = np.linalg.pinv(D) @ X
        assert np.linalg.norm(codes - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_singular_fallback_reconstructs_exactly(self):
        # c1 = 0 with a duplicated column and a zero row makes D'D exactly
        # singular (an LU solve raises on it; 0/1 entries keep the
        # elimination exact on any LAPACK); the least-squares codes still
        # reconstruct every point inside the span of D
        D = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(D.T @ D, D.T @ np.ones(3))
        x = np.random.default_rng(47).normal(size=(3, 5))
        x[2] = 0.0  # inside the span of D
        codes = encode(Dictionary(D, 1.0, np.zeros(4)), x.T, TrainConfig(c1=0.0))
        np.testing.assert_allclose(D @ codes, x, rtol=0, atol=1e-12)

    def test_peak_memory_is_the_codes_plus_the_projection(self):
        # the m-by-n codes and the m-by-d projection; no m-by-n right-hand
        # side, nor a solver's copy of one
        n, d, m = 8000, 20, 40
        rng = np.random.default_rng(53)
        dictionary = Dictionary(rng.normal(size=(d, m)), 1.0, np.zeros(m))
        features = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            encode(dictionary, features, TrainConfig(c1=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * m * (n + d) * 8

    def test_zero_input_gives_zero_code(self):
        ds = small_dataset()
        model = fit(ds, TrainConfig(iters=3, dict_size=4, seed=1))
        codes = encode(model.dictionary, np.zeros((1, ds.d)), model.config)
        np.testing.assert_array_equal(codes, np.zeros((4, 1)))

    def test_deterministic(self):
        ds = small_dataset()
        model = fit(ds, TrainConfig(iters=3, dict_size=4, seed=1))
        a = encode(model.dictionary, ds.features, model.config)
        b = encode(model.dictionary, ds.features, model.config)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        ds = small_dataset()
        model = fit(ds, TrainConfig(iters=2, dict_size=4, seed=1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            encode(model.dictionary, np.ones((2, ds.d + 1)), model.config)


class TestSerialization:
    def make_model(self):
        return fit(small_dataset(), TrainConfig(iters=4, dict_size=4, seed=2))

    def test_round_trip_exact(self):
        model = self.make_model()
        blob = save_model(model)
        again = load_model(blob)
        np.testing.assert_array_equal(again.weights, model.weights)
        np.testing.assert_array_equal(again.dictionary.elements, model.dictionary.elements)
        np.testing.assert_array_equal(
            again.dictionary.multipliers, model.dictionary.multipliers
        )
        assert again.config == model.config
        assert again.trace == model.trace

    def test_save_load_save_identical_bytes(self):
        model = self.make_model()
        blob = save_model(model)
        assert save_model(load_model(blob)) == blob

    def test_version_mismatch(self):
        document = json.loads(save_model(self.make_model()).decode())
        document["schema_version"] = 3
        with pytest.raises(ModelFormatError, match="schema_version"):
            load_model(json.dumps(document).encode())

    def test_version_2_with_retired_key_loads_and_resaves_without_it(self):
        blob = MODEL_V2.read_bytes()
        assert json.loads(blob)["config"]["encode_iters"] == 100
        model = load_model(blob)
        assert (model.dictionary.d, model.dictionary.m, len(model.trace)) == (3, 4, 3)
        resaved = save_model(model)
        assert "encode_iters" not in json.loads(resaved)["config"]
        assert save_model(load_model(resaved)) == resaved

    def test_retired_training_knobs_do_not_change_scores(self):
        document = json.loads(MODEL_V2.read_bytes())
        knobs = {"eta_backoff": True, "eps": 0.5, "dual_steps": 3}
        without = {k: v for k, v in document["config"].items() if k not in RETIRED}
        features = np.array([[1.5, 0.5, 1.0], [-1.0, 0.0, -2.0], [0.0, 2.0, 0.0]])
        scores = []
        for config in ({**document["config"], **knobs}, without):
            model = load_model(json.dumps({**document, "config": config}).encode())
            codes = encode(model.dictionary, features, model.config)
            scores.append(hyperloss.point_scores(model.weights, codes))
            assert not RETIRED & set(json.loads(save_model(model))["config"])
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_unknown_config_key_rejected(self):
        for blob in (save_model(self.make_model()), MODEL_V1.read_bytes()):
            document = json.loads(blob)
            document["config"]["bogus"] = 1
            with pytest.raises(ModelFormatError, match="bogus"):
                load_model(json.dumps(document).encode())

    def test_version_1_loads_and_resaves_as_version_2(self):
        blob = MODEL_V1.read_bytes()
        assert json.loads(blob)["schema_version"] == 1
        model = load_model(blob)
        assert (model.dictionary.d, model.dictionary.m, len(model.trace)) == (3, 4, 3)
        resaved = save_model(model)
        document = json.loads(resaved)
        assert document["schema_version"] == 2
        assert not {"m", "c", "measure"} & set(document)
        again = load_model(resaved)
        np.testing.assert_array_equal(again.dictionary.elements, model.dictionary.elements)
        np.testing.assert_array_equal(again.dictionary.multipliers, model.dictionary.multipliers)
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.config == model.config
        assert again.trace == model.trace

    def test_truncated_stream(self):
        blob = save_model(self.make_model())
        with pytest.raises(ModelFormatError, match="not a valid model"):
            load_model(blob[: len(blob) // 2])

    def test_non_object_document_rejected(self):
        with pytest.raises(ModelFormatError, match="must be a JSON object"):
            load_model(b"[1, 2, 3]")

    def test_alphas_length_mismatch(self):
        document = json.loads(save_model(self.make_model()).decode())
        document["alphas"] = document["alphas"][:-1]
        with pytest.raises(ModelFormatError, match="need one multiplier per dictionary element"):
            load_model(json.dumps(document).encode())

    def test_trace_entry_with_other_keys_rejected(self):
        document = json.loads(save_model(self.make_model()).decode())
        document["trace"][1]["loss"] = document["trace"][1].pop("surrogate")
        with pytest.raises(ModelFormatError, match="trace entry 1 must have keys"):
            load_model(json.dumps(document).encode())

    def test_weights_length_mismatch(self):
        document = json.loads(save_model(self.make_model()).decode())
        document["weights"] = document["weights"][:-1]
        with pytest.raises(ModelFormatError, match="weights length"):
            load_model(json.dumps(document).encode())

    def test_dictionary_size_mismatch(self):
        document = json.loads(save_model(self.make_model()).decode())
        document["dictionary"] = document["dictionary"][:-1]
        with pytest.raises(ModelFormatError, match="dictionary"):
            load_model(json.dumps(document).encode())

    def test_missing_field(self):
        document = json.loads(save_model(self.make_model()).decode())
        del document["alphas"]
        with pytest.raises(ModelFormatError, match="missing"):
            load_model(json.dumps(document).encode())
        # the config block is now the only record of the dictionary size
        document = json.loads(save_model(self.make_model()).decode())
        document["config"]["dict_size"] = None
        with pytest.raises(ModelFormatError, match="dict_size"):
            load_model(json.dumps(document).encode())

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("dictionary", 0), "x", "dictionary must be a list of numbers"),
            (("dictionary", 0), True, "dictionary must be a list of numbers"),
            (("weights", 0), float("nan"), "weights must hold finite"),
            (("alphas", 0), 10**400, "alphas must hold finite"),
            (("alphas", 0), -1.0, "multipliers must be nonnegative"),
            (("trace", 0, "objective"), [1.0], "trace entry 0 must be a list of numbers"),
            (("trace", 1, "surrogate"), float("inf"), "trace entry 1 must hold finite"),
            (("trace",), 3, "trace must be a list"),
            (("d",), "three", "d must be a positive integer"),
            (("d",), 2.5, "d must be a positive integer"),
            (("schema_version",), True, "schema_version"),
            (("config", "iters"), 2.5, "iters must be an integer"),
            (("config", "eta"), float("nan"), "eta must be a finite number"),
        ],
        ids=["dictionary-str", "dictionary-bool", "weights-nan", "alphas-huge-int",
             "alphas-negative", "trace-list", "trace-inf", "trace-not-list", "d-str",
             "d-float", "version-bool", "iters-float", "eta-nan"],
    )
    def test_malformed_number_rejected(self, path, value, message):
        document = json.loads(save_model(self.make_model()).decode())
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelFormatError, match=message):
            load_model(json.dumps(document).encode())

    def test_model_validates_weight_shape(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="does not match"):
            Model(model.dictionary, np.ones(model.dictionary.m + 1), model.config, model.trace)
