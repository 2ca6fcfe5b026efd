import json

import numpy as np
import pytest

from sparsetuple import hyperloss
from sparsetuple.dataio import Dataset
from sparsetuple.hyperloss import predict
from sparsetuple.measures import DegenerateClassError, MeasureKind, tuple_loss
from sparsetuple.sparse_coding import Dictionary, solve_dictionary
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


def small_dataset(seed=0, n=40, d=5):
    return make_gaussian_dataset(seed=seed, n=n, d=d)


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
            {"eps": 0.0},
            {"dual_rate": 0.0},
            {"dual_steps": -1},
            {"dual_steps": 2.5},
            {"iters": 3.0},
            {"dict_size": 4.0},
            {"seed": "7"},
            {"dual_steps": True},
            {"eta": float("nan")},
            {"norm_cap": float("inf")},
            {"c1": "0.1"},
            {"eta_backoff": "yes"},
            {"measure": 3},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_dict_size_default_resolution(self):
        assert TrainConfig().resolved_dict_size(n=100, d=10) == 20
        assert TrainConfig().resolved_dict_size(n=8, d=10) == 8
        assert TrainConfig(dict_size=5).resolved_dict_size(n=100, d=10) == 5


class TestInitialize:
    def test_columns_hit_norm_cap_exactly(self):
        ds = small_dataset()
        cfg = TrainConfig(dict_size=6, norm_cap=2.5)
        dic, _, _ = initialize(ds, cfg, np.random.default_rng(1))
        norms_sq = np.sum(dic.elements**2, axis=0)
        np.testing.assert_allclose(norms_sq, 2.5, atol=1e-12)

    def test_same_seed_same_init(self):
        ds = small_dataset()
        cfg = TrainConfig(dict_size=6)
        a = initialize(ds, cfg, np.random.default_rng(3))
        b = initialize(ds, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0].elements, b[0].elements)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_ridge_init_recovers_dictionary_column(self):
        # orthogonal data points: each becomes a dictionary column, and the
        # near-zero ridge brings its own code back to a scaled one-hot
        features = 3.0 * np.eye(4)
        ds = Dataset(features, np.array([1, 1, -1, -1]))
        cfg = TrainConfig(dict_size=4, c1=1e-12)
        dic, codes, _ = initialize(ds, cfg, np.random.default_rng(5))
        for i in range(4):
            reconstructed = dic.elements @ codes[:, i]
            np.testing.assert_allclose(reconstructed, features[i], atol=1e-6)

    def test_oversized_dictionary_samples_with_replacement(self):
        ds = small_dataset(n=4, d=3)
        cfg = TrainConfig(dict_size=9)
        dic, _, _ = initialize(ds, cfg, np.random.default_rng(7))
        assert dic.m == 9


class TestFit:
    def test_trace_has_one_entry_per_iteration(self):
        model = fit(small_dataset(), TrainConfig(iters=7, dict_size=5, seed=1))
        assert len(model.trace) == 7

    def test_bitwise_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(iters=12, dict_size=5, seed=9)
        a = fit(ds, cfg)
        b = fit(ds, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.dictionary.elements, b.dictionary.elements)
        np.testing.assert_array_equal(a.dictionary.multipliers, b.dictionary.multipliers)
        np.testing.assert_array_equal(a.training_codes, b.training_codes)
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

    def test_c3_zero_decouples_labels_and_shrinks_weights(self):
        ds = small_dataset()
        cfg = TrainConfig(iters=20, dict_size=5, seed=4, c3=0.0)
        model = fit(ds, cfg)
        flipped = Dataset(ds.features, -ds.labels)
        model_flipped = fit(flipped, cfg)
        # codes and dictionary never see the labels when the loss weight is 0
        np.testing.assert_array_equal(model.training_codes, model_flipped.training_codes)
        np.testing.assert_array_equal(
            model.dictionary.elements, model_flipped.dictionary.elements
        )
        # weights decay geometrically under the complexity term alone
        _, _, w0 = initialize(ds, cfg, np.random.default_rng(4))
        expected = w0 * (1.0 - cfg.eta * cfg.c2) ** cfg.iters
        np.testing.assert_allclose(model.weights, expected, rtol=1e-12)

    def test_trace_surrogate_bounds_prediction_loss_each_iteration(self):
        ds = small_dataset(n=30, d=4)
        for iters in (1, 2, 4, 6):
            cfg = TrainConfig(iters=iters, dict_size=4, seed=6)
            model = fit(ds, cfg)
            loss = tuple_loss(
                MeasureKind.F1, ds.labels, predict(model.weights, model.training_codes)
            )
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

    def test_eta_backoff_tames_oversized_steps(self):
        ds = small_dataset()
        wild = TrainConfig(iters=30, dict_size=5, eta=5.0, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalDivergenceError):
                fit(ds, wild)
        tamed = fit(ds, TrainConfig(iters=30, dict_size=5, eta=5.0, seed=3,
                                    eta_backoff=True))
        objectives = [entry.objective for entry in tamed.trace]
        assert np.all(np.isfinite(objectives))
        assert objectives[-1] <= objectives[0]

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

    def test_singular_fallback_reconstructs_exactly(self):
        # c1 = 0 with a duplicated column makes D'D singular, so the solve
        # raises and least squares takes over; 0/1 entries keep the
        # elimination exact, so the solve raises on any LAPACK
        D = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(D.T @ D, D.T @ np.ones(3))
        x = np.random.default_rng(47).normal(size=(3, 5))
        x[2] = 0.0  # inside the span of D
        codes = encode(Dictionary(D, 1.0, np.zeros(4)), x.T, TrainConfig(c1=0.0))
        np.testing.assert_allclose(D @ codes, x, rtol=0, atol=1e-12)

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
            (("config", "dual_steps"), 2.5, "dual_steps must be an integer"),
            (("config", "eta"), float("nan"), "eta must be a finite number"),
        ],
        ids=["dictionary-str", "dictionary-bool", "weights-nan", "alphas-huge-int",
             "alphas-negative", "trace-list", "trace-inf", "trace-not-list", "d-str",
             "d-float", "version-bool", "dual_steps-float", "eta-nan"],
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
