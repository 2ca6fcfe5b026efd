"""Acceptance gates for the whole package.

Each test enforces one release criterion at its stated tolerance and prints
a single PASS line with its evidence (run pytest with ``-s`` to see them all;
a failing criterion shows up as an ordinary test failure).
"""

import json
import time

import numpy as np
import pytest

from sparsetuple.cli import main
from sparsetuple.dataio import serialize_svmlight
from sparsetuple.hyperloss import (
    argmax_F_oracle,
    flip_coefficients,
    loss_gradient_w,
    point_scores,
    predict,
    upper_bound,
)
from sparsetuple.measures import MeasureKind, UndefinedTupleLossError, tuple_loss
from sparsetuple.sparse_coding import (
    code_gradient_batch,
    dual_ascent_alphas,
    smoothing_weights,
    solve_dictionary,
)
from sparsetuple.trainer import TrainConfig, fit

from conftest import (
    ALL_KINDS,
    argmax_F_bruteforce,
    central_difference,
    exhaustive_label_tuples,
    lagrangian_gradient,
    make_gaussian_dataset,
    random_instance,
)


def report(criterion: int, name: str, detail: str) -> None:
    print(f"[criterion {criterion}] {name}: PASS ({detail})", flush=True)


def test_criterion_1_upper_bound_dominates_loss():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    violations = 0
    per_kind = 1000
    for kind in ALL_KINDS:
        checked = 0
        attempts = 0
        while checked < per_kind:
            attempts += 1
            assert attempts < 50 * per_kind, "instance sampling stalled"
            w, codes, labels = random_instance(rng, kind)
            predicted = predict(w, codes)
            try:
                loss = tuple_loss(kind, labels, predicted)
            except UndefinedTupleLossError:
                continue  # PRBEP loss only exists on its fp == fn slice
            bound = upper_bound(w, codes, labels, kind)
            if bound < loss:
                violations += 1
            checked += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 10.0
    report(1, "upper bound dominates loss", f"3x{per_kind} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    started = time.perf_counter()
    mismatches = 0
    worst = 0.0
    per_kind = 500
    for kind in ALL_KINDS:
        for _ in range(per_kind):
            w, codes, labels = random_instance(rng, kind)
            brute = argmax_F_bruteforce(w, codes, labels, kind)
            fast = argmax_F_oracle(w, codes, labels, kind)
            difference = abs(brute.max_value - fast.max_value)
            worst = max(worst, difference)
            if difference > 1e-9:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0
    report(2, "oracle equivalence",
           f"3x{per_kind} instances, worst diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_fidelity():
    rng = np.random.default_rng(1003)
    worst_code = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        D = rng.uniform(-1, 1, (d, m))
        x = rng.uniform(-1, 1, d)
        s = rng.uniform(-1, 1, m)
        u = smoothing_weights(rng.uniform(-1, 1, m), 1e-8)
        c1 = float(rng.uniform(0, 0.5))
        loss_term = rng.uniform(-1, 1, m)

        def coding_objective(v):
            r = x - D @ v
            return float(r @ r + c1 * v @ (u * v) + loss_term @ v)

        analytic = code_gradient_batch(
            D, x[:, None], s[:, None], u[:, None], c1, loss_term[:, None]
        )[:, 0]
        numeric = central_difference(coding_objective, s, h=1e-5)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst_code = max(worst_code, rel)
        assert rel <= 1e-5

    worst_w = 0.0
    for _ in range(100):
        kind = ALL_KINDS[int(rng.integers(0, 3))]
        w, codes, labels = random_instance(rng, kind)
        c2 = float(rng.uniform(0, 1))
        c3 = float(rng.uniform(0, 2))
        frozen = argmax_F_bruteforce(w, codes, labels, kind).maximizers

        def bound_objective(v):
            total = 0.5 * c2 * float(v @ v)
            for cand in frozen:
                linear = float((cand - labels) @ (v @ codes))
                total += (c3 / len(frozen)) * (linear + tuple_loss(kind, labels, cand))
            return total

        analytic = loss_gradient_w(w, codes, flip_coefficients(labels, frozen, c3), c2)
        numeric = central_difference(bound_objective, w, h=1e-5)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst_w = max(worst_w, rel)
        assert rel <= 1e-5
    report(3, "gradient fidelity",
           f"100+100 instances, worst rel err code {worst_code:.2e} / w {worst_w:.2e}")


def test_criterion_4_dictionary_optimality():
    rng = np.random.default_rng(1004)
    worst_residual = 0.0
    worst_violation = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(20, 51))
        X = 3.0 * rng.uniform(-1, 1, (d, n))
        S = rng.uniform(-1, 1, (m, n))
        alphas = rng.uniform(0.05, 1.0, m)
        D = solve_dictionary(X, S, alphas)
        residual = float(np.abs(lagrangian_gradient(X, S, alphas, D)).max())
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-8

        converged_alphas, converged, _ = dual_ascent_alphas(
            X, S, 1.0, np.full(m, 1e-3), steps=4000
        )
        assert converged
        D = solve_dictionary(X, S, converged_alphas)
        violation = float(np.maximum(np.sum(D * D, axis=0) - 1.0, 0.0).max())
        worst_violation = max(worst_violation, violation)
        assert violation <= 1e-4
    report(4, "dictionary optimality",
           f"100 instances, worst residual {worst_residual:.2e}, "
           f"worst cap violation {worst_violation:.2e}")


def test_criterion_5_smoothing_identity():
    rng = np.random.default_rng(1005)
    eps = 1e-8
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        magnitudes = rng.uniform(10 * eps, 10.0, m)
        s = magnitudes * rng.choice([-1.0, 1.0], m)
        u = smoothing_weights(s, eps)
        error = abs(float(s @ (u * s)) - float(np.abs(s).sum()))
        worst = max(worst, error)
        assert error <= 1e-12
    report(5, "smoothing identity", f"200 vectors, worst error {worst:.2e}")


def test_criterion_6_prediction_decomposition():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        w, codes, _ = random_instance(rng, MeasureKind.F1)
        n = codes.shape[1]
        tuples = exhaustive_label_tuples(n)
        best = (tuples.astype(float) @ (w @ codes)).max()
        predicted = predict(w, codes)
        assert point_scores(w, codes) @ predicted == pytest.approx(best, abs=1e-12)
    # constructed zero-score ties resolve to +1
    np.testing.assert_array_equal(predict(np.zeros(3), np.ones((3, 4))), np.ones(4))
    codes = np.array([[1.0, 0.0], [0.5, 0.0]])
    np.testing.assert_array_equal(predict(np.array([1.0, -2.0]), codes), [1, 1])
    report(6, "prediction decomposition", "1000 instances + tie cases")


@pytest.fixture(scope="module")
def gate_file(tmp_path_factory):
    dataset = make_gaussian_dataset(seed=12345, n=200, d=10, separation=1.5)
    path = tmp_path_factory.mktemp("gate") / "gate.svm"
    path.write_text(serialize_svmlight(dataset))
    return path, dataset


GATE_FLAGS = [
    "--measure", "f1", "--c1", "0.1", "--c2", "0.01", "--c3", "1.0",
    "--iters", "100", "--eta", "0.01", "--dict-size", "20", "--k", "10",
    "--seed", "7",
]


def test_criterion_7_end_to_end_gate(gate_file, tmp_path):
    path, _ = gate_file
    out = tmp_path / "gate_report.json"
    rc = main(["cv", "--data", str(path), "--out", str(out)] + GATE_FLAGS)
    assert rc == 0
    summary = json.loads(out.read_text())
    median_f1 = summary["summary"]["f1"]["median"]
    median_auc = summary["summary"]["auc"]["median"]
    fold_seconds = [row["seconds"] for row in summary["folds"]]
    assert median_f1 >= 0.90
    assert median_auc >= 0.95
    assert all(seconds < 60.0 for seconds in fold_seconds)
    report(7, "end-to-end synthetic gate",
           f"median F1 {median_f1:.3f}, median AUC {median_auc:.3f}, "
           f"slowest fold {max(fold_seconds):.1f}s")


def test_criterion_8_objective_decreases(gate_file):
    _, dataset = gate_file
    decreasing = 0
    for seed in range(10):
        config = TrainConfig(
            c1=0.1, c2=0.01, c3=1.0, eta=0.01, iters=10, dict_size=20, seed=seed
        )
        model = fit(dataset, config)
        if model.trace[9].objective < model.trace[0].objective:
            decreasing += 1
    assert decreasing >= 9
    report(8, "objective behavior", f"{decreasing}/10 seeds decrease over 10 iterations")


def test_criterion_9_cv_determinism(gate_file, tmp_path):
    path, _ = gate_file
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    flags = ["--measure", "f1", "--iters", "10", "--dict-size", "8", "--k", "10",
             "--seed", "21", "--omit-timing"]
    assert main(["cv", "--data", str(path), "--out", str(first)] + flags) == 0
    assert main(["cv", "--data", str(path), "--out", str(second)] + flags) == 0
    assert first.read_bytes() == second.read_bytes()
    report(9, "cross-validation determinism",
           f"two identical runs, {first.stat().st_size} byte reports match")
