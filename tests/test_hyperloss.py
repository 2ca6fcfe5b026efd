import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetuple.hyperloss import (
    ArgmaxResult,
    argmax_F_oracle,
    flip_coefficients,
    loss_gradient_w,
    point_scores,
    predict,
    upper_bound,
)
from sparsetuple.measures import (
    DegenerateClassError,
    MeasureKind,
    UndefinedTupleLossError,
    loss_grid,
    tuple_loss,
)

from conftest import (
    ALL_KINDS,
    argmax_F_bruteforce,
    central_difference,
    exhaustive_label_tuples,
    random_instance,
)


def F(w, codes, y_true, y_cand, kind):
    """Mismatch-weighted score plus tuple loss of one candidate tuple."""
    y = np.asarray(y_true)
    cand = np.asarray(y_cand)
    return float((cand - y) @ point_scores(w, codes)) + tuple_loss(kind, y, cand)


class TestJointScore:
    """The joint score of a label tuple is ``point_scores(w, codes) @ labels``."""

    def test_all_positive_sums_scores(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=3)
        S = rng.normal(size=(3, 5))
        per_point = [float(w @ S[:, i]) for i in range(5)]
        np.testing.assert_allclose(point_scores(w, S), per_point, rtol=1e-12)
        assert point_scores(w, S) @ np.ones(5, dtype=int) == pytest.approx(sum(per_point))

    def test_single_flip_changes_by_twice_score(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=2)
        S = rng.normal(size=(2, 4))
        labels = np.array([1, 1, -1, 1])
        flipped = labels.copy()
        flipped[2] = 1
        q = point_scores(w, S)
        delta = q @ flipped - q @ labels
        assert delta == pytest.approx(2 * q[2])

    def test_hand_value(self):
        assert point_scores([1.0], [[2.0, -1.0]]) @ [1, -1] == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            point_scores([1.0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="m-by-n"):
            point_scores([1.0], [1.0, 2.0])


class TestPredict:
    def test_sign_of_scores(self):
        # scores (0.5, -0.2) -> (+1, -1)
        w = np.array([1.0])
        S = np.array([[0.5, -0.2]])
        np.testing.assert_array_equal(predict(w, S), [1, -1])

    def test_zero_scores_map_to_positive(self):
        np.testing.assert_array_equal(predict(np.zeros(2), np.ones((2, 3))), [1, 1, 1])

    def test_matches_exhaustive_joint_score_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w, S, _ = random_instance(rng, MeasureKind.F1, n_max=10)
            n = S.shape[1]
            tuples = exhaustive_label_tuples(n)
            scores = tuples.astype(float) @ (w @ S)
            best = scores.max()
            predicted = predict(w, S)
            assert point_scores(w, S) @ predicted == pytest.approx(best, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        w, S, _ = random_instance(rng, MeasureKind.F1)
        np.testing.assert_array_equal(predict(w, S), predict(7.5 * w, S))


class TestFValue:
    """The F that the argmax searches maximize, as defined by ``F`` above."""

    def test_zero_at_truth(self):
        rng = np.random.default_rng(13)
        for kind in ALL_KINDS:
            w, S, y = random_instance(rng, kind)
            assert F(w, S, y, y, kind) == 0.0

    def test_hand_value(self):
        # flip the first point of y = (+1, -1) with unit score: -2 + loss 1
        w = np.array([1.0])
        S = np.array([[1.0, -1.0]])
        assert F(w, S, [1, -1], [-1, -1], MeasureKind.F1) == pytest.approx(-1.0)

    def test_bound_chain_at_prediction(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w, S, y = random_instance(rng, MeasureKind.F1)
            predicted = predict(w, S)
            assert F(w, S, y, predicted, MeasureKind.F1) >= tuple_loss(
                MeasureKind.F1, y, predicted
            ) - 1e-12

    def test_prbep_off_slice_error(self):
        w = np.array([1.0])
        S = np.array([[1.0, 1.0]])
        with pytest.raises(UndefinedTupleLossError):
            F(w, S, [1, -1], [1, 1], MeasureKind.PRBEP)


class TestBruteforce:
    def test_worked_example(self):
        # y = (+1, -1) with unit scores on both points; F over the four
        # candidates is 7/3, 0, 1, -1 and the max sits at (+1, +1)
        w = np.array([1.0])
        S = np.array([[1.0, 1.0]])
        y = np.array([1, -1])
        values = {
            (1, 1): 2 + 1 / 3,
            (1, -1): 0.0,
            (-1, 1): 1.0,
            (-1, -1): -1.0,
        }
        for cand, expected in values.items():
            assert F(w, S, y, cand, MeasureKind.F1) == pytest.approx(expected)
        result = argmax_F_bruteforce(w, S, y, MeasureKind.F1)
        assert result.max_value == pytest.approx(7 / 3)
        assert len(result.maximizers) == 1
        np.testing.assert_array_equal(result.maximizers[0], [1, 1])
        assert result.counts == (0, 1)

    def test_zero_weights_maximize_pure_loss(self):
        w = np.zeros(2)
        S = np.ones((2, 4))
        y = np.array([1, 1, -1, -1])
        result = argmax_F_bruteforce(w, S, y, MeasureKind.F1)
        assert result.max_value == pytest.approx(1.0)

    def test_maximizer_set_attains_max(self):
        rng = np.random.default_rng(19)
        for kind in ALL_KINDS:
            for _ in range(20):
                w, S, y = random_instance(rng, kind, n_max=8)
                result = argmax_F_bruteforce(w, S, y, kind)
                for cand in result.maximizers:
                    assert F(w, S, y, cand, kind) == pytest.approx(
                        result.max_value, abs=1e-12
                    )

    def test_guard_refuses_large_n(self):
        w = np.zeros(1)
        S = np.ones((1, 21))
        y = np.ones(21, dtype=int)
        with pytest.raises(ValueError, match="oracle"):
            argmax_F_bruteforce(w, S, y, MeasureKind.F1)

    def test_prbep_restricted_to_slice(self):
        rng = np.random.default_rng(23)
        w, S, y = random_instance(rng, MeasureKind.PRBEP, n_max=6)
        result = argmax_F_bruteforce(w, S, y, MeasureKind.PRBEP)
        for cand in result.maximizers:
            fn = np.sum((y == 1) & (cand == -1))
            fp = np.sum((y == -1) & (cand == 1))
            assert fn == fp


class TestOracle:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_bruteforce(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(150):
            w, S, y = random_instance(rng, kind)
            brute = argmax_F_bruteforce(w, S, y, kind)
            fast = argmax_F_oracle(w, S, y, kind)
            assert abs(fast.max_value - brute.max_value) <= 1e-9
            brute_deltas = {
                tuple_loss(kind, y, cand) for cand in brute.maximizers
            }
            assert tuple_loss(kind, y, fast.maximizers[0]) in brute_deltas

    def test_zero_weights_f1(self):
        w = np.zeros(2)
        S = np.ones((2, 5))
        y = np.array([1, 1, 1, -1, -1])
        result = argmax_F_oracle(w, S, y, MeasureKind.F1)
        assert result.max_value == pytest.approx(1.0)
        # loss 1 requires every positive flipped
        assert result.counts[0] == 3

    def test_representative_attains_max(self):
        rng = np.random.default_rng(31)
        for kind in ALL_KINDS:
            for _ in range(30):
                w, S, y = random_instance(rng, kind)
                result = argmax_F_oracle(w, S, y, kind)
                attained = F(w, S, y, result.maximizers[0], kind)
                assert attained == pytest.approx(result.max_value, abs=1e-9)

    def test_deterministic_representative(self):
        rng = np.random.default_rng(37)
        w, S, y = random_instance(rng, MeasureKind.AUC)
        first = argmax_F_oracle(w, S, y, MeasureKind.AUC)
        second = argmax_F_oracle(w, S, y, MeasureKind.AUC)
        np.testing.assert_array_equal(first.maximizers[0], second.maximizers[0])
        assert first.counts == second.counts

    def test_degenerate_class_rejected(self):
        w = np.zeros(1)
        S = np.ones((1, 3))
        y = np.ones(3, dtype=int)
        for kind in (MeasureKind.PRBEP, MeasureKind.AUC):
            with pytest.raises(DegenerateClassError):
                argmax_F_oracle(w, S, y, kind)

    def test_degenerate_class_message_matches_the_loss_grid(self):
        y = np.ones(3, dtype=int)
        for kind in (MeasureKind.PRBEP, MeasureKind.AUC):
            message = (f"degenerate class: {kind.value} needs both classes in the truth "
                       "(n_pos=3, n_neg=0)")
            with pytest.raises(DegenerateClassError) as oracle:
                argmax_F_oracle(np.zeros(1), np.ones((1, 3)), y, kind)
            with pytest.raises(DegenerateClassError) as grid:
                loss_grid(kind, 0, 0, 3, 0)
            assert str(oracle.value) == str(grid.value) == message

    def test_f1_allows_single_class(self):
        w = np.array([0.3])
        S = np.array([[1.0, -2.0, 0.5]])
        y = np.ones(3, dtype=int)
        brute = argmax_F_bruteforce(w, S, y, MeasureKind.F1)
        fast = argmax_F_oracle(w, S, y, MeasureKind.F1)
        assert fast.max_value == pytest.approx(brute.max_value, abs=1e-12)


def reference_grid_f1(q, y):
    """The former F1 oracle: every (a, b) cell of the count grid at once.

    Kept as the reference the row search must reproduce bit for bit: it
    evaluates ``((2 N[b] - 2 P[a]) + 1) - tp2 / ((tp2 + a) + b)`` on the
    whole grid and takes the first maximum in row-major order.
    """
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = y.size - n_pos
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == -1)
    pos_sorted = pos[np.argsort(q[pos], kind="stable")]
    neg_sorted = neg[np.argsort(-q[neg], kind="stable")]
    pos_prefix = np.concatenate(([0.0], np.cumsum(q[pos_sorted])))
    neg_prefix = np.concatenate(([0.0], np.cumsum(q[neg_sorted])))
    a = np.arange(n_pos + 1)
    b_range = np.arange(n_neg + 1, dtype=np.float64)
    block = (2.0 * neg_prefix)[None, :] - (2.0 * pos_prefix[a])[:, None]
    if n_pos > 0:
        tp2 = 2.0 * (n_pos - a)
        block += 1.0
        block -= tp2[:, None] / ((tp2 + a)[:, None] + b_range[None, :])
    else:
        block += loss_grid(MeasureKind.F1, a[:, None], b_range[None, :], n_pos, n_neg)
    best_a, best_b = np.unravel_index(int(np.argmax(block)), block.shape)
    representative = y.copy()
    representative[pos_sorted[:best_a]] = -1
    representative[neg_sorted[:best_b]] = 1
    return float(block[best_a, best_b]), (int(best_a), int(best_b)), representative


@st.composite
def tie_heavy_instances(draw, max_n):
    """Scores k / divisor with few distinct values; truths may be one class."""
    n = draw(st.integers(1, max_n))
    divisor = draw(st.sampled_from([1.0, 2.0, 3.0, 7.0, 10.0]))
    numerators = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    labels = draw(st.one_of(
        st.just([1] * n), st.just([-1] * n),
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    ))
    return np.array(numerators) / divisor, np.array(labels, dtype=np.int64)


@settings(max_examples=500, deadline=None)
@given(tie_heavy_instances(max_n=60))
@example((np.zeros(5), np.array([-1, -1, -1, -1, -1])))
@example((np.array([0.0, -0.5, -0.5, 1.0]), np.array([-1, -1, -1, -1])))
def test_f1_row_search_matches_grid_bit_for_bit(instance):
    q, y = instance
    value, counts, representative = reference_grid_f1(q, y)
    result = argmax_F_oracle([1.0], q[None, :], y, MeasureKind.F1)
    assert np.float64(result.max_value).tobytes() == np.float64(value).tobytes()
    assert result.counts == counts
    np.testing.assert_array_equal(result.maximizers[0], representative)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(max_n=12), st.sampled_from(ALL_KINDS))
def test_oracle_matches_bruteforce_on_tie_heavy_scores(instance, kind):
    q, y = instance
    w, S = [1.0], q[None, :]
    if kind is not MeasureKind.F1 and len(np.unique(y)) < 2:
        for search in (argmax_F_oracle, argmax_F_bruteforce):
            with pytest.raises(DegenerateClassError):
                search(w, S, y, kind)
        return
    brute = argmax_F_bruteforce(w, S, y, kind)
    fast = argmax_F_oracle(w, S, y, kind)
    assert fast.max_value == pytest.approx(brute.max_value, abs=1e-9)
    assert F(w, S, y, fast.maximizers[0], kind) == pytest.approx(brute.max_value, abs=1e-9)


class TestUpperBound:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dominates_prediction_loss(self, kind):
        rng = np.random.default_rng(41)
        done = 0
        while done < 60:
            w, S, y = random_instance(rng, kind)
            predicted = predict(w, S)
            try:
                loss = tuple_loss(kind, y, predicted)
            except UndefinedTupleLossError:
                continue  # PRBEP loss undefined off its slice
            assert upper_bound(w, S, y, kind) >= loss
            done += 1

    def test_equals_argmax_value(self):
        rng = np.random.default_rng(43)
        w, S, y = random_instance(rng, MeasureKind.F1)
        assert upper_bound(w, S, y, MeasureKind.F1) == argmax_F_oracle(
            w, S, y, MeasureKind.F1
        ).max_value

    def test_worked_example(self):
        w = np.array([1.0])
        S = np.array([[1.0, 1.0]])
        assert upper_bound(w, S, [1, -1], MeasureKind.F1) == pytest.approx(7 / 3)


class TestLossGradients:
    def test_gradient_w_at_truth_is_ridge_only(self):
        rng = np.random.default_rng(47)
        w = rng.normal(size=3)
        S = rng.normal(size=(3, 4))
        y = np.array([1, -1, 1, -1])
        grad = loss_gradient_w(w, S, flip_coefficients(y, (y,), 2.0), c2=0.7)
        np.testing.assert_allclose(grad, 0.7 * w)

    def test_gradient_w_hand_value(self):
        # single maximizer (+1, +1) against y = (+1, -1): only point 2 differs
        S = np.array([[1.0, 2.0], [0.5, -1.0]])
        coefficients = flip_coefficients([1, -1], (np.array([1, 1]),), 1.5)
        grad = loss_gradient_w(np.zeros(2), S, coefficients, c2=0.0)
        np.testing.assert_allclose(grad, 1.5 * 2 * S[:, 1])

    def test_gradient_w_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            kind = ALL_KINDS[int(rng.integers(0, 3))]
            w, S, y = random_instance(rng, kind)
            c2 = float(rng.uniform(0, 1))
            c3 = float(rng.uniform(0, 2))
            frozen = argmax_F_bruteforce(w, S, y, kind).maximizers

            def objective(v):
                total = 0.5 * c2 * float(v @ v)
                for cand in frozen:
                    linear = float((cand - y) @ (v @ S))
                    total += (c3 / len(frozen)) * (linear + tuple_loss(kind, y, cand))
                return total

            analytic = loss_gradient_w(w, S, flip_coefficients(y, frozen, c3), c2)
            numeric = central_difference(objective, w, h=1e-5)
            scale = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(analytic - numeric) / scale <= 1e-5

    # The trainer's loss term for code i is column i of np.outer(w, coefficients).

    def test_gradient_s_zero_when_labels_match(self):
        w = np.ones(2)
        y = np.array([1, -1])
        coefficients = flip_coefficients(y, (np.array([1, 1]),), c3=3.0)
        np.testing.assert_array_equal(np.outer(w, coefficients)[:, 0], [0.0, 0.0])

    def test_gradient_s_single_flip(self):
        w = np.array([0.5, -0.5])
        y = np.array([1, -1])
        coefficients = flip_coefficients(y, (np.array([-1, -1]),), c3=2.0)
        np.testing.assert_allclose(np.outer(w, coefficients)[:, 0], -2.0 * 2.0 * w)

    def test_gradient_s_consistent_with_gradient_w(self):
        # both loss terms are gradients of the same frozen-tie-set bound, in
        # w and in the codes respectively
        rng = np.random.default_rng(59)
        w, S, y = random_instance(rng, MeasureKind.F1)
        frozen = argmax_F_bruteforce(w, S, y, MeasureKind.F1).maximizers
        c3 = 1.3
        coefficients = flip_coefficients(y, frozen, c3)
        loss_part = loss_gradient_w(w, S, coefficients, c2=0.0)
        np.testing.assert_allclose(S @ coefficients, loss_part, rtol=1e-12, atol=1e-12)

        def bound(flat_codes):
            return float(coefficients @ (w @ flat_codes.reshape(S.shape)))

        numeric = central_difference(bound, S.ravel(), h=1e-5).reshape(S.shape)
        np.testing.assert_allclose(np.outer(w, coefficients), numeric, atol=1e-8)

    def test_gradient_s_index_out_of_range(self):
        # a maximizer reaching past the truth's last point is rejected
        with pytest.raises(ValueError, match="does not match"):
            flip_coefficients(np.array([1, -1]), (np.array([1, -1, 1]),), 1.0)

    def test_empty_maximizer_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            flip_coefficients(np.array([1, -1]), (), 1.0)


class TestArgmaxResultType:
    def test_is_frozen_record(self):
        result = ArgmaxResult(1.0, (np.array([1, -1]),), (0, 0))
        with pytest.raises(AttributeError):
            result.max_value = 2.0


class TestOracleScaling:
    @staticmethod
    def assert_warm_call_under_one_second(kind, n, seed):
        import time

        rng = np.random.default_rng(seed)
        m = 4
        y = np.where(np.arange(n) % 2 == 0, 1, -1)
        w = rng.uniform(-1, 1, m)
        S = rng.uniform(-1, 1, (m, n))
        argmax_F_oracle(w, S, y, kind)  # warm numpy paths
        started = time.perf_counter()
        result = argmax_F_oracle(w, S, y, kind)
        elapsed = time.perf_counter() - started
        assert np.isfinite(result.max_value)
        assert elapsed < 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_ten_thousand_points_under_one_second(self, kind):
        self.assert_warm_call_under_one_second(kind, 10_000, seed=61)

    def test_f1_two_hundred_thousand_points_under_one_second(self):
        # the full (a, b) count grid here would hold about 10^10 cells
        self.assert_warm_call_under_one_second(MeasureKind.F1, 200_000, seed=67)
