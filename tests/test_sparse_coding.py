import numpy as np
import pytest

from sparsetuple.sparse_coding import (
    Dictionary,
    SingularGramError,
    code_gradient_batch,
    dual_ascent_alphas,
    smoothing_weights,
    solve_dictionary,
)
from sparsetuple.trainer import TrainConfig, _objective_entry, encode

from conftest import central_difference, lagrangian_gradient


def one_point_gradient(D, x, s, u, c1, loss_term):
    """:func:`code_gradient_batch` on one point, as one-column matrices."""
    return code_gradient_batch(D, x[:, None], s[:, None], u[:, None], c1, loss_term[:, None])[:, 0]


def trace_reconstruction(D, x, s):
    """Reconstruction term of the trainer's objective for one point."""
    entry, _ = _objective_entry(
        x[:, None], D, s[:, None], np.zeros(D.shape[1]), np.ones(1, dtype=int),
        TrainConfig(), np.empty((D.shape[0], 1)), np.empty((D.shape[1], 1)),
    )
    return entry.reconstruction


class TestReconstructionError:
    def test_zero_code_gives_input_norm(self):
        x = np.array([3.0, 4.0])
        D = np.ones((2, 3))
        assert trace_reconstruction(D, x, np.zeros(3)) == 25.0

    def test_exact_reconstruction(self):
        D = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([2.0, -1.0])
        assert trace_reconstruction(D, x, x) == 0.0

    def test_scalar_hand_value(self):
        assert trace_reconstruction(np.array([[2.0]]), np.array([3.0]), np.array([1.0])) == 1.0


class TestSmoothingWeights:
    def test_basic(self):
        np.testing.assert_allclose(smoothing_weights(np.array([1.0, -2.0]), 1e-8), [1.0, 0.5])

    def test_floor_engaged(self):
        np.testing.assert_allclose(smoothing_weights(np.array([0.0, 1.0]), 1e-3), [1000.0, 1.0])

    def test_weighted_square_equals_l1(self):
        s = np.array([1.0, -2.0])
        u = smoothing_weights(s, 1e-8)
        assert s @ (u * s) == pytest.approx(3.0, abs=1e-12)

    def test_identity_random(self):
        rng = np.random.default_rng(17)
        eps = 1e-8
        for _ in range(50):
            m = int(rng.integers(1, 9))
            magnitudes = rng.uniform(10 * eps, 10.0, m)
            s = magnitudes * rng.choice([-1.0, 1.0], m)
            u = smoothing_weights(s, eps)
            assert abs(s @ (u * s) - np.abs(s).sum()) <= 1e-12

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            smoothing_weights(np.ones(2), 0.0)


class TestCodeGradient:
    def test_stationary_reconstruction(self):
        D = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([1.0, 2.0])
        s = x.copy()
        u = smoothing_weights(s, 1e-8)
        grad = one_point_gradient(D, x, s, u, c1=0.0, loss_term=np.zeros(2))
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_scalar_hand_value(self):
        # d = m = 1, D = 1, x = 2, s = 0: reconstruction part alone gives -4
        grad = one_point_gradient(
            np.array([[1.0]]), np.array([2.0]), np.array([0.0]),
            smoothing_weights(np.array([0.0]), 1e-8), c1=0.5, loss_term=np.zeros(1),
        )
        assert grad[0] == pytest.approx(-4.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            D = rng.uniform(-1, 1, (d, m))
            x = rng.uniform(-1, 1, d)
            s = rng.uniform(-1, 1, m)
            u = smoothing_weights(rng.uniform(-1, 1, m), 1e-8)
            c1 = float(rng.uniform(0, 0.5))
            loss_term = rng.uniform(-1, 1, m)

            def objective(v):
                r = x - D @ v
                return float(r @ r + c1 * v @ (u * v) + loss_term @ v)

            analytic = one_point_gradient(D, x, s, u, c1, loss_term)
            numeric = central_difference(objective, s, h=1e-5)
            scale = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(analytic - numeric) / scale <= 1e-5

    def test_batch_matches_columns(self):
        # each column's gradient depends on that column alone
        rng = np.random.default_rng(29)
        d, m, n = 4, 3, 6
        D = rng.normal(size=(d, m))
        X = rng.normal(size=(d, n))
        S = rng.normal(size=(m, n))
        U = smoothing_weights(S, 1e-8)
        L = rng.normal(size=(m, n))
        batch = code_gradient_batch(D, X, S, U, 0.3, L)
        for i in range(n):
            single = one_point_gradient(D, X[:, i], S[:, i], U[:, i], 0.3, L[:, i])
            np.testing.assert_allclose(batch[:, i], single, rtol=1e-12, atol=1e-12)

    def test_caller_buffers_match_the_allocating_call(self):
        # Bitwise equal results written into the given buffers; the inputs
        # other than the reweighting, which may double as scratch, come back unchanged.
        rng = np.random.default_rng(31)
        d, m, n = 5, 7, 11
        D, X = rng.normal(size=(d, m)), rng.normal(size=(d, n))
        S, L = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        S[0, :3] = [0.0, -0.0, 1e-12]  # under the reweighting floor
        inputs = [D.copy(), X.copy(), S.copy(), L.copy()]

        U = smoothing_weights(S, 1e-8)
        u_out = np.full((m, n), np.nan)
        assert smoothing_weights(S, 1e-8, u_out) is u_out
        assert u_out.tobytes() == U.tobytes()

        expected = code_gradient_batch(D, X, S, U, 0.3, L)
        out, scratch, residual = np.full((m, n), np.nan), np.empty((m, n)), np.empty((d, n))
        got = code_gradient_batch(D, X, S, U.copy(), 0.3, L, 1.0, out, scratch, residual)
        assert got is out
        assert out.tobytes() == expected.tobytes()
        # the reweighting's own buffer as the scratch array, as fit passes it
        got = code_gradient_batch(D, X, S, u_out, 0.3, L, 1.0, out, u_out, residual)
        assert got is out and out.tobytes() == expected.tobytes()
        for before, after in zip(inputs, (D, X, S, L)):
            assert before.tobytes() == after.tobytes()

    def test_rank_one_loss_factors_match_the_outer_product(self):
        rng = np.random.default_rng(37)
        d, m, n = 4, 6, 9
        D, X, S = rng.normal(size=(d, m)), rng.normal(size=(d, n)), rng.normal(size=(m, n))
        w, c = rng.normal(size=m), rng.normal(size=n)
        U = smoothing_weights(S, 1e-8)
        expected = code_gradient_batch(D, X, S, U, 0.2, np.outer(w, c))
        got = code_gradient_batch(D, X, S, U, 0.2, c, w[:, None])
        assert got.tobytes() == expected.tobytes()


class TestCodeStep:
    """Codes of the coding subproblem: the ridge codes :func:`encode` returns
    and the gradient step :func:`fit` takes."""

    def test_zero_gradient_keeps_code(self):
        # c1 = 0 and D = I: the ridge code is x itself, a stationary point
        x = np.array([[1.0, -2.0]])
        dictionary = Dictionary(np.eye(2), 1.0, np.zeros(2))
        codes = encode(dictionary, x, TrainConfig(c1=0.0))
        np.testing.assert_array_equal(codes[:, 0], x[0])

    def test_arithmetic(self):
        # D = 1, x = 4, c1 = 1: the ridge code is 4 / (1 + 1) = 2
        dictionary = Dictionary(np.ones((1, 1)), 1.0, np.zeros(1))
        codes = encode(dictionary, [[4.0]], TrainConfig(c1=1.0))
        assert codes[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_converges_on_quadratic(self):
        # repeated steps on the pure reconstruction quadratic reach least squares
        rng = np.random.default_rng(37)
        D = rng.normal(size=(5, 3))
        x = rng.normal(size=5)
        target = np.linalg.lstsq(D, x, rcond=None)[0]
        eta = 0.9 / (2 * np.linalg.eigvalsh(D.T @ D).max())
        s = np.zeros(3)
        zero_u = np.zeros(3)
        for _ in range(2000):
            s = s - eta * one_point_gradient(D, x, s, zero_u, 0.0, np.zeros(3))
        np.testing.assert_allclose(s, target, atol=1e-8)


class TestSolveDictionary:
    def test_identity_gram(self):
        # S = I makes the Gram the identity, so D = X S^T = X
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = np.eye(2)
        np.testing.assert_allclose(solve_dictionary(X, S, np.zeros(2)), X)

    def test_scalar_hand_value(self):
        # x = 2, s = 1, alpha = 1 -> D = 2 / (1 + 1) = 1
        D = solve_dictionary(np.array([[2.0]]), np.array([[1.0]]), np.array([1.0]))
        assert D[0, 0] == pytest.approx(1.0)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, 40))
            X = rng.uniform(-1, 1, (d, n))
            S = rng.uniform(-1, 1, (m, n))
            alphas = rng.uniform(0.05, 1.0, m)
            D = solve_dictionary(X, S, alphas)
            residual = np.abs(lagrangian_gradient(X, S, alphas, D)).max()
            assert residual <= 1e-8

    def test_singular_system(self):
        X = np.array([[1.0]])
        S = np.array([[0.0]])
        with pytest.raises(SingularGramError, match="multiplier floor"):
            solve_dictionary(X, S, np.zeros(1))


class TestDualAscent:
    def test_inactive_constraints_keep_zero(self):
        # tiny data: unconstrained dictionary already satisfies the cap
        X = np.array([[0.1, -0.1]])
        S = np.array([[1.0, -1.0]])
        alphas, converged, _ = dual_ascent_alphas(X, S, norm_cap=1.0, alphas0=np.zeros(1))
        assert converged
        np.testing.assert_array_equal(alphas, [0.0])

    def test_scalar_closed_form(self):
        # x = 2, s = 1, cap 1: unconstrained D = 2 violates; the converged
        # multiplier is 1 and the implied element has unit squared norm
        X = np.array([[2.0]])
        S = np.array([[1.0]])
        alphas, converged, _ = dual_ascent_alphas(
            X, S, norm_cap=1.0, alphas0=np.array([1e-3]), steps=5000
        )
        assert converged
        assert alphas[0] == pytest.approx(1.0, abs=1e-4)
        D = solve_dictionary(X, S, alphas)
        assert D[0, 0] ** 2 == pytest.approx(1.0, abs=1e-4)

    def test_dual_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d, m, n = 3, 3, 25
            X = 2.0 * rng.uniform(-1, 1, (d, n))
            S = rng.uniform(-1, 1, (m, n))
            alphas = rng.uniform(0.2, 1.0, m)
            cap = 1.0
            D = solve_dictionary(X, S, alphas)
            analytic = np.sum(D * D, axis=0) - cap

            def dual(v):
                elements = solve_dictionary(X, S, v)
                residual = X - elements @ S
                column_sq = np.sum(elements * elements, axis=0)
                return float(np.sum(residual * residual) + np.sum(v * (column_sq - cap)))

            numeric = central_difference(dual, alphas, h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_reports_miss_when_budget_too_small(self):
        X = np.array([[2.0]])
        S = np.array([[1.0]])
        alphas, converged, _ = dual_ascent_alphas(
            X, S, norm_cap=1.0, alphas0=np.array([1e-3]), steps=3
        )
        assert not converged
        assert alphas[0] >= 0.0

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_newton_meets_kkt_on_mixed_caps(self, start):
        # The cap is the median unconstrained squared column norm, so some
        # caps bind (alpha_j > 0) and some stay slack (alpha_j = 0).  A warm
        # start is the answer for nearby codes, as in the training loop.
        # Newton steps need at most 9 (cold) and 4 (warm) steps here.
        rng = np.random.default_rng(1201)
        steps = 12 if start == "cold" else 6
        binding = slack = 0
        for _ in range(50):
            d, m = int(rng.integers(2, 8)), int(rng.integers(2, 9))
            n = int(rng.integers(m + 5, 60))
            X = rng.uniform(0.5, 3.0) * rng.normal(size=(d, n))
            S = rng.uniform(0.2, 2.0, (m, 1)) * rng.normal(size=(m, n))
            cap = float(np.median(np.sum(solve_dictionary(X, S, np.zeros(m)) ** 2, axis=0)))
            alphas0 = np.zeros(m)
            if start == "warm":
                nearby = S + 0.05 * rng.normal(size=S.shape)
                alphas0, nearby_converged, _ = dual_ascent_alphas(X, nearby, cap, alphas0)
                assert nearby_converged
            alphas, converged, elements = dual_ascent_alphas(X, S, cap, alphas0, steps=steps)
            grad = np.sum(elements * elements, axis=0) - cap
            assert converged
            assert np.all(alphas >= 0)
            tol = 1e-6 * max(1.0, cap)
            assert grad.max() <= tol
            assert np.all(np.abs(grad[alphas > 0]) <= tol)
            np.testing.assert_allclose(elements, solve_dictionary(X, S, alphas), rtol=0, atol=1e-10)
            binding += np.count_nonzero(alphas > 0)
            slack += np.count_nonzero(alphas == 0)
        assert binding > 0 and slack > 0

    def test_tolerance_is_relative_to_a_large_cap(self):
        # X scaled by 1e6 puts the caps near 1e10-1e13, where float64 cannot
        # resolve |||d_j||^2 - cap| to an absolute 1e-6; relative to the cap the
        # ascent converges every time.
        rng = np.random.default_rng(1201)
        for _ in range(50):
            d, m = int(rng.integers(2, 8)), int(rng.integers(2, 9))
            n = int(rng.integers(m + 5, 60))
            X = 1e6 * rng.uniform(0.5, 3.0) * rng.normal(size=(d, n))
            S = rng.uniform(0.2, 2.0, (m, 1)) * rng.normal(size=(m, n))
            cap = float(np.median(np.sum(solve_dictionary(X, S, np.zeros(m)) ** 2, axis=0)))
            alphas, converged, elements = dual_ascent_alphas(X, S, cap, np.zeros(m))
            grad = np.sum(elements * elements, axis=0) - cap
            assert converged
            assert grad.max() <= 1e-6 * cap
            assert np.all(np.abs(grad[alphas > 0]) <= 1e-6 * cap)

    def test_single_element_matches_bisection(self):
        # With m = 1 the squared norm of d(alpha) falls monotonically in
        # alpha, so bisection on ||d(alpha)||^2 = cap finds the multiplier.
        rng = np.random.default_rng(1203)
        for _ in range(20):
            X = rng.uniform(0.5, 3.0) * rng.normal(size=(4, 30))
            S = rng.normal(size=(1, 30))
            cap = rng.uniform(0.1, 0.9) * float(np.sum(solve_dictionary(X, S, np.zeros(1)) ** 2))

            def excess(alpha):
                return float(np.sum(solve_dictionary(X, S, np.array([alpha])) ** 2)) - cap

            low, high = 0.0, 1.0
            while excess(high) > 0:
                high *= 2.0
            for _ in range(100):
                middle = 0.5 * (low + high)
                low, high = (middle, high) if excess(middle) > 0 else (low, middle)
            # A tight tolerance, so the multiplier itself must agree closely.
            alphas, converged, _ = dual_ascent_alphas(X, S, cap, np.zeros(1), tol=1e-10)
            assert converged
            assert alphas[0] == pytest.approx(0.5 * (low + high), rel=1e-7)

    @pytest.mark.parametrize("alphas0", [0.0, 1e-3])
    def test_singular_system_raises(self, alphas0):
        # Equal code rows make S S' singular: at once from zero multipliers,
        # and from small ones once the slack caps project them to zero.
        S = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        X = np.array([[0.01, 0.0, -0.01]])
        with pytest.raises(SingularGramError, match="multiplier floor"):
            dual_ascent_alphas(X, S, 1.0, np.full(2, alphas0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dual_ascent_alphas(np.ones((1, 1)), np.ones((1, 1)), 1.0, np.array([-0.1]))
        with pytest.raises(ValueError, match="one nonnegative initial multiplier"):
            dual_ascent_alphas(np.ones((1, 3)), np.ones((3, 3)), 1.0, np.zeros(1))


class TestDictionaryType:
    def test_validates_shapes(self):
        with pytest.raises(ValueError, match="one multiplier"):
            Dictionary(np.ones((2, 3)), 1.0, np.zeros(2))

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dictionary(np.ones((2, 2)), 1.0, np.array([0.1, -0.1]))

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError, match="norm_cap"):
            Dictionary(np.ones((2, 2)), 0.0, np.zeros(2))
