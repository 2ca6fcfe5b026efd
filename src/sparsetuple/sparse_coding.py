"""Dictionary and sparse-code machinery.

Shapes follow the math: the feature matrix ``X`` is d-by-n with one data
point per column, codes ``S`` are m-by-n with code ``s_i`` in column i, and
the dictionary ``elements`` matrix is d-by-m with one element per column.

The l1 sparsity penalty is handled by iterative reweighting: ``|s_j|`` is
written as ``s_j^2 / |s_j^pre|`` with the previous iterate frozen inside the
diagonal weight, which makes the coding objective smooth.  The trainer's
weight floor ``_REWEIGHT_FLOOR`` keeps the reweighting bounded near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dictionary",
    "SingularGramError",
    "smoothing_weights",
    "code_gradient_batch",
    "solve_dictionary",
    "dual_ascent_alphas",
]


class SingularGramError(ValueError):
    """The code Gram system for the dictionary solve is singular."""


@dataclass
class Dictionary:
    """A d-by-m element matrix with its norm cap and constraint multipliers."""

    elements: np.ndarray
    norm_cap: float
    multipliers: np.ndarray

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.float64)
        self.multipliers = np.asarray(self.multipliers, dtype=np.float64)
        if self.elements.ndim != 2:
            raise ValueError("elements must be a d-by-m matrix")
        if self.norm_cap <= 0:
            raise ValueError("norm_cap must be positive")
        if self.multipliers.shape != (self.elements.shape[1],):
            raise ValueError("need one multiplier per dictionary element")
        if np.any(self.multipliers < 0):
            raise ValueError("multipliers must be nonnegative")

    @property
    def d(self) -> int:
        return self.elements.shape[0]

    @property
    def m(self) -> int:
        return self.elements.shape[1]


def smoothing_weights(s_prev: np.ndarray, eps: float, out=None) -> np.ndarray:
    """Reweighting diagonal ``u_j = 1 / max(|s_prev_j|, eps)``, written into ``out`` if given."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    weights = np.abs(np.asarray(s_prev, dtype=np.float64), out=out)
    return np.divide(1.0, np.maximum(weights, eps, out=weights), out=weights)


def code_gradient_batch(elements, X, S, weights, c1, loss_terms, loss_scale=1.0,
                        out=None, scratch=None, residual=None) -> np.ndarray:
    """Gradient of the smoothed coding objective at every code column.

    Column i is the gradient at ``s_i`` of
    ``||x_i - D s_i||^2 + c1 * s_i' diag(u_i) s_i + l_i' s_i`` with the
    reweighting ``u_i`` (column i of ``weights``) and the loss term ``l_i``
    held fixed, so it reads column i of each input only.  ``X`` is d-by-n,
    ``S`` and ``weights`` are m-by-n, and ``loss_scale * loss_terms``
    broadcasts to m-by-n; ``fit`` passes one block of columns at a time, with
    ``w[:, None]`` and ``c`` for the rank-one ``w c'``.  The reconstruction
    part is ``-2 D' (x - D s)``; a plus sign would ascend it.  The result, the
    d-by-n residual and one scratch array (the reweighting product, then the
    loss terms) go into ``out``, ``residual`` and ``scratch``, each allocated
    if not given; ``scratch`` may be ``weights``, read before it is written.
    """
    residual = np.matmul(elements, S, out=residual)
    grads = np.matmul(-2.0 * elements.T, np.subtract(X, residual, out=residual), out=out)
    scratch = np.multiply(2.0 * c1, weights, out=scratch)
    grads += np.multiply(scratch, S, out=scratch)
    return np.add(grads, np.multiply(loss_scale, loss_terms, out=scratch), out=grads)


_MAX_HALVINGS = 30  # of a Newton step, before the ascent gives up on it


def _solve_gram(system, rhs) -> np.ndarray:
    """``system^-1 rhs`` for a Gram-type system, or SingularGramError."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise SingularGramError(
            "code Gram matrix plus multiplier diagonal is singular; "
            "use fewer dictionary elements or a sparsity weight c1 > 0"
        ) from None


def solve_dictionary(X: np.ndarray, S: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Closed-form minimizer of the penalized reconstruction over D.

    Returns ``(X S') (S S' + diag(alphas))^-1``, the unique stationary point
    of the Lagrangian in D for fixed codes and multipliers.
    """
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if X.ndim != 2 or S.ndim != 2 or X.shape[1] != S.shape[1]:
        raise ValueError(f"dimension mismatch: X {X.shape} vs S {S.shape}")
    if alphas.shape != (S.shape[0],):
        raise ValueError("need one multiplier per dictionary element")
    return _solve_gram(S @ S.T + np.diag(alphas), S @ X.T).T


def dual_ascent_alphas(
    X,
    S,
    norm_cap: float,
    alphas0,
    steps: int = 50,
    tol: float = 1e-6,
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Projected Newton ascent on the column-norm constraint multipliers.

    The dual has gradient ``||d_j(alpha)||^2 - norm_cap`` and Hessian
    ``-2 (D'D) o (S S' + diag(alpha))^-1`` at the :func:`solve_dictionary`
    solution ``D(alpha)`` (Lee, Battle, Raina & Ng, NIPS 2007, section 3).
    ``S S'`` and ``S X'`` are formed once, and one solve per evaluation gives
    both ``D`` and the inverse.  A step solves the Newton system on the free
    multipliers (positive, or zero with a positive gradient), projects onto
    ``alpha >= 0`` and halves until the KKT residual falls: ``max(grad_j, 0)``
    where ``alpha_j = 0``, ``|grad_j|`` where ``alpha_j > 0``.  The ascent
    stops once every residual is at most ``tol * max(1, norm_cap)``, after
    ``steps`` steps, or when no halving helps; the tolerance scales with a
    large cap because float64 cannot resolve ``|grad_j|`` below about
    ``1e-16 * norm_cap``.

    Returns ``(alphas, converged, elements)``, ``elements`` being ``D(alphas)``.
    """
    alphas = np.asarray(alphas0, dtype=np.float64).copy()
    d, m = len(X), len(S)
    if alphas.shape != (m,) or np.any(alphas < 0):
        raise ValueError("need one nonnegative initial multiplier per dictionary element")
    tol = tol * max(1.0, norm_cap)
    gram = S @ S.T
    rhs = np.hstack([S @ X.T, np.eye(m)])

    def evaluate(alphas):
        solved = _solve_gram(gram + np.diag(alphas), rhs)
        elements_t, inverse = solved[:, :d], solved[:, d:]
        grad = np.sum(elements_t * elements_t, axis=1) - norm_cap
        residual = float(np.where(alphas > 0, np.abs(grad), np.maximum(grad, 0.0)).max())
        return elements_t, inverse, grad, residual

    elements_t, inverse, grad, residual = evaluate(alphas)
    for _ in range(steps):
        if residual <= tol:
            break
        free = np.flatnonzero((alphas > 0) | (grad > 0))
        neg_hessian = 2.0 * (elements_t @ elements_t.T) * inverse
        direction = _solve_gram(neg_hessian[np.ix_(free, free)], grad[free])
        for halving in range(_MAX_HALVINGS + 1):
            trial = alphas.copy()
            trial[free] = np.maximum(0.0, alphas[free] + 0.5 ** halving * direction)
            candidate = evaluate(trial)
            if candidate[3] < residual:
                break
        else:
            break
        alphas = trial
        elements_t, inverse, grad, residual = candidate
    return alphas, residual <= tol, elements_t.T
