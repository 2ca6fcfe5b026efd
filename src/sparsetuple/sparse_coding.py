"""Dictionary and sparse-code machinery.

Shapes follow the math: the feature matrix ``X`` is d-by-n with one data
point per column, codes ``S`` are m-by-n with code ``s_i`` in column i, and
the dictionary ``elements`` matrix is d-by-m with one element per column.

The l1 sparsity penalty is handled by iterative reweighting: ``|s_j|`` is
written as ``s_j^2 / |s_j^pre|`` with the previous iterate frozen inside the
diagonal weight, which makes the coding objective smooth.  The weight floor
``eps`` keeps the reweighting bounded near zero.
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
    "lagrangian_gradient",
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


def smoothing_weights(s_prev: np.ndarray, eps: float) -> np.ndarray:
    """Reweighting diagonal ``u_j = 1 / max(|s_prev_j|, eps)``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 1.0 / np.maximum(np.abs(np.asarray(s_prev, dtype=np.float64)), eps)


def code_gradient_batch(elements, X, S, weights, c1, loss_terms) -> np.ndarray:
    """Gradient of the smoothed coding objective at every code column.

    Column i is the gradient at ``s_i`` of
    ``||x_i - D s_i||^2 + c1 * s_i' diag(u_i) s_i + l_i' s_i`` with the
    reweighting ``u_i`` (column i of ``weights``) and the loss term ``l_i``
    held fixed.  ``X`` is d-by-n, ``S`` and ``weights`` and ``loss_terms``
    are m-by-n (``loss_terms`` may be a scalar 0 when the label-loss term is
    absent).  Note the reconstruction part contributes ``-2 D' (x - D s)``;
    a plus sign there would ascend the reconstruction error.
    """
    return -2.0 * elements.T @ (X - elements @ S) + 2.0 * c1 * weights * S + loss_terms


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
    gram = S @ S.T + np.diag(alphas)
    try:
        solution = np.linalg.solve(gram, S @ X.T)
    except np.linalg.LinAlgError:
        raise SingularGramError(
            "code Gram matrix plus multiplier diagonal is singular; "
            "raise the multiplier floor or reduce the dictionary size"
        ) from None
    return solution.T


def lagrangian_gradient(X, S, alphas, elements) -> np.ndarray:
    """Gradient in D of the norm-constrained reconstruction Lagrangian."""
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    elements = np.asarray(elements, dtype=np.float64)
    return -2.0 * (X - elements @ S) @ S.T + 2.0 * elements * alphas[None, :]


def dual_ascent_alphas(
    X,
    S,
    norm_cap: float,
    alphas0,
    rate: float = 0.1,
    steps: int = 50,
    tol: float = 1e-6,
) -> tuple[np.ndarray, bool]:
    """Projected gradient ascent on the column-norm constraint multipliers.

    The dual gradient in ``alpha_j`` is ``||d_j(alpha)||^2 - norm_cap`` with
    ``d_j`` re-solved from :func:`solve_dictionary` at each step.  Ascends
    with a fixed rate, projecting onto ``alpha >= 0``, and stops early once
    the largest cap violation falls below ``tol``.

    Returns ``(alphas, converged)``; when the step budget runs out the
    least-violating iterate seen is returned with ``converged=False``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    alphas = np.asarray(alphas0, dtype=np.float64).copy()
    if np.any(alphas < 0):
        raise ValueError("initial multipliers must be nonnegative")
    best_alphas = alphas.copy()
    best_violation = np.inf
    for step in range(steps + 1):
        elements = solve_dictionary(X, S, alphas)
        grad = np.sum(elements * elements, axis=0) - norm_cap
        violation = float(np.maximum(grad, 0.0).max())
        if violation <= tol:
            return alphas, True
        if violation < best_violation:
            best_violation = violation
            best_alphas = alphas.copy()
        if step < steps:
            alphas = np.maximum(0.0, alphas + rate * grad)
    return best_alphas, False
