"""Tuple-level linear prediction and the loss upper-bound machinery.

A weight vector ``w`` scores each point through its code, ``q_i = w . s_i``,
and the joint score of a candidate label tuple is ``sum_i y'_i q_i``.  The
tuple maximizing the joint score decomposes into per-point signs, which is
what :func:`predict` returns.

Training minimizes an upper bound of the tuple loss instead of the loss
itself.  The bound is the maximum over all candidate tuples of

    F(y'') = sum_i (y''_i - y_i) q_i + loss(y'', y)

and the maximizing tuples (the tie set) also supply the gradient direction
for ``w`` and for each code.  Because the loss depends on a candidate only
through its false-negative/false-positive counts, the maximum over the
2^n tuple space collapses to a search over count pairs: for fixed counts
``(a, b)`` the best candidate flips the ``a`` lowest-scoring true positives
and the ``b`` highest-scoring true negatives.  :func:`argmax_F_oracle`
implements that search in O(n log n) time and O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MeasureKind, as_label_array, loss_grid, require_both_classes

__all__ = [
    "ArgmaxResult",
    "point_scores",
    "predict",
    "argmax_F_oracle",
    "upper_bound",
    "flip_coefficients",
    "loss_gradient_w",
]


@dataclass(frozen=True)
class ArgmaxResult:
    """Outcome of maximizing F over the candidate tuple space.

    ``maximizers`` holds one deterministic representative from the oracle,
    or the full tie set from an exhaustive search.
    """

    max_value: float
    maximizers: tuple[np.ndarray, ...]


def _weights_and_codes(w, codes) -> tuple[np.ndarray, np.ndarray]:
    """``w`` and ``codes`` as float arrays, checked: one code per column, one weight per row."""
    w = np.asarray(w, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2:
        raise ValueError("codes must be an m-by-n matrix with one code per column")
    if w.shape != (codes.shape[0],):
        raise ValueError(f"dimension mismatch: w {w.shape} vs codes {codes.shape}")
    return w, codes


def point_scores(w, codes) -> np.ndarray:
    """Per-point scores ``q_i = w . s_i`` for codes stored columnwise."""
    w, codes = _weights_and_codes(w, codes)
    return w @ codes


def predict(w, codes) -> np.ndarray:
    """Label tuple with the largest joint score.

    The joint score decomposes over points, so the argmax is elementwise
    ``sign(w . s_i)`` with zero scores mapped to +1.
    """
    q = point_scores(w, codes)
    return np.where(q >= 0.0, 1, -1).astype(np.int64)


def argmax_F_oracle(w, codes, y_true, kind: MeasureKind | str) -> ArgmaxResult:
    """Count-parameterized exact maximizer of F.

    True positives are sorted by score ascending and true negatives by score
    descending (ties stable by index); prefix sums then give the best
    candidate for every flip-count pair ``(a, b)`` in O(1).  PRBEP restricts
    the search to its ``a == b`` slice.  Returns one representative
    maximizer, the lexicographically first ``(a, b)`` among ties.

    F1 searches each row ``a`` instead of the whole grid.  Along a row the
    value is ``2 N[b] + 1 - 2 tp / (2 tp + a + b)`` plus a constant, where
    ``N[b]`` sums the ``b`` highest negative scores.  Its step from ``b - 1``
    to ``b`` is twice the ``b``-th highest negative score, which falls as
    ``b`` grows, plus the step of ``-2 tp / (2 tp + a + b)``, which is
    concave and increasing in ``b`` and so also falls.  The row is therefore
    concave: its first maximizing ``b`` is the last ``b`` whose step rises.
    A search over the bits of ``b`` finds it for all rows at once in
    ``bit_length(n_neg)`` rounds, and the first row attaining the largest
    row maximum wins.  Without positives the loss is 0 at ``b = 0`` and 1
    everywhere else.  Rounding can flatten a rising step when scores are
    tiny next to the loss (about 1e-17); the pair found may then differ
    from the first float maximum by a few ulp in value.
    """
    kind = MeasureKind.parse(kind)
    q = point_scores(w, codes)
    y = as_label_array(y_true)
    n = y.size
    if q.size != n:
        raise ValueError(f"dimension mismatch: {q.size} points vs {n} labels")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = n - n_pos
    if kind in (MeasureKind.PRBEP, MeasureKind.AUC):
        require_both_classes(kind, n_pos, n_neg)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == -1)
    pos_sorted = pos[np.argsort(q[pos], kind="stable")]
    neg_sorted = neg[np.argsort(-q[neg], kind="stable")]
    pos_prefix = np.concatenate(([0.0], np.cumsum(q[pos_sorted])))
    neg_prefix = np.concatenate(([0.0], np.cumsum(q[neg_sorted])))

    if kind is MeasureKind.PRBEP:
        t = np.arange(min(n_pos, n_neg) + 1)
        values = -2.0 * pos_prefix[t] + 2.0 * neg_prefix[t] + loss_grid(kind, t, t, n_pos, n_neg)
        best_flat = int(np.argmax(values))
        best_value = float(values[best_flat])
        best_a = best_b = best_flat
    elif kind is MeasureKind.AUC:
        # The pairwise loss collapses to fn/(2 n_pos) + fp/(2 n_neg), so the
        # two flip counts maximize independently; first argmax per axis is
        # the lexicographically smallest maximizing pair.
        pos_part = -2.0 * pos_prefix + np.arange(n_pos + 1) / (2.0 * n_pos)
        neg_part = 2.0 * neg_prefix + np.arange(n_neg + 1) / (2.0 * n_neg)
        best_a = int(np.argmax(pos_part))
        best_b = int(np.argmax(neg_part))
        best_value = float(pos_part[best_a] + neg_part[best_b])
    elif n_pos == 0:  # F1 without positives: loss 0 at b = 0, else 1
        values = 2.0 * neg_prefix + 1.0
        values[0] = 0.0
        best_a, best_b = 0, int(np.argmax(values))
        best_value = float(values[best_b])
    else:
        # one row per a; past n_neg a row reads -inf
        a = np.arange(n_pos + 1)
        tp2 = 2.0 * (n_pos - a)
        offset = tp2 + a
        pos_linear = 2.0 * pos_prefix
        rounds = n_neg.bit_length()
        neg_linear = np.full(1 << rounds, -np.inf)
        neg_linear[: n_neg + 1] = 2.0 * neg_prefix

        def row_values(b):
            # this order fixes the bits of max_value; keep it
            return ((neg_linear[b] - pos_linear) + 1.0) - tp2 / (offset + b)

        # round r tests the step into row_best + 2^r, from both of its sides
        steps = (1 << np.arange(rounds))[:, None, None] + np.array([[-1], [0]])
        row_best = np.zeros(n_pos + 1, dtype=np.int64)
        for step in steps[::-1]:
            sides = row_best + step
            values = row_values(sides)
            np.copyto(row_best, sides[1], where=values[1] > values[0])
        values = row_values(row_best)
        best_a = int(np.argmax(values))
        best_b = int(row_best[best_a])
        best_value = float(values[best_a])
    representative = y.copy()
    representative[pos_sorted[:best_a]] = -1
    representative[neg_sorted[:best_b]] = 1
    return ArgmaxResult(best_value, (representative,))


def upper_bound(w, codes, y_true, kind: MeasureKind | str) -> float:
    """Upper bound of the tuple loss of :func:`predict`: the maximum of F.

    Public API: acceptance criterion 1 calls it.  ``fit`` never does: it
    reads ``argmax_F_oracle(...).max_value``, since it also needs the
    maximizer from the same call.  So ``bench/tracing.py``'s
    ``hyperloss.upper_bound_s``, which times this function during ``train``,
    reads 0.
    """
    return argmax_F_oracle(w, codes, y_true, kind).max_value


def flip_coefficients(y_true, maximizers, c3: float) -> np.ndarray:
    """Per-point mismatch coefficients averaged over the tie set.

    Entry i is ``(c3 / |tie set|) * sum over maximizers of (y''_i - y_i)``;
    the loss gradient for code i is this coefficient times ``w`` and the
    loss part of the ``w`` gradient is ``codes @ coefficients``.
    """
    y = as_label_array(y_true)
    if len(maximizers) == 0:
        raise ValueError("empty maximizer set")
    stacked = np.stack([as_label_array(m) for m in maximizers])
    if stacked.shape[1] != y.size:
        raise ValueError("maximizer length does not match the truth tuple")
    return (c3 / stacked.shape[0]) * (stacked - y[None, :]).sum(axis=0).astype(np.float64)


def loss_gradient_w(w, codes, coefficients, c2: float) -> np.ndarray:
    """Gradient in ``w`` of the complexity term plus the frozen-tie-set bound.

    ``coefficients`` are the :func:`flip_coefficients` of the frozen tie set.
    """
    w, codes = _weights_and_codes(w, codes)
    return c2 * w + codes @ coefficients
