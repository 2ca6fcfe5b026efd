"""Shared generators and independent oracles for the test suite."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from sparsetuple import Dataset
from sparsetuple.hyperloss import ArgmaxResult, point_scores
from sparsetuple.measures import MeasureKind, as_label_array, loss_grid

ALL_KINDS = (MeasureKind.F1, MeasureKind.PRBEP, MeasureKind.AUC)

# A schema-version-1 model (d=3, m=4, 3 iterations) written before version 2.
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"
# A schema-version-2 model (d=3, m=4, 3 iterations) whose config still carries
# retired keys, ``encode_iters`` among them.
MODEL_V2 = Path(__file__).parent / "data" / "model_v2.json"


def make_gaussian_dataset(seed=12345, n=200, d=10, separation=1.5, n_pos=None) -> Dataset:
    """Two-Gaussian data with class means at +/- separation, balanced by default."""
    rng = np.random.default_rng(seed)
    half = n // 2 if n_pos is None else n_pos
    pos = rng.normal(loc=separation, scale=1.0, size=(half, d))
    neg = rng.normal(loc=-separation, scale=1.0, size=(n - half, d))
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(half, dtype=np.int64), -np.ones(n - half, dtype=np.int64)])
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])


def random_instance(rng, kind, n_max=12, m_max=4):
    """Random (w, codes, labels) instance with entries uniform in [-1, 1].

    For PRBEP and AUC the labels are forced to contain both classes.
    """
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    labels = rng.choice([-1, 1], size=n)
    if kind is not MeasureKind.F1 and len(np.unique(labels)) < 2:
        labels[0], labels[1] = 1, -1
    w = rng.uniform(-1.0, 1.0, m)
    codes = rng.uniform(-1.0, 1.0, (m, n))
    return w, codes, labels


def exhaustive_label_tuples(n):
    """All 2^n label tuples as an array, built independently of the package."""
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)


BRUTEFORCE_MAX_POINTS = 20


def _all_label_tuples(n: int) -> np.ndarray:
    """All 2^n label tuples; row r maps bit i of r to the label of point i."""
    indices = np.arange(2**n, dtype=np.int64)
    bits = (indices[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def argmax_F_bruteforce(
    w, codes, y_true, kind: MeasureKind, max_points: int = BRUTEFORCE_MAX_POINTS
) -> ArgmaxResult:
    """Exact maximum of F by enumerating the whole tuple space: the oracle's reference.

    Returns every maximizer (the tie set, compared at exact float equality).
    Guarded to small n; use :func:`argmax_F_oracle` beyond the guard.
    """
    q = point_scores(w, codes)
    y = as_label_array(y_true)
    n = y.size
    if q.size != n:
        raise ValueError(f"dimension mismatch: {q.size} points vs {n} labels")
    if n > max_points:
        raise ValueError(
            f"brute-force enumeration refused for n={n} > {max_points}; "
            "use argmax_F_oracle instead"
        )
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = n - n_pos
    candidates = _all_label_tuples(n)
    fn = np.count_nonzero((candidates == -1) & (y == 1)[None, :], axis=1)
    fp = np.count_nonzero((candidates == 1) & (y == -1)[None, :], axis=1)
    if kind is MeasureKind.PRBEP:
        keep = fn == fp
        candidates, fn, fp = candidates[keep], fn[keep], fp[keep]
    linear = (candidates - y[None, :]).astype(np.float64) @ q
    values = linear + loss_grid(kind, fn, fp, n_pos, n_neg)
    max_value = float(values.max())
    selected = np.flatnonzero(values == max_value)
    maximizers = tuple(candidates[i].astype(np.int64) for i in selected)
    return ArgmaxResult(max_value, maximizers)


def lagrangian_gradient(X, S, alphas, elements) -> np.ndarray:
    """Gradient in D of the norm-constrained reconstruction Lagrangian."""
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    elements = np.asarray(elements, dtype=np.float64)
    return -2.0 * (X - elements @ S) @ S.T + 2.0 * elements * alphas[None, :]


def central_difference(func, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[j] += h
        backward[j] -= h
        grad[j] = (func(forward) - func(backward)) / (2.0 * h)
    return grad


def pairwise_auc(labels, scores):
    """Literal pair-counting AUC with ties worth 0.5 (quadratic oracle)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


@pytest.fixture(scope="session")
def gate_dataset():
    return make_gaussian_dataset()
