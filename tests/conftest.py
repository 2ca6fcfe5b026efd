"""Shared generators and independent oracles for the test suite."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from sparsetuple import Dataset
from sparsetuple.measures import MeasureKind

ALL_KINDS = (MeasureKind.F1, MeasureKind.PRBEP, MeasureKind.AUC)

# A schema-version-1 model (d=3, m=4, 3 iterations) written before version 2.
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"
# A schema-version-2 model (d=3, m=4, 3 iterations) whose config still carries
# the retired ``encode_iters`` key.
MODEL_V2 = Path(__file__).parent / "data" / "model_v2.json"


def make_gaussian_dataset(seed=12345, n=200, d=10, separation=1.5) -> Dataset:
    """Balanced two-Gaussian data with class means at +/- separation."""
    rng = np.random.default_rng(seed)
    half = n // 2
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
