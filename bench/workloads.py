"""Workload definitions and the seeded two-Gaussian input generator.

Every input the benchmark hands to the program is written here, through
the package's own ``serialize_svmlight``: the held-out file from the seed
the benchmark takes on its command line, the training file from one fixed
draw.  The generator follows the recipe of the acceptance gate's data (class
means at +/- separation on every coordinate, unit variance, positives
stacked first, then one permutation), so the ``gate`` training file is
byte-identical to the one ``tests/test_acceptance.py`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsetuple.dataio import Dataset, serialize_svmlight

# Every workload trains on one fixed draw, the acceptance gate's seed (see
# tests/test_acceptance.py); the benchmark's seed draws the held-out file.
# On f1_imbalanced the held-out F1 of a model ranges 0.43-0.53 across four
# training draws, so a seeded training draw would leave the quality metrics
# no useful bound, and the dual ascent's early stops can make fit time vary
# with the draw as well.
TRAIN_SEED = 12345


@dataclass(frozen=True)
class Workload:
    """One fixed problem: data shape, CLI training flags and CV folds."""

    name: str
    n_train: int
    n_heldout: int
    d: int
    positive_fraction: float
    separation: float
    flags: tuple[str, ...]
    folds: int
    # Criterion 7 of the acceptance suite: CV medians must clear these.
    cv_thresholds: tuple[tuple[str, float], ...] = ()

    @property
    def dict_size(self) -> int:
        """The m that ``train`` must produce: ``--dict-size`` or min(2d, n)."""
        if "--dict-size" in self.flags:
            return int(self.flags[self.flags.index("--dict-size") + 1])
        return min(2 * self.d, self.n_train)


GATE_FLAGS = (
    "--measure", "f1", "--c1", "0.1", "--c2", "0.01", "--c3", "1.0",
    "--iters", "100", "--eta", "0.01", "--dict-size", "20", "--seed", "7",
)

# Why each workload exists: BENCHMARK.json and README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate",
            n_train=200, n_heldout=2000, d=10, positive_fraction=0.5, separation=1.5,
            flags=GATE_FLAGS, folds=10,
            cv_thresholds=(("f1", 0.90), ("auc", 0.95)),
        ),
        Workload(
            name="f1_imbalanced",
            n_train=6000, n_heldout=8000, d=20, positive_fraction=0.2, separation=0.3,
            flags=("--measure", "f1", "--iters", "6"), folds=2,
        ),
        Workload(
            name="auc_wide",
            n_train=2000, n_heldout=3000, d=60, positive_fraction=0.5, separation=0.2,
            flags=("--measure", "auc", "--iters", "4"), folds=2,
        ),
    )
}


def two_gaussian(seed, n: int, d: int, positive_fraction: float, separation: float) -> Dataset:
    """Two unit-variance Gaussian classes with means at +/- ``separation``."""
    rng = np.random.default_rng(seed)
    n_pos = round(n * positive_fraction)
    pos = rng.normal(loc=separation, scale=1.0, size=(n_pos, d))
    neg = rng.normal(loc=-separation, scale=1.0, size=(n - n_pos, d))
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n - n_pos, dtype=np.int64)])
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])


def make_inputs(workload: Workload, seed: int) -> dict[str, str]:
    """The svmlight texts of a workload's ``train`` and ``heldout`` files."""
    shape = (workload.d, workload.positive_fraction, workload.separation)
    return {
        "train": serialize_svmlight(two_gaussian(TRAIN_SEED, workload.n_train, *shape)),
        "heldout": serialize_svmlight(two_gaussian([seed, 1], workload.n_heldout, *shape)),
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files into ``directory``; returns their paths."""
    paths = {}
    for role, text in make_inputs(workload, seed).items():
        paths[role] = directory / f"{role}.svm"
        paths[role].write_text(text, encoding="utf-8")
    return paths
