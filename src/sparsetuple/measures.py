"""Multivariate performance measures over binary label tuples.

A measure compares a whole tuple of true labels in {+1, -1} against a whole
tuple of predictions (or real-valued scores).  Each measure also has a tuple
loss in [0, 1] that is 0 at a perfect prediction and depends on the two
tuples only through the confusion counts, which is what makes the label-tuple
search in :mod:`sparsetuple.hyperloss` tractable.

Conventions baked in here:

* F1 loss is ``1 - 2*tp / (2*tp + fp + fn)``, defined as 0 when the
  denominator vanishes (no positives anywhere, the limit convention).
* AUC loss counts discordant (positive, negative) pairs of the two-level
  ranking induced by the predicted labels, with tied pairs worth 0.5.
* PRBEP is only defined on tuples with ``fp == fn`` (precision equals
  recall there); everything else raises :class:`UndefinedTupleLossError`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeasureKind",
    "ConfusionCounts",
    "DegenerateClassError",
    "UndefinedTupleLossError",
    "as_label_array",
    "confusion_counts",
    "require_both_classes",
    "loss_grid",
    "tuple_loss",
    "auc_from_scores",
    "prbep_from_scores",
]


class DegenerateClassError(ValueError):
    """A measure required both classes but the truth contains only one."""


class UndefinedTupleLossError(ValueError):
    """PRBEP loss requested on a tuple with unequal false counts."""


class MeasureKind(Enum):
    """The supported multivariate performance measures."""

    F1 = "f1"
    PRBEP = "prbep"
    AUC = "auc"

    @classmethod
    def parse(cls, name: "str | MeasureKind") -> "MeasureKind":
        """The member that ``name`` is or names, case and outer blanks ignored."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown measure {name!r}; expected one of: {valid}") from None


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int


def as_label_array(labels) -> np.ndarray:
    """Validate a label sequence and return it as an int array of +1/-1."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("labels must be a nonempty 1-D sequence")
    # Text never equals a number, and comparing it with one warns on numpy 1.24.
    if arr.dtype.kind in "US" or not np.all((arr == 1) | (arr == -1)):
        raise ValueError("labels must contain only +1 and -1")
    return arr.astype(np.int64, copy=False)


def confusion_counts(y_true, y_pred) -> ConfusionCounts:
    """Exact confusion counts between two label tuples of equal length."""
    yt = as_label_array(y_true)
    yp = as_label_array(y_pred)
    if yt.size != yp.size:
        raise ValueError(f"length mismatch: {yt.size} true labels vs {yp.size} predictions")
    tp = int(np.count_nonzero((yt == 1) & (yp == 1)))
    fp = int(np.count_nonzero((yt == -1) & (yp == 1)))
    tn = int(np.count_nonzero((yt == -1) & (yp == -1)))
    fn = int(np.count_nonzero((yt == 1) & (yp == -1)))
    return ConfusionCounts(tp, fp, tn, fn)


def require_both_classes(kind: MeasureKind, n_pos: int, n_neg: int) -> None:
    """Raise :class:`DegenerateClassError` unless the truth holds both classes."""
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError(
            f"degenerate class: {kind.value} needs both classes in the truth "
            f"(n_pos={n_pos}, n_neg={n_neg})"
        )


def loss_grid(kind: MeasureKind | str, fn, fp, n_pos: int, n_neg: int) -> np.ndarray:
    """Tuple losses for arrays of (fn, fp) counts against a fixed truth.

    ``fn`` and ``fp`` broadcast against each other; the result has the
    broadcast shape.  Domain checks are the caller's job except for the
    class-presence requirements of AUC and PRBEP, which are enforced here.
    """
    kind = MeasureKind.parse(kind)
    fn = np.asarray(fn, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    if kind is MeasureKind.F1:
        tp = n_pos - fn
        denom = 2.0 * tp + fn + fp
        return np.where(denom > 0, 1.0 - 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    require_both_classes(kind, n_pos, n_neg)
    if kind is MeasureKind.AUC:
        wrong = fn * fp
        tied = fn * (n_neg - fp) + (n_pos - fn) * fp
        return (wrong + 0.5 * tied) / (n_pos * n_neg)
    if not np.all(fn == fp):  # PRBEP
        raise UndefinedTupleLossError("PRBEP loss is undefined for tuples with fp != fn")
    return fn / n_pos


def tuple_loss(kind: MeasureKind | str, y_true, y_pred) -> float:
    """Loss of a predicted label tuple against the truth, in [0, 1]."""
    counts = confusion_counts(y_true, y_pred)
    n_pos = counts.tp + counts.fn
    n_neg = counts.tn + counts.fp
    return float(loss_grid(kind, counts.fn, counts.fp, n_pos, n_neg))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    mid = starts + (counts + 1) / 2.0
    return mid[inverse]


def _truth_and_scores(kind: MeasureKind, y_true, scores):
    """Checked truth and finite scores of its length, and the positive count; needs both classes."""
    y = as_label_array(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"length mismatch: {y.size} labels vs {s.size} scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.count_nonzero(y == 1))
    require_both_classes(kind, n_pos, y.size - n_pos)
    return y, s, n_pos


def auc_from_scores(y_true, scores) -> float:
    """Fraction of (positive, negative) pairs ranked correctly by the scores.

    Ties count 0.5, so this is the usual rank-based AUC and is invariant
    under any strictly increasing transform of the scores.
    """
    y, s, n_pos = _truth_and_scores(MeasureKind.AUC, y_true, scores)
    ranks = _midranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (y.size - n_pos))


def prbep_from_scores(y_true, scores) -> float:
    """Precision at the break-even operating point of a score ranking.

    Exactly the ``n_pos`` highest-scoring points are predicted positive,
    which forces precision == recall.  Ties at the cutoff are broken by
    stable input order, so the result is deterministic.
    """
    y, s, n_pos = _truth_and_scores(MeasureKind.PRBEP, y_true, scores)
    order = np.argsort(-s, kind="stable")
    top = order[:n_pos]
    return float(np.count_nonzero(y[top] == 1)) / n_pos
