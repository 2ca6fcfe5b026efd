"""Joint sparse coding with a tuple-level linear predictor.

The package learns, from a tuple of labeled points, a dictionary, one sparse
code per point, and a weight vector whose tuple-level predictions are
trained to minimize an upper bound of a chosen multivariate loss (F1,
precision-recall break-even point, or AUC) rather than a per-point loss.
"""

from .dataio import Dataset, DatasetFormatError, kfold_split, parse_csv, parse_svmlight
from .measures import (
    ConfusionCounts,
    DegenerateClassError,
    MeasureKind,
    UndefinedTupleLossError,
    auc_from_scores,
    confusion_counts,
    prbep_from_scores,
    tuple_loss,
)
from .hyperloss import ArgmaxResult, predict, upper_bound
from .sparse_coding import Dictionary
from .trainer import Model, TrainConfig, encode, fit, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "ArgmaxResult",
    "ConfusionCounts",
    "Dataset",
    "DatasetFormatError",
    "DegenerateClassError",
    "Dictionary",
    "MeasureKind",
    "Model",
    "TrainConfig",
    "UndefinedTupleLossError",
    "auc_from_scores",
    "confusion_counts",
    "encode",
    "fit",
    "kfold_split",
    "load_model",
    "parse_csv",
    "parse_svmlight",
    "predict",
    "prbep_from_scores",
    "save_model",
    "tuple_loss",
    "upper_bound",
]
