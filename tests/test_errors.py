"""Every exception of the package survives pickling, as fold workers need."""

import inspect
import pickle

import pytest

from sparsetuple import cli, dataio, hyperloss, measures, sparse_coding, trainer
from sparsetuple.dataio import DatasetFormatError
from sparsetuple.measures import DegenerateClassError, UndefinedTupleLossError
from sparsetuple.sparse_coding import SingularGramError
from sparsetuple.trainer import ModelFormatError, NumericalDivergenceError

INSTANCES = [
    (NumericalDivergenceError(12), {"iteration": 12}),
    (DatasetFormatError("malformed feature", 3), {"line": 3}),
    (DatasetFormatError("empty dataset"), {"line": None}),
    (ModelFormatError("model document must be a JSON object"), {}),
    (DegenerateClassError("degenerate class: auc needs both classes"), {}),
    (UndefinedTupleLossError("PRBEP needs equal false counts"), {}),
    (SingularGramError("code Gram matrix is singular"), {}),
]


@pytest.mark.parametrize("error, attributes", INSTANCES,
                         ids=[f"{type(e).__name__}-{i}" for i, (e, _) in enumerate(INSTANCES)])
def test_round_trips_through_pickle(error, attributes):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    for name, value in attributes.items():
        assert getattr(copy, name) == getattr(error, name) == value


def test_every_package_exception_is_covered():
    defined = {
        cls for module in (cli, dataio, hyperloss, measures, sparse_coding, trainer)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__.startswith("sparsetuple")
    }
    assert defined == {type(error) for error, _ in INSTANCES}
