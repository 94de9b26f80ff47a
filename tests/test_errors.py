"""Every error class pickles whole: class, message and attributes.

A sweep row may run in a worker process, and what it raises reaches the
parent through pickle.
"""

import inspect
import pickle

import numpy as np
import pytest

from fracmp import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.FracmpError)]


def _make(cls):
    if issubclass(cls, errors.GateError):
        return cls([errors.ExponentWindowError("q = 9 outside (1, 4)"),
                    errors.PotentialGateError("c_V = 20 >= lambda1")])
    if issubclass(cls, errors.SolverError):
        return cls("descent stalled", last=np.linspace(0.0, 1.0, 5),
                   iterations=17, residual=3.5e-4)
    if issubclass(cls, errors.ExportError):
        return cls("cannot write", "out/table.csv")
    return cls("%s message" % cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = _make(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    for name in ("iterations", "residual", "path"):
        assert getattr(back, name, None) == getattr(exc, name, None)
    if isinstance(exc, errors.SolverError):
        assert back.last.tobytes() == exc.last.tobytes()
    if isinstance(exc, errors.GateError):
        assert [(type(v), str(v)) for v in back.violations] == \
            [(type(v), str(v)) for v in exc.violations]
