import sys
from pathlib import Path

import numpy as np
import pytest

from lqomor import matfun

sys.path.insert(0, str(Path(__file__).resolve().parent))


class LapackCalls:
    """The dense kernels ``matfun`` ran: the matrix of each ``schur`` and
    ``eigvals`` call and the right-hand-side shape of each ``dtrsyl`` call."""

    def __init__(self):
        self.schur = []
        self.eigvals = []
        self.trsyl = []

    def factored(self, a):
        """How often ``schur`` ran on a matrix equal to ``a``."""
        return sum(np.array_equal(x, a) for x in self.schur)


@pytest.fixture
def lapack_calls(monkeypatch):
    """A :class:`LapackCalls` that records every call from here on."""
    calls = LapackCalls()

    def recording(original, log, record):
        def wrapper(*args, **kwargs):
            log.append(record(args))
            return original(*args, **kwargs)

        return wrapper

    for name in ("schur", "eigvals"):
        monkeypatch.setattr(matfun.sla, name, recording(
            getattr(matfun.sla, name), getattr(calls, name), lambda args: np.array(args[0])
        ))
    monkeypatch.setattr(matfun.sla.lapack, "dtrsyl", recording(
        matfun.sla.lapack.dtrsyl, calls.trsyl, lambda args: np.shape(args[2])
    ))
    return calls

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        mark = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{mark}  {name}")
