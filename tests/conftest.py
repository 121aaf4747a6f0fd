import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lqomor import matfun, sysio

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def empty_load_cache():
    """Each test loads its files afresh: a system another test loaded would
    come back already factored."""
    sysio._loaded.clear()


class LapackCalls:
    """The dense kernels the library ran: the matrix of each Schur
    factorization (a ``dgees`` call that is not a workspace query) and of
    each eigenvalue call (``eigvals`` or ``eig`` of numpy or scipy), the
    right-hand-side shape of each ``dtrsyl`` call, and the matrix shape of
    each ``np.linalg.eigh`` and ``scipy.linalg.svd`` call."""

    def __init__(self):
        self.schur = []
        self.eigvals = []
        self.trsyl = []
        self.eigh = []
        self.svd = []

    def factored(self, a):
        """How often a Schur factorization ran on a matrix equal to ``a``."""
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

    gees = matfun.sla.lapack.dgees

    def factoring(select, a, *args, **kwargs):
        if kwargs.get("lwork") != -1:
            calls.schur.append(np.array(a))
        return gees(select, a, *args, **kwargs)

    monkeypatch.setattr(matfun.sla.lapack, "dgees", factoring)
    for module in (np.linalg, scipy.linalg):
        for name in ("eigvals", "eig"):
            monkeypatch.setattr(module, name, recording(
                getattr(module, name), calls.eigvals, lambda args: np.array(args[0])
            ))
    monkeypatch.setattr(matfun.sla.lapack, "dtrsyl", recording(
        matfun.sla.lapack.dtrsyl, calls.trsyl, lambda args: np.shape(args[2])
    ))
    for module, name, log in ((np.linalg, "eigh", calls.eigh), (scipy.linalg, "svd", calls.svd)):
        monkeypatch.setattr(module, name, recording(
            getattr(module, name), log, lambda args: np.shape(args[0])
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
