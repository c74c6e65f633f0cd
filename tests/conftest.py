"""Shared test setup.

g1rad is imported before any test module loads numpy or scipy. The package
root pins OpenBLAS to one thread, but only for BLAS libraries loaded after
it. Test modules import numpy first, so without this the tests would run on
threaded BLAS, where scipy's getrf can round differently from the
single-threaded kernels that the package and its users get.
"""

import pytest

import g1rad  # noqa: F401
from g1rad import linalg


@pytest.fixture
def getrf_calls(monkeypatch):
    """The shapes that linalg.resolvents passes to getrf, in order."""
    calls = []
    getrf = linalg._GETRF

    def counted(m):
        calls.append(m.shape)
        return getrf(m)

    monkeypatch.setattr(linalg, "_GETRF", counted)
    return calls
