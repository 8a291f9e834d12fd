"""Fixtures shared by the test modules: a pair helper of a test's own."""

import pytest

from sbopt import _pair, kriging


def own_helper(monkeypatch):
    """A booted pair helper in place of the shared one, which is kept."""
    monkeypatch.setattr(_pair, "_helper", None)
    helper = _pair.process_helper()
    assert helper.conn.poll(60)  # jobs run in the caller until it has booted
    return helper


@pytest.fixture
def fresh_helper(monkeypatch):
    """A booted pair helper of the test's own, closed after it."""
    helper = own_helper(monkeypatch)
    yield helper
    helper.close()


@pytest.fixture
def kriging_helper(monkeypatch):
    """A pair helper of the test's own that takes kriging's halves from the first job.

    It starts with the BLAS thread variables at 1, which opens the split
    (``kriging._one_blas_thread``) and keeps the helper's BLAS to one
    thread; the tests' own BLAS keeps the threads it loaded with.  It has
    loaded scipy before the test starts.
    """
    for var in kriging._BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    helper = own_helper(monkeypatch)
    _pair.prepare(kriging._scipy)
    while not helper.idle():  # it owes "ready", then the prepare's reply
        assert helper.conn.poll(60)
    yield helper
    helper.close()
