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

    The test runs inside rk's BLAS hold (``kriging._BLAS_HOLD``), which
    holds the test's BLAS to one thread and opens the split
    (``kriging._one_blas_thread``); the helper's environment holds its
    BLAS to one thread.  It has loaded scipy before the test starts.
    """
    helper = own_helper(monkeypatch)
    _pair.prepare(kriging._scipy)
    while not helper.idle():  # it owes "ready", then the prepare's reply
        assert helper.conn.poll(60)
    try:
        with kriging._BLAS_HOLD as held:
            if not held:
                pytest.skip("no OpenBLAS thread setter is loaded")
            yield helper
    finally:
        helper.close()
