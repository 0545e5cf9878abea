"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most memory ``fn()`` held at once, in bytes above
    what was in use when it started, as tracemalloc counts it (NumPy's
    array buffers included)."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak
