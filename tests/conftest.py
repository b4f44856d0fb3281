"""Fixtures shared across the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced():
    """``traced(fn, *args)`` calls ``fn`` under tracemalloc and returns
    ``(result, held, peak)``: the bytes the call allocated that are still
    live when it returns, and the most they reached during the call."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak
    return run
