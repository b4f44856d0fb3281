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


_FROZEN_RUN = pytest.StashKey[tuple]()


@pytest.hookimpl(wrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """Keep the value of ``test_acceptance.py``'s ``frozen_benchmark`` fixture,
    so a later module can read the seed-42 run without training again."""
    value = yield
    if fixturedef.argname == "frozen_benchmark":
        request.config.stash[_FROZEN_RUN] = value
    return value


@pytest.fixture(scope="session")
def frozen_seed42_run(request):
    """``(BenchmarkResult, elapsed, orders, graph)`` of the frozen seed-42 run:
    the acceptance fixture's value when it ran first, else a fresh run."""
    if _FROZEN_RUN not in request.config.stash:
        from test_frozen_digests import frozen_run
        request.config.stash[_FROZEN_RUN] = frozen_run()
    return request.config.stash[_FROZEN_RUN]
