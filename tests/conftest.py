import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` -> (fn's result, peak bytes tracemalloc saw while fn ran).

    Only memory allocated during the call counts, its result included;
    numpy reports its array buffers to tracemalloc.
    """

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
