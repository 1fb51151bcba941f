import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(call): the most memory traced while call() ran, in bytes.

    numpy reports its array buffers to tracemalloc, so the peak counts
    every array a sampler holds at once."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
