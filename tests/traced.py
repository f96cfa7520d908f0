"""The traced-memory probe of the tests' working-set bounds."""

import tracemalloc


def traced_peak(call):
    """(result, peak bytes that tracemalloc saw allocated while ``call`` ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
