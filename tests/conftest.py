"""Test session set-up and shared fixtures.

One BLAS thread unless the caller chose otherwise: the model's small
matrix products run several times slower under OpenBLAS's own thread
pool, and large layers already split across cores in `tensor_ops`.
The variables are read when numpy loads, so they are set here, before
any test module imports it (splitseg is imported only inside fixtures).
"""

import errno
import os
import tracemalloc

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


class _HalfWrittenFile:
    """A file that writes half of what it is given, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fail_write_number(monkeypatch, n):
    """Make the n-th (from 0) file that splitseg.atomic writes from now on fail half-way."""
    from splitseg import atomic

    count = []

    def opener(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        count.append(file)
        return _HalfWrittenFile(f) if len(count) == n + 1 else f

    monkeypatch.setattr(atomic, "open", opener, raising=False)


@pytest.fixture
def fail_write_number():
    """`fail_write_number(monkeypatch, n)`: see _fail_write_number."""
    return _fail_write_number


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs, its result included.

    numpy reports every array buffer to tracemalloc, so the figure is
    deterministic for a fixed sequence of array allocations.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)`: see _traced_peak."""
    return _traced_peak
