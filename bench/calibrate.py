"""Machine-speed probe: a fixed numpy kernel that does not use splitseg.

The shared machine this benchmark was built on changes speed by up to 2x
over minutes (no CPU steal: the same instructions simply run slower). This
kernel, timed in the benchmark process right before and after each measured
interval, tracks that drift; run.py divides it out. It mixes the kinds of
work the sweep does: many small tensordots (call overhead, like the
desk-scale convolutions), larger GEMMs, a distance/argmin pass (like
demodulation), a bilinear-style gather and Gaussian noise generation. It
allocates about 10 MB and frees it before returning, below what any sweep
allocates, so it does not raise the process's peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel seconds on the reference machine (the 2-vCPU Xeon VM the benchmark
# was built on) in a calm period; reference seconds are expressed in it.
REFERENCE_S = 0.25

_CHUNK = 1 << 15


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    rng = np.random.Generator(np.random.Philox(7))
    w = rng.random((16, 16), dtype=np.float32)
    x = rng.random((16, 32, 32), dtype=np.float32)
    a = rng.random((64, 576), dtype=np.float32)
    b = rng.random((576, 1024), dtype=np.float32)
    y = rng.standard_normal(_CHUNK) + 1j * rng.standard_normal(_CHUNK)
    points = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    img = rng.random((16, 128, 128), dtype=np.float32)
    idx = np.minimum(np.arange(256) // 2, 127)

    t0 = perf_counter()
    acc = np.zeros((16, 32, 32), dtype=np.float32)
    for _ in range(1400):
        acc += np.tensordot(w, x, axes=([1], [0]))
    for _ in range(40):
        a @ b
    for _ in range(8):
        d = (y.real[:, None] - points.real[None, :]) ** 2
        d += (y.imag[:, None] - points.imag[None, :]) ** 2
        np.argmin(d, axis=1)
    for _ in range(20):
        img[:, idx[:, None], idx[None, :]]
    for _ in range(8):
        rng.normal(0.0, 1.0, size=(1 << 17, 2))
    return perf_counter() - t0
