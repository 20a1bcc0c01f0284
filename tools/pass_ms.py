"""Time the model's forward passes and fingerprint their outputs.

Prints the sgemm kernel that numpy's OpenBLAS loaded for this CPU, then, for
the desk model (ModelConfig()) on one thread, per forward function: the
median milliseconds of N calls on one fixed input, and the sha256 of its
outputs (transmitter features; receiver logits, then labels). The outputs
are the same bits at any thread count, but they depend on that kernel, so
compare fingerprints only between runs that print the same kernel.

    PYTHONPATH=src python tools/pass_ms.py [-n N] [--full]

--full adds the full-scale model (ModelConfig.full_scale()), at min(N, 5)
calls per function.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark; set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from splitseg import model as M  # noqa: E402
from splitseg import tensor_ops as T  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def passes(cfg: M.ModelConfig, n: int) -> list[tuple[str, float, str]]:
    """Per forward function: (name, median ms of n calls, sha256 of its outputs)."""
    weights = M.build(cfg)
    image = np.random.default_rng(0).random((3, cfg.input_height, cfg.input_width), dtype=np.float32)
    features = M.forward_transmitter(image, weights)
    runs = (
        ("forward_transmitter", lambda: M.forward_transmitter(image, weights), lambda f: digest(f)),
        ("forward_receiver", lambda: M.forward_receiver(features, weights), lambda r: digest(r[0], r[1].labels)),
        ("forward_full", lambda: M.forward_full(image, weights), lambda r: digest(r[0], r[1].labels)),
    )
    rows = []
    for name, call, fingerprint in runs:
        ms, out = [], None
        for _ in range(n):
            start = perf_counter()
            out = call()
            ms.append(1e3 * (perf_counter() - start))
        rows.append((name, statistics.median(ms), fingerprint(out)))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=50, help="calls per forward function (default 50)")
    parser.add_argument("--full", action="store_true", help="also time the full-scale model")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    T.threads = 1
    print(f"openblas core: {T.openblas_core() or 'unknown'}")
    scales = [("desk", M.ModelConfig(), args.n)]
    if args.full:
        scales.append(("full_scale", M.ModelConfig.full_scale(), min(args.n, 5)))
    for scale, cfg, n in scales:
        for name, ms, sha in passes(cfg, n):
            print(f"{scale:<11} {name:<20} {ms:9.3f} ms  (median of {n})  sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
