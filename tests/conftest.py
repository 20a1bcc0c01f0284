"""Test session set-up.

One BLAS thread unless the caller chose otherwise: the model's small
matrix products run several times slower under OpenBLAS's own thread
pool, and large layers already split across cores in `tensor_ops`.
The variables are read when numpy loads, so they are set here, before
any test module imports it.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
