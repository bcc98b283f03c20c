"""Pin BLAS to one thread, as `benchmarks/run.py`'s BLAS_PIN does, before numpy loads.

The solver's matrices are small, so BLAS threads only contend for the cores
that pytest and the tests' subprocesses use. Set values are kept.
"""

import os

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(name, "1")
