"""Pin BLAS to one thread before any test module imports NumPy.

The tests make many small eigh/matmul calls, where a multi-threaded BLAS
only adds synchronisation, and on a busy machine oversubscribes the
cores.  Values already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
