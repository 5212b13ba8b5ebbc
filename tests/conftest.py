"""Test-session setup shared by every test module.

BLAS runs single-threaded unless the caller's environment says otherwise.
The random-matrix checks multiply and exponentiate N = 300 complex matrices
thousands of times; with OpenBLAS's default threading on a small, shared
machine each product is several times slower than on one thread (about
3x on 2 vCPUs), which makes the suite's wall time depend on the host's load.
The variables must be set before numpy is first imported, which pytest does
only after loading this file.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
