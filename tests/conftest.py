"""Pin BLAS to one thread before numpy loads.

Seeded runs are bit-identical only at a fixed BLAS thread count: a threaded
BLAS may split a product's sums differently.  tests/test_golden.py compares
traces bit for bit, so the whole suite runs at one thread.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
