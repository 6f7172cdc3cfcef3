"""Run the test process with one OpenBLAS thread, as `import spinotto` sets
for a program. The test modules import numpy before spinotto, and OpenBLAS
reads OPENBLAS_NUM_THREADS once, as numpy loads it; pytest imports this file
before any test module. A thread count set in the environment is kept."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
