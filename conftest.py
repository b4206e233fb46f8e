"""Suite-wide test settings: numpy's BLAS runs one thread, as in perfbench/run.py.

The tests multiply tiny matrices, on which a second BLAS thread only spins:
on a 2-core host it doubled criterion 02's CPU time and saved no wall time.
OpenBLAS reads these variables once, when numpy is first imported, and this
file is imported before any test module.
"""

import os
import sys

NUMPY_LOADED_BEFORE = "numpy" in sys.modules  # read by tests/test_pytest_config.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
