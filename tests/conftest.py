"""Pin BLAS to one thread for the whole suite.

Criterion 3's loss curve and run time depend on the BLAS thread count,
and two suites sharing a machine at several threads each slow each other
down. The variables only take effect if they are set before numpy is
first imported; neither pytest nor hypothesis imports it before this
file is loaded.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
