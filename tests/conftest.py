"""Test-suite setup, run before any test module imports numpy.

`dado/__init__.py` pins OpenBLAS to one thread, unless the caller has chosen
a count, before any of its submodules imports numpy. That covers the CLI,
library users who import `dado` first, and forked sweep workers. Test modules
import numpy before `dado`, and OpenBLAS reads the setting only when numpy
loads, so the suite sets the same default here. Without it, the desk-study
fixture behind acceptance criteria 6-9, a multi-process sweep, runs each
worker with the default thread pool and takes more than twice as long.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
