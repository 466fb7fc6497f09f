"""Test-suite setup, run before any test module imports numpy.

The surrogate's matrices are small, so OpenBLAS's extra threads buy nothing
and, in a multi-process sweep, spin on the cores the other workers need. On a
2-vCPU host a 2-job desk sweep took 49 s with the default thread count and
22 s with one thread, with identical results. The desk-study fixture behind
acceptance criteria 6-9 is such a sweep and takes most of the suite's time,
so the suite pins OpenBLAS to one thread unless the caller has chosen a count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
