"""Test-suite setup, run before any test module imports numpy.

Importing `dado` first pins OpenBLAS to one thread, unless the caller has
chosen a count, and pins glibc's malloc thresholds, as it does for the CLI,
library users and forked sweep workers. Test modules import numpy before
`dado`, and OpenBLAS reads the setting only when numpy loads, so the suite
imports `dado` here. Without it, the desk-study fixture behind acceptance
criteria 6-9, a multi-process sweep, runs each worker with the default thread
pool and takes more than twice as long.
"""

import dado  # noqa: F401
