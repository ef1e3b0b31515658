"""Invariant manifolds, time-T graph families, stable foliations, and
induced leaf flows for finite-dimensional gradient flows near hyperbolic
critical points, built on contraction operators over exponentially weighted
curve spaces and validated against forward-shooting oracles."""

import os

# The matrices here have at most a few hundred entries, so a second BLAS
# thread only spins: on a 2-vCPU machine, ``gradleaf all`` on p2_quartic took
# a median 0.58 s of wall time (0.55 s of CPU) with OpenBLAS's default thread
# count and 0.52 s (0.51 s) with one thread, over 8 alternating runs.  Set
# before numpy is first imported; a value the caller sets is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
