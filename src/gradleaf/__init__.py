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

from .local_model import (
    LocalModel,
    RateLadder,
    build_ladder,
    calibrate_ladder,
    lipschitz_modulus,
)
from .curves import Curve, PanelGrid
from .flow import DescendingDisk, Trajectory, descending_disk, integrate_forward
from .foliation import ConleyPair, FoliationAtlas, Leaf, build_atlas, build_pair, induced_flow
from .lyapunov_perron import (
    FixedPointResult,
    GraphSample,
    IntegralOperator,
    PhiOperator,
    PsiOperator,
    PsiTOperator,
    SolverCache,
    backward_orbit,
    fixed_point,
    graph_F_inf,
    graph_G_T,
    graph_G_inf,
    solve_mixed,
)
from .oracle import mixed_bvp_oracle
from .problems import GradientProblem, load_problem, problem_from_dict
from .spectral import SpectralSplit, split

__version__ = "0.1.0"
