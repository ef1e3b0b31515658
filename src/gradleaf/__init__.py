"""Invariant manifolds, time-T graph families, stable foliations, and
induced leaf flows for finite-dimensional gradient flows near hyperbolic
critical points, built on contraction operators over exponentially weighted
curve spaces and validated against forward-shooting oracles."""

from .local_model import (
    KappaModulus,
    LocalModel,
    RateLadder,
    build_ladder,
    calibrate_ladder,
    flatten_map,
    lipschitz_modulus,
    nonlinearity,
)
from .curves import Curve, PanelGrid
from .flow import DescendingDisk, Trajectory, algebraic_backward, descending_disk, integrate_forward
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
    graph_derivative,
    solve_mixed,
    solve_stable,
)
from .oracle import ShootingResult, mixed_bvp_oracle, stable_point_oracle
from .problems import GradientProblem, load_problem, problem_from_dict
from .spectral import SpectralSplit, flow_exponential, restricted_exponential, split

__version__ = "0.1.0"
