"""Error taxonomy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error records and map failures onto exit codes.
"""


class GradleafError(Exception):
    """Base class; ``code`` identifies the error kind in reports."""

    code = "error"


class ConfigError(GradleafError):
    code = "config"


# -- spectral ---------------------------------------------------------------

class NotSymmetric(GradleafError):
    code = "not_symmetric"


class DegenerateCriticalPoint(GradleafError):
    code = "degenerate_critical_point"


class IndexOutOfRange(GradleafError):
    """Morse index 0 or n: no transverse graph family exists."""

    code = "index_out_of_range"


# -- local model ------------------------------------------------------------

class OutOfTrustRegion(GradleafError):
    code = "out_of_trust_region"


class LadderInfeasible(GradleafError):
    code = "ladder_infeasible"


class OutsideSampledDomain(GradleafError):
    code = "outside_sampled_domain"


# -- flow -------------------------------------------------------------------

class BlowUp(GradleafError):
    code = "blow_up"


class LevelNotReached(GradleafError):
    code = "level_not_reached"


# -- contraction solvers ----------------------------------------------------

class NormBudgetExceeded(GradleafError):
    code = "norm_budget_exceeded"


class HorizonMismatch(GradleafError):
    code = "horizon_mismatch"


class NoConvergence(GradleafError):
    code = "no_convergence"


class EndpointViolation(GradleafError):
    code = "endpoint_violation"


# -- foliation --------------------------------------------------------------

class ComponentAmbiguous(GradleafError):
    code = "component_ambiguous"


class OutsideLeafDomain(GradleafError):
    code = "outside_leaf_domain"


# -- oracle -----------------------------------------------------------------

class NewtonDiverged(GradleafError):
    code = "newton_diverged"


#: errors that indicate a misconfigured run rather than a solver failure
CONFIG_ERRORS = (
    ConfigError,
    NotSymmetric,
    DegenerateCriticalPoint,
    IndexOutOfRange,
    LadderInfeasible,
    OutOfTrustRegion,
    OutsideSampledDomain,
    LevelNotReached,
    HorizonMismatch,
    OutsideLeafDomain,
)

class BoundViolation(GradleafError):
    """A quantitative estimate failed beyond its tolerance budget."""

    code = "bound_violation"


#: errors that indicate a quantitative bound was violated beyond budget
BOUND_ERRORS = (
    EndpointViolation,
    BoundViolation,
)
