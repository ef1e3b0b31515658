"""Error taxonomy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error records.  The CLI's exit code follows the class: a
``BoundViolation`` is a failed quantitative bound, a ``ConfigError`` a
misconfigured run, and any other ``GradleafError`` a solver failure.
"""


class GradleafError(Exception):
    """Base class; ``code`` identifies the error kind in reports."""

    code = "error"


class ConfigError(GradleafError):
    code = "config"


class BoundViolation(GradleafError):
    """A quantitative estimate failed beyond its tolerance budget."""

    code = "bound_violation"


# -- spectral ---------------------------------------------------------------

class NotSymmetric(ConfigError):
    code = "not_symmetric"


class DegenerateCriticalPoint(ConfigError):
    code = "degenerate_critical_point"


class IndexOutOfRange(ConfigError):
    """Morse index 0 or n: no transverse graph family exists."""

    code = "index_out_of_range"


# -- local model ------------------------------------------------------------

class OutOfTrustRegion(ConfigError):
    code = "out_of_trust_region"


class LadderInfeasible(ConfigError):
    code = "ladder_infeasible"


class OutsideSampledDomain(ConfigError):
    code = "outside_sampled_domain"


# -- flow -------------------------------------------------------------------

class BlowUp(GradleafError):
    code = "blow_up"


class LevelNotReached(ConfigError):
    code = "level_not_reached"


# -- contraction solvers ----------------------------------------------------

class NormBudgetExceeded(GradleafError):
    code = "norm_budget_exceeded"


class NoConvergence(GradleafError):
    code = "no_convergence"


class EndpointViolation(BoundViolation):
    code = "endpoint_violation"


# -- foliation --------------------------------------------------------------

class ComponentAmbiguous(GradleafError):
    code = "component_ambiguous"


class OutsideLeafDomain(ConfigError):
    code = "outside_leaf_domain"


# -- oracle -----------------------------------------------------------------

class NewtonDiverged(GradleafError):
    code = "newton_diverged"
