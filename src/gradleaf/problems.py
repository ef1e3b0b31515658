"""Gradient-flow problem definitions and config-file ingestion.

A problem is a smooth objective together with a hyperbolic critical point and
a trust radius for the local model around it.  Polynomial objectives are the
supported input class; gradient and Hessian evaluators are derived
symbolically from the coefficient table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .polynomials import Polynomial

GRAD_TOL = 1e-9


@dataclass(frozen=True)
class GradientProblem:
    """Objective ``f`` with a critical point and trust radius.

    ``trust_radius`` bounds the local-model ball; it is capped at 1 (in the
    Euclidean model there is no injectivity-radius constraint).  ``c21`` flags
    whether the Hessian field is locally Lipschitz; true for polynomials.
    """

    name: str
    dimension: int
    objective: Polynomial
    critical_point: np.ndarray
    trust_radius: float = 1.0
    c21: bool = True
    ladder_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "critical_point",
                           np.asarray(self.critical_point, dtype=float))
        if self.critical_point.shape != (self.dimension,):
            raise ConfigError("critical_point has wrong dimension")
        if not (0 < self.trust_radius <= 1.0):
            raise ConfigError("trust_radius must lie in (0, 1]")
        g = np.linalg.norm(self.objective.gradient(self.critical_point))
        if g > GRAD_TOL:
            raise ConfigError(f"gradient norm {g:.3e} at declared critical point exceeds {GRAD_TOL}")

    def f(self, x):
        return self.objective(x)

    def grad(self, x):
        return self.objective.gradient(x)

    def hess(self, x):
        return self.objective.hessian(x)

    def check_derivatives(self):
        """Max deviation between symbolic and central-difference derivatives
        (step 1e-6) at 8 random points near the critical point."""
        rng = np.random.default_rng(0)
        h = 1e-6
        n = self.dimension
        worst = 0.0
        for _ in range(8):
            x = self.critical_point + 0.1 * rng.standard_normal(n)
            g = self.grad(x)
            H = self.hess(x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                gfd = (self.f(x + e) - self.f(x - e)) / (2 * h)
                worst = max(worst, abs(gfd - g[i]))
                hfd = (self.grad(x + e) - self.grad(x - e)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(hfd - H[:, i]))))
        return worst


def load_problem(path):
    """Read a problem config (JSON-compatible key/value text)."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return problem_from_dict(raw)


def problem_from_dict(raw):
    """Build a problem from a parsed config; a malformed config is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config is not a key/value object")
    dim = _config_value(raw, "dimension", _integral)
    return GradientProblem(
        name=str(raw.get("name", "problem")),
        dimension=dim,
        objective=Polynomial.from_pairs(
            dim, _config_value(raw, "objective", _objective_pairs)),
        critical_point=_config_value(raw, "critical_point", _reals),
        trust_radius=_config_value(raw, "trust_radius", _real, 1.0),
        c21=_config_value(raw, "c21", _json_bool, True),
        ladder_overrides=_config_value(raw, "ladder_overrides", _overrides, {}),
    )


_REQUIRED = object()


def _config_value(raw, key, convert, default=_REQUIRED):
    """``convert(raw[key])``, a missing or mistyped value raising ConfigError."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"config missing required key {key!r}")
        return default
    try:
        return convert(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value of the wrong type for {key!r}: {exc}") from exc


def _integral(value):
    """An integral JSON number (``2`` or ``2.0``) as an int."""
    if type(value) not in (int, float) or value % 1 != 0:
        raise TypeError(f"expected an integral number, got {value!r}")
    return int(value)


def _real(value):
    """A finite JSON number as a float; booleans and strings are not numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value)):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _reals(values):
    """A JSON list of finite numbers as a float array."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return np.array([_real(v) for v in values])


def _json_bool(value):
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _objective_pairs(entries):
    return [(tuple(_integral(a) for a in alpha), _real(coeff))
            for alpha, coeff in entries]


def _overrides(table):
    return {str(key): _real(value) for key, value in dict(table).items()}


# -- reference problems used throughout the test suite ----------------------

def quadratic_saddle():
    """f = -x1^2/2 + x2^2.  Linear flow; both local manifolds are flat."""
    poly = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0]])
    return GradientProblem("p1_quadratic", 2, poly, np.zeros(2))


def quartic_saddle():
    """f = -x1^2/2 + x2^2 + x1^2 x2^2 / 4.

    The coordinate axes remain invariant, so the local manifolds stay flat
    while the transverse dynamics (and hence the time-T graphs) are curved.
    """
    poly = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 2], 0.25]])
    return GradientProblem("p2_quartic", 2, poly, np.zeros(2))


def cubic_saddle_3d():
    """f = -x1^2 + x2^2/2 + 3 x3^2/2 + 0.05 x1^2 x2.

    Hessian diag(-2, 1, 3); the cubic coupling curves the unstable manifold.
    """
    poly = Polynomial.from_pairs(3, [
        [[2, 0, 0], -1.0],
        [[0, 2, 0], 0.5],
        [[0, 0, 2], 1.5],
        [[2, 1, 0], 0.05],
    ])
    return GradientProblem("p3_cubic3d", 3, poly, np.zeros(3))


def curved_stable_saddle():
    """f = -x1^2/2 + x2^2 + 0.1 x1 x2^2: curved stable manifold."""
    poly = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0], [[1, 2], 0.1]])
    return GradientProblem("curved_stable", 2, poly, np.zeros(2))
