"""Gradient-flow problem definitions and config-file ingestion.

A problem is a smooth objective together with a hyperbolic critical point and
a trust radius for the local model around it.  Polynomial objectives are the
supported input class; gradient and Hessian evaluators are derived
symbolically from the coefficient table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .polynomials import Polynomial

GRAD_TOL = 1e-9


@dataclass(frozen=True)
class GradientProblem:
    """Objective ``f`` with a critical point and trust radius.

    ``trust_radius`` bounds the local-model ball; it is capped at 1 (in the
    Euclidean model there is no injectivity-radius constraint).  The objective
    is a polynomial, so its Hessian field is locally Lipschitz (C^{2,1}) and
    every check the paper states for that class applies.
    """

    name: str
    dimension: int
    objective: Polynomial
    critical_point: np.ndarray
    trust_radius: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError(f"dimension must be at least 1, got {self.dimension}")
        object.__setattr__(self, "critical_point",
                           np.asarray(self.critical_point, dtype=float))
        if self.critical_point.shape != (self.dimension,):
            raise ConfigError("critical_point has wrong dimension")
        if not (0 < self.trust_radius <= 1.0):
            raise ConfigError("trust_radius must lie in (0, 1]")
        g = np.linalg.norm(self.objective.gradient(self.critical_point))
        if not g <= GRAD_TOL:  # a NaN gradient fails too
            raise ConfigError(f"gradient norm {g:.3e} at declared critical point exceeds {GRAD_TOL}")

    def f(self, x):
        return self.objective(x)

    def grad(self, x):
        return self.objective.gradient(x)

    def hess(self, x):
        return self.objective.hessian(x)


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
    """Build a problem from a parsed config; a malformed config is a ConfigError.

    Each key is consumed as it is read, and a key left over is an error, not
    ignored: the ladder is derived from the problem, never set by the config.
    ``c21`` may only assert what every polynomial objective is.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config is not a key/value object")
    raw = dict(raw)
    name = str(raw.pop("name", "problem"))
    dim = _config_value(raw, "dimension", _integral)
    pairs = _config_value(raw, "objective", _objective_pairs)
    critical_point = _config_value(raw, "critical_point", _reals)
    trust_radius = _config_value(raw, "trust_radius", _real, 1.0)
    if not _config_value(raw, "c21", _json_bool, True):
        raise ConfigError("config key 'c21' is false, but a polynomial "
                          "objective is C^{2,1}")
    if raw:
        raise ConfigError(f"config has unknown keys {sorted(raw)}")
    return GradientProblem(
        name=name, dimension=dim,
        objective=Polynomial.from_pairs(dim, pairs),
        critical_point=critical_point, trust_radius=trust_radius,
    )


_REQUIRED = object()


def _config_value(raw, key, convert, default=_REQUIRED):
    """``convert(raw.pop(key))``, a missing or mistyped value raising ConfigError."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"config missing required key {key!r}")
        return default
    try:
        return convert(raw.pop(key))
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
