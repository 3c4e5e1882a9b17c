"""Builtin concave penalty families and their analysis constants.

Every penalty ``p`` here is defined on ``[0, +inf)`` with ``p(0) = 0``.  The
admissible families are non-decreasing and concave-but-not-linear near zero,
which is exactly what the reduction machinery in :mod:`penlq.reduction`
requires.  The ``linear`` family (the LASSO, ``p(t) = k*t``) is shipped only
as a negative control for the condition checker: it is concave *and* convex,
so it is rejected by :func:`analyze`.

Families and parameters
-----------------------
l0                p(t) = 1 if t != 0 else 0
bridge            p(t) = t**p                          (0 < p < 1)
hard_threshold    p(t) = gamma**2 - (max(gamma-t,0))**2  (gamma > 0)
scad              p'(t) = gamma for t <= gamma,
                  (a*gamma - t)+ / (a-1) beyond         (gamma > 0, a > 2)
mcp               p'(t) = max(gamma - t/b, 0)           (gamma > 0, b >= 1)
piecewise_linear  p(t) = k1*t up to the breakpoint a,
                  k2*t + (k1-k2)*a beyond               (k1 > k2 >= 0, a > 0)
fraction          p(t) = (gamma+1)*t / (gamma+t)        (gamma > 0)
log               p(t) = log(1+gamma*t) / log(1+gamma)  (gamma > 0)
linear            p(t) = k*t                            (negative control)

Everything known about one family - its parameter rules, p, p', p'' and a
plain-float p, its kinks and its smooth band - is one record in a single
registry, so adding a family touches one place.  All evaluation functions
accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import ConditionViolationError, NondifferentiableError, _is_parameter, _require_array


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family plus its validated parameters.

    Immutable after construction; invalid parameters, including any outside
    the range of ``_is_parameter``, raise ``ValueError`` immediately rather
    than surfacing later as nonsense constants.  Only this module reads the
    registry, passing params (read-only floats) as keywords.
    Hashable, in agreement with ``==``, so a spec can key a cache.
    """

    family: str
    params: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ValueError(f"penalty family must be a string, got {self.family!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"{self.family}: params must be a mapping, got {self.params!r}")
        if self.family not in _REGISTRY:
            raise ValueError(f"unknown penalty family {self.family!r}")
        record = _REGISTRY[self.family]
        missing = sorted(set(record.params) - set(self.params))
        extra = sorted(set(self.params) - set(record.params))
        if missing:
            raise ValueError(f"{self.family}: missing parameters {missing}")
        if extra:
            raise ValueError(f"{self.family}: unexpected parameters {extra}")
        for name, ok in record.params.items():
            value = self.params[name]
            if not (_is_parameter(value) and ok(value)):
                raise ValueError(f"{self.family}: parameter {name}={value!r} out of range")
        params = {k: float(v) for k, v in self.params.items()}
        if record.joint is not None and not record.joint[1](**params):
            raise ValueError(f"{self.family}: requires {record.joint[0]}")
        object.__setattr__(self, "params", MappingProxyType(params))

    def __hash__(self):
        # equal specs hold equal float params, in any order; -0.0 and 0.0
        # compare and hash alike
        return hash((self.family, frozenset(self.params.items())))


def l0() -> PenaltySpec:
    return PenaltySpec("l0", {})


def bridge(p: float = 0.5) -> PenaltySpec:
    return PenaltySpec("bridge", {"p": p})


def hard_threshold(gamma: float = 1.0) -> PenaltySpec:
    return PenaltySpec("hard_threshold", {"gamma": gamma})


def scad(gamma: float = 1.0, a: float = 3.0) -> PenaltySpec:
    return PenaltySpec("scad", {"gamma": gamma, "a": a})


def mcp(gamma: float = 1.0, b: float = 1.0) -> PenaltySpec:
    return PenaltySpec("mcp", {"gamma": gamma, "b": b})


def piecewise_linear(k1: float, k2: float, a: float) -> PenaltySpec:
    return PenaltySpec("piecewise_linear", {"k1": k1, "k2": k2, "a": a})


def clipped_l1(gamma: float = 1.0) -> PenaltySpec:
    """p(t) = gamma*min(t, gamma), the piecewise-linear special case."""
    return piecewise_linear(k1=gamma, k2=0.0, a=gamma)


def fraction(gamma: float = 1.0) -> PenaltySpec:
    return PenaltySpec("fraction", {"gamma": gamma})


def log_penalty(gamma: float = 1.0) -> PenaltySpec:
    return PenaltySpec("log", {"gamma": gamma})


def linear(k: float = 1.0) -> PenaltySpec:
    return PenaltySpec("linear", {"k": k})


@dataclass(frozen=True)
class PenaltyAnalysis:
    """Per-penalty constants used throughout the reduction.

    tau      : p is concave but not linear on [0, tau] and twice
               continuously differentiable near tau
    tau0     : inner radius in (0, tau); p is smooth on [tau0, tau]
    tau_hat  : a dyadic rational anchor in (tau0, tau)
    c1       : (p(tau0/3) + p(2*tau0/3) - p(tau0)) / (tau0/3), the
               non-linearity margin; positive exactly when p bends on
               [0, tau0]
    k_bound  : upper bound for -p'' on [tau0, tau]
    """

    tau: float
    tau0: float
    tau_hat: float
    c1: float
    k_bound: float


def p_eval(spec: PenaltySpec, t):
    """Evaluate p(t) for finite t >= 0 (scalar or array); anything else raises ValueError."""
    t_arr = _require_array("t", t, "non-negative")
    out = _p_values(spec, t_arr)
    return float(out) if t_arr.ndim == 0 else out


def _p_values(spec: PenaltySpec, t: np.ndarray) -> np.ndarray:
    """p at the float array t, unchecked: the caller has applied the
    array rule and passes |t|."""
    return _REGISTRY[spec.family].value(t, **spec.params)


def p_d1(spec: PenaltySpec, t):
    """First derivative p'(t) for t > 0 away from kink points."""
    return _derivative(spec, t, "d1")


def p_d2(spec: PenaltySpec, t):
    """Second derivative p''(t) for t > 0 away from kink points."""
    return _derivative(spec, t, "d2")


def kink_points(spec: PenaltySpec) -> tuple[float, ...]:
    """Points in (0, inf) where p' or p'' jumps, per family."""
    return _REGISTRY[spec.family].kinks(**spec.params)


def band(spec: PenaltySpec) -> tuple[float, float, float]:
    """(tau, tau0, tau_hat): the family's smooth band [tau0, tau] and its anchor."""
    return _REGISTRY[spec.family].band(**spec.params)


def _float_eval(spec: PenaltySpec):
    """Plain-float p for ``spec``: a function of one float t >= 0 that agrees
    with :func:`p_eval` to rounding, without numpy's per-call overhead.
    Unchecked: the caller passes |t|."""
    return _REGISTRY[spec.family].scalar(**spec.params)


def _derivative(spec: PenaltySpec, t, field: str):
    """The family's ``field`` ("d1" or "d2") at t > 0, off the kink points."""
    t_arr = _require_array("t", t, "positive")
    for kink in kink_points(spec):
        hit = np.abs(t_arr - kink) <= _SLACK * kink
        if np.any(hit):
            raise NondifferentiableError(
                f"{spec.family}: derivative undefined at kink t = {kink}"
            )
    out = getattr(_REGISTRY[spec.family], field)(t_arr, **spec.params)
    return float(out) if t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# The families, one record each
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """Everything known about one penalty family.

    Every formula takes the family's parameters as keyword arguments.

    params  : parameter name -> range check on its float value
    joint   : optional (description, check) for a rule tying parameters
              together
    value   : p(t) on arrays
    d1, d2  : p'(t) and p''(t) on arrays, for t > 0 off the kinks
    scalar  : returns the plain-float p of one float t >= 0, the same
              arithmetic as ``value`` without numpy
    kinks   : points in (0, inf) where p' or p'' jumps; the descent line
              search in :mod:`penlq.solver` cuts its interval at them
    band    : (tau, tau0, tau_hat).  The band [tau0, tau] must sit strictly
              inside a region where p is twice continuously differentiable,
              and tau0 must exceed the last bend so that p is
              concave-but-not-linear on [0, tau0]
    """

    params: Mapping[str, Callable[[float], bool]]
    value: Callable
    d1: Callable
    d2: Callable
    scalar: Callable
    band: Callable
    kinks: Callable = lambda **params: ()
    joint: tuple[str, Callable] | None = None


def _band(tau: float) -> tuple[float, float, float]:
    """The band [0.75*tau, tau] with its anchor at the midpoint."""
    tau0 = 0.75 * tau
    return tau, tau0, 0.5 * (tau0 + tau)


def _zero(t, **params):
    return np.zeros_like(t)


def _positive(v: float) -> bool:
    return v > 0.0


# Registration order is the order of FAMILIES.
_REGISTRY: dict[str, _Family] = {}

# Any 0 < tau0 < tau works for the indicator; the fixed anchors (0.6, 0.7, 1)
# keep its constants aligned with the mcp worked example.
_REGISTRY["l0"] = _Family(
    params={},
    value=lambda t: np.where(t > 0, 1.0, 0.0),
    d1=_zero,
    d2=_zero,
    scalar=lambda: lambda t: 1.0 if t > 0 else 0.0,
    band=lambda: (1.0, 0.6, 0.7),
)

# Bridge, fraction, log and linear are smooth and concave on all of
# [0, inf), so their band is [0.75, 1].
_REGISTRY["bridge"] = _Family(
    params={"p": lambda v: 0.0 < v < 1.0},
    value=lambda t, p: t**p,
    d1=lambda t, p: p * t ** (p - 1.0),
    d2=lambda t, p: p * (p - 1.0) * t ** (p - 2.0),
    scalar=lambda p: lambda t: t**p,
    band=lambda p: _band(1.0),
)

_REGISTRY["hard_threshold"] = _Family(
    params={"gamma": _positive},
    value=lambda t, gamma: gamma * gamma - np.maximum(gamma - t, 0.0) ** 2,
    d1=lambda t, gamma: 2.0 * np.maximum(gamma - t, 0.0),
    d2=lambda t, gamma: np.where(t < gamma, -2.0, 0.0),
    scalar=lambda gamma: lambda t: gamma * gamma - max(gamma - t, 0.0) ** 2,
    kinks=lambda gamma: (gamma,),
    band=lambda gamma: _band(gamma / 2.0),
)


def _scad_value(t, gamma, a):
    mid = (2.0 * a * gamma * t - t * t - gamma * gamma) / (2.0 * (a - 1.0))
    cap = 0.5 * gamma * gamma * (a + 1.0)
    return np.where(t <= gamma, gamma * t, np.where(t <= a * gamma, mid, cap))


def _scad_scalar(gamma, a):
    knee, cap, den = a * gamma, 0.5 * gamma * gamma * (a + 1.0), 2.0 * (a - 1.0)

    def p(t):
        if t <= gamma:
            return gamma * t
        if t <= knee:
            return (2.0 * a * gamma * t - t * t - gamma * gamma) / den
        return cap

    return p


# p is linear below gamma, so tau0 = 1.5*gamma clears that bend, and
# tau = 2*gamma stays below the kink a*gamma because a > 2.
_REGISTRY["scad"] = _Family(
    params={"gamma": _positive, "a": lambda v: v > 2.0},
    value=_scad_value,
    d1=lambda t, gamma, a: np.where(t <= gamma, gamma, np.maximum(a * gamma - t, 0.0) / (a - 1.0)),
    d2=lambda t, gamma, a: np.where((t > gamma) & (t < a * gamma), -1.0 / (a - 1.0), 0.0),
    scalar=_scad_scalar,
    kinks=lambda gamma, a: (gamma, a * gamma),
    band=lambda gamma, a: _band(2.0 * gamma),
)


def _mcp_scalar(gamma, b):
    knee, cap = b * gamma, 0.5 * b * gamma * gamma
    return lambda t: gamma * t - t * t / (2.0 * b) if t <= knee else cap


_REGISTRY["mcp"] = _Family(
    params={"gamma": _positive, "b": lambda v: v >= 1.0},
    value=lambda t, gamma, b: np.where(
        t <= b * gamma, gamma * t - t * t / (2.0 * b), 0.5 * b * gamma * gamma
    ),
    d1=lambda t, gamma, b: np.maximum(gamma - t / b, 0.0),
    d2=lambda t, gamma, b: np.where(t < b * gamma, -1.0 / b, 0.0),
    scalar=_mcp_scalar,
    kinks=lambda gamma, b: (b * gamma,),
    band=lambda gamma, b: _band(0.8 * min(gamma, b * gamma)),
)

# p is linear below the breakpoint a, so tau0 = 1.5*a clears that bend.
_REGISTRY["piecewise_linear"] = _Family(
    params={"k1": _positive, "k2": lambda v: v >= 0.0, "a": _positive},
    joint=("k1 > k2", lambda k1, k2, a: k1 > k2),
    value=lambda t, k1, k2, a: np.where(t <= a, k1 * t, k2 * t + (k1 - k2) * a),
    d1=lambda t, k1, k2, a: np.where(t < a, k1, k2),
    d2=_zero,
    scalar=lambda k1, k2, a: lambda t: k1 * t if t <= a else k2 * t + (k1 - k2) * a,
    kinks=lambda k1, k2, a: (a,),
    band=lambda k1, k2, a: _band(2.0 * a),
)

_REGISTRY["fraction"] = _Family(
    params={"gamma": _positive},
    value=lambda t, gamma: (gamma + 1.0) * t / (gamma + t),
    d1=lambda t, gamma: gamma * (gamma + 1.0) / (gamma + t) ** 2,
    d2=lambda t, gamma: -2.0 * (gamma / (gamma + t)) * ((gamma + 1.0) / (gamma + t)) / (gamma + t),
    scalar=lambda gamma: lambda t: (gamma + 1.0) * t / (gamma + t),
    band=lambda gamma: _band(1.0),
)


def _log_scalar(gamma):
    norm = math.log1p(gamma)
    return lambda t: math.log1p(gamma * t) / norm


_REGISTRY["log"] = _Family(
    params={"gamma": _positive},
    value=lambda t, gamma: np.log1p(gamma * t) / math.log1p(gamma),
    d1=lambda t, gamma: gamma / ((1.0 + gamma * t) * math.log1p(gamma)),
    d2=lambda t, gamma: -((gamma / (1.0 + gamma * t)) ** 2) / math.log1p(gamma),
    scalar=_log_scalar,
    band=lambda gamma: _band(1.0),
)

_REGISTRY["linear"] = _Family(
    params={"k": lambda v: True},
    value=lambda t, k: k * t,
    d1=lambda t, k: np.full_like(t, k),
    d2=_zero,
    scalar=lambda k: lambda t: k * t,
    band=lambda k: _band(1.0),
)

FAMILIES = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Analysis constants
# ---------------------------------------------------------------------------


_SLACK = 1e-12  # relative: each admissibility test forgives this share of what it compares


def c1_margin(spec: PenaltySpec, tau0: float) -> tuple[float, bool]:
    """(c1, bends): c1 = (p(tau0/3) + p(2*tau0/3) - p(tau0)) / (tau0/3), and
    whether p is not linear on [0, tau0], i.e. c1 exceeds _SLACK of the chord
    slope |p(tau0)|/tau0.  c1 is the slack scale of the concentration check.
    """
    s, top = tau0 / 3.0, p_eval(spec, tau0)
    c1 = (p_eval(spec, s) + p_eval(spec, 2.0 * s) - top) / s
    return c1, c1 > _SLACK * abs(top) / tau0


def analyze(spec: PenaltySpec) -> PenaltyAnalysis:
    """Compute the analysis constants, rejecting inadmissible penalties.

    Raises :class:`ConditionViolationError` when p is linear on [0, tau0]
    (the linear/LASSO family, in particular).
    """
    tau, tau0, tau_hat = band(spec)
    (c1, bends), d2 = c1_margin(spec, tau0), p_d2(spec, tau0)
    if not bends:
        raise ConditionViolationError(
            f"{spec.family}: penalty is linear on [0, {tau0:g}] (c1 = {c1:.3g}); "
            "the reduction requires a concave-but-not-linear penalty"
        )
    # -p'' is non-increasing on the band for every family: its max is at tau0
    return PenaltyAnalysis(tau=tau, tau0=tau0, tau_hat=tau_hat, c1=c1, k_bound=max(0.0, -d2))


# ---------------------------------------------------------------------------
# JSON wire format: {"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}
# ---------------------------------------------------------------------------


def spec_to_dict(spec: PenaltySpec) -> dict:
    return {"family": spec.family, "params": dict(spec.params)}


def spec_from_dict(data: dict) -> PenaltySpec:
    if not isinstance(data, dict) or "family" not in data:
        raise ValueError("penalty spec must be an object with a 'family' key")
    return PenaltySpec(data["family"], data.get("params", {}))
