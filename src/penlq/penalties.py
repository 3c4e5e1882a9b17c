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

All evaluation functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConditionViolationError, NondifferentiableError

FAMILIES = (
    "l0",
    "bridge",
    "hard_threshold",
    "scad",
    "mcp",
    "piecewise_linear",
    "fraction",
    "log",
    "linear",
)

# Required parameter names and their validation, per family.
_PARAM_RULES = {
    "l0": {},
    "bridge": {"p": lambda v: 0.0 < v < 1.0},
    "hard_threshold": {"gamma": lambda v: v > 0.0},
    "scad": {"gamma": lambda v: v > 0.0, "a": lambda v: v > 2.0},
    "mcp": {"gamma": lambda v: v > 0.0, "b": lambda v: v >= 1.0},
    "piecewise_linear": {
        "k1": lambda v: v > 0.0,
        "k2": lambda v: v >= 0.0,
        "a": lambda v: v > 0.0,
    },
    "fraction": {"gamma": lambda v: v > 0.0},
    "log": {"gamma": lambda v: v > 0.0},
    "linear": {"k": lambda v: True},
}


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family plus its validated parameters.

    Immutable after construction; invalid parameters raise ``ValueError``
    immediately rather than surfacing later as nonsense constants.
    """

    family: str
    params: Mapping[str, float]

    def __post_init__(self):
        if self.family not in _PARAM_RULES:
            raise ValueError(f"unknown penalty family {self.family!r}")
        rules = _PARAM_RULES[self.family]
        missing = sorted(set(rules) - set(self.params))
        extra = sorted(set(self.params) - set(rules))
        if missing:
            raise ValueError(f"{self.family}: missing parameters {missing}")
        if extra:
            raise ValueError(f"{self.family}: unexpected parameters {extra}")
        for name, ok in rules.items():
            try:
                value = float(self.params[name])
            except (TypeError, ValueError):
                raise ValueError(f"{self.family}: parameter {name} must be a number") from None
            if not math.isfinite(value) or not ok(value):
                raise ValueError(f"{self.family}: parameter {name}={value} out of range")
        if self.family == "piecewise_linear" and not self.params["k1"] > self.params["k2"]:
            raise ValueError("piecewise_linear: requires k1 > k2")
        object.__setattr__(
            self, "params", MappingProxyType({k: float(v) for k, v in self.params.items()})
        )

    def __getitem__(self, name: str) -> float:
        return self.params[name]


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
    """Evaluate p(t) for t >= 0 (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("p_eval: t must be non-negative")
    out = _EVAL[spec.family](spec, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def p_d1(spec: PenaltySpec, t):
    """First derivative p'(t) for t > 0 away from kink points."""
    t_arr = _check_diff_points(spec, t)
    out = _D1[spec.family](spec, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def p_d2(spec: PenaltySpec, t):
    """Second derivative p''(t) for t > 0 away from kink points."""
    t_arr = _check_diff_points(spec, t)
    out = _D2[spec.family](spec, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def kink_points(spec: PenaltySpec) -> tuple[float, ...]:
    """Points in (0, inf) where p' or p'' jumps, per family."""
    p = spec.params
    if spec.family == "hard_threshold":
        return (p["gamma"],)
    if spec.family == "scad":
        return (p["gamma"], p["a"] * p["gamma"])
    if spec.family == "mcp":
        return (p["b"] * p["gamma"],)
    if spec.family == "piecewise_linear":
        return (p["a"],)
    return ()


def _check_diff_points(spec: PenaltySpec, t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("derivatives are defined for t > 0 only")
    for kink in kink_points(spec):
        hit = np.abs(t_arr - kink) <= 1e-12 * max(1.0, kink)
        if np.any(hit):
            raise NondifferentiableError(
                f"{spec.family}: derivative undefined at kink t = {kink}"
            )
    return t_arr


# ---------------------------------------------------------------------------
# Per-family formulas
# ---------------------------------------------------------------------------


def _eval_l0(spec, t):
    return np.where(t > 0, 1.0, 0.0)


def _eval_bridge(spec, t):
    return t ** spec["p"]


def _eval_hard_threshold(spec, t):
    g = spec["gamma"]
    return g * g - np.maximum(g - t, 0.0) ** 2


def _eval_scad(spec, t):
    g, a = spec["gamma"], spec["a"]
    mid = (2.0 * a * g * t - t * t - g * g) / (2.0 * (a - 1.0))
    return np.where(t <= g, g * t, np.where(t <= a * g, mid, 0.5 * g * g * (a + 1.0)))


def _eval_mcp(spec, t):
    g, b = spec["gamma"], spec["b"]
    return np.where(t <= b * g, g * t - t * t / (2.0 * b), 0.5 * b * g * g)


def _eval_piecewise_linear(spec, t):
    k1, k2, a = spec["k1"], spec["k2"], spec["a"]
    return np.where(t <= a, k1 * t, k2 * t + (k1 - k2) * a)


def _eval_fraction(spec, t):
    g = spec["gamma"]
    return (g + 1.0) * t / (g + t)


def _eval_log(spec, t):
    g = spec["gamma"]
    return np.log1p(g * t) / math.log1p(g)


def _eval_linear(spec, t):
    return spec["k"] * t


# Plain-float forms of the same formulas, for hot scalar loops (the descent
# line search).  Each factory binds the parameters once and returns a
# function of one float t >= 0; the arithmetic mirrors the array form above
# operation for operation.


def _float_l0(spec):
    return lambda t: 1.0 if t > 0 else 0.0


def _float_bridge(spec):
    p = spec["p"]
    return lambda t: t**p


def _float_hard_threshold(spec):
    g = spec["gamma"]
    return lambda t: g * g - max(g - t, 0.0) ** 2


def _float_scad(spec):
    g, a = spec["gamma"], spec["a"]
    knee, cap, den = a * g, 0.5 * g * g * (a + 1.0), 2.0 * (a - 1.0)

    def p(t):
        if t <= g:
            return g * t
        if t <= knee:
            return (2.0 * a * g * t - t * t - g * g) / den
        return cap

    return p


def _float_mcp(spec):
    g, b = spec["gamma"], spec["b"]
    knee, cap = b * g, 0.5 * b * g * g
    return lambda t: g * t - t * t / (2.0 * b) if t <= knee else cap


def _float_piecewise_linear(spec):
    k1, k2, a = spec["k1"], spec["k2"], spec["a"]
    return lambda t: k1 * t if t <= a else k2 * t + (k1 - k2) * a


def _float_fraction(spec):
    g = spec["gamma"]
    return lambda t: (g + 1.0) * t / (g + t)


def _float_log(spec):
    g = spec["gamma"]
    norm = math.log1p(g)
    return lambda t: math.log1p(g * t) / norm


def _float_linear(spec):
    k = spec["k"]
    return lambda t: k * t


def _float_eval(spec: PenaltySpec):
    """Plain-float p for ``spec``: a function of one float t >= 0 that agrees
    with :func:`p_eval` to rounding, without numpy's per-call overhead.
    Unchecked: the caller passes |t|."""
    return _FLOAT[spec.family](spec)


def _d1_l0(spec, t):
    return np.zeros_like(t)


def _d1_bridge(spec, t):
    p = spec["p"]
    return p * t ** (p - 1.0)


def _d1_hard_threshold(spec, t):
    g = spec["gamma"]
    return 2.0 * np.maximum(g - t, 0.0)


def _d1_scad(spec, t):
    g, a = spec["gamma"], spec["a"]
    return np.where(t <= g, g, np.maximum(a * g - t, 0.0) / (a - 1.0))


def _d1_mcp(spec, t):
    g, b = spec["gamma"], spec["b"]
    return np.maximum(g - t / b, 0.0)


def _d1_piecewise_linear(spec, t):
    k1, k2, a = spec["k1"], spec["k2"], spec["a"]
    return np.where(t < a, k1, k2)


def _d1_fraction(spec, t):
    g = spec["gamma"]
    return g * (g + 1.0) / (g + t) ** 2


def _d1_log(spec, t):
    g = spec["gamma"]
    return g / ((1.0 + g * t) * math.log1p(g))


def _d1_linear(spec, t):
    return np.full_like(t, spec["k"])


def _d2_l0(spec, t):
    return np.zeros_like(t)


def _d2_bridge(spec, t):
    p = spec["p"]
    return p * (p - 1.0) * t ** (p - 2.0)


def _d2_hard_threshold(spec, t):
    return np.where(t < spec["gamma"], -2.0, 0.0)


def _d2_scad(spec, t):
    g, a = spec["gamma"], spec["a"]
    in_band = (t > g) & (t < a * g)
    return np.where(in_band, -1.0 / (a - 1.0), 0.0)


def _d2_mcp(spec, t):
    g, b = spec["gamma"], spec["b"]
    return np.where(t < b * g, -1.0 / b, 0.0)


def _d2_piecewise_linear(spec, t):
    return np.zeros_like(t)


def _d2_fraction(spec, t):
    g = spec["gamma"]
    return -2.0 * g * (g + 1.0) / (g + t) ** 3


def _d2_log(spec, t):
    g = spec["gamma"]
    return -g * g / ((1.0 + g * t) ** 2 * math.log1p(g))


def _d2_linear(spec, t):
    return np.zeros_like(t)


_EVAL = {
    "l0": _eval_l0,
    "bridge": _eval_bridge,
    "hard_threshold": _eval_hard_threshold,
    "scad": _eval_scad,
    "mcp": _eval_mcp,
    "piecewise_linear": _eval_piecewise_linear,
    "fraction": _eval_fraction,
    "log": _eval_log,
    "linear": _eval_linear,
}

_FLOAT = {
    "l0": _float_l0,
    "bridge": _float_bridge,
    "hard_threshold": _float_hard_threshold,
    "scad": _float_scad,
    "mcp": _float_mcp,
    "piecewise_linear": _float_piecewise_linear,
    "fraction": _float_fraction,
    "log": _float_log,
    "linear": _float_linear,
}

_D1 = {
    "l0": _d1_l0,
    "bridge": _d1_bridge,
    "hard_threshold": _d1_hard_threshold,
    "scad": _d1_scad,
    "mcp": _d1_mcp,
    "piecewise_linear": _d1_piecewise_linear,
    "fraction": _d1_fraction,
    "log": _d1_log,
    "linear": _d1_linear,
}

_D2 = {
    "l0": _d2_l0,
    "bridge": _d2_bridge,
    "hard_threshold": _d2_hard_threshold,
    "scad": _d2_scad,
    "mcp": _d2_mcp,
    "piecewise_linear": _d2_piecewise_linear,
    "fraction": _d2_fraction,
    "log": _d2_log,
    "linear": _d2_linear,
}


# ---------------------------------------------------------------------------
# Analysis constants
# ---------------------------------------------------------------------------

# Default smooth band [tau0, tau] per family.  The band must sit strictly
# inside a region where p is twice continuously differentiable, and tau0 must
# exceed the last bend so that p is concave-but-not-linear on [0, tau0]:
#   scad needs tau0 > gamma (p is linear below gamma), and tau <= a*gamma
#   holds because a > 2; piecewise_linear needs tau0 > a for the same reason.
# l0 uses the fixed anchors (0.6, 0.7, 1): any 0 < tau0 < tau works for the
# indicator, and these keep its constants aligned with the mcp worked example.
def _frame(spec: PenaltySpec) -> tuple[float, float, float]:
    """Return (tau, tau0, tau_hat) for the family."""
    p = spec.params
    if spec.family == "l0":
        return 1.0, 0.6, 0.7
    if spec.family == "hard_threshold":
        tau = p["gamma"] / 2.0
    elif spec.family == "scad":
        tau = 2.0 * p["gamma"]
    elif spec.family == "mcp":
        tau = 0.8 * min(p["gamma"], p["b"] * p["gamma"])
    elif spec.family == "piecewise_linear":
        tau = 2.0 * p["a"]
    else:  # bridge, fraction, log, linear: concave on all of [0, inf)
        tau = 1.0
    tau0 = 0.75 * tau
    return tau, tau0, 0.5 * (tau0 + tau)


def _k_bound(spec: PenaltySpec, tau0: float, tau: float) -> float:
    """Exact max of -p'' over [tau0, tau], from the closed forms.

    -p'' is non-increasing on the band for every family, so the max sits at
    tau0 where it is not constant.
    """
    p = spec.params
    if spec.family == "bridge":
        e = p["p"]
        return e * (1.0 - e) * tau0 ** (e - 2.0)
    if spec.family == "hard_threshold":
        return 2.0
    if spec.family == "scad":
        return 1.0 / (p["a"] - 1.0)
    if spec.family == "mcp":
        return 1.0 / p["b"]
    if spec.family == "fraction":
        g = p["gamma"]
        return 2.0 * g * (g + 1.0) / (g + tau0) ** 3
    if spec.family == "log":
        g = p["gamma"]
        return g * g / ((1.0 + g * tau0) ** 2 * math.log1p(g))
    return 0.0  # l0, piecewise_linear, linear: p'' == 0 on the band


def sampled_k_bound(spec: PenaltySpec, tau0: float, tau: float, grid_n: int = 1000) -> float:
    """Grid-sampled max of -p'' on [tau0, tau], padded by a 1% safety factor.

    Fallback route for penalties without a closed-form curvature bound; for
    the builtins it cross-checks :func:`_k_bound` in the test suite.
    """
    grid = np.linspace(tau0, tau, grid_n)
    return 1.01 * float(np.max(-p_d2(spec, grid)))


def c1_margin(spec: PenaltySpec, tau0: float) -> float:
    """(p(tau0/3) + p(2*tau0/3) - p(tau0)) / (tau0/3).

    Positive exactly when p is concave but not linear on [0, tau0]; zero for
    any linear p.  This is the slack scale used by the concentration check
    in :mod:`penlq.conditions`.
    """
    s = tau0 / 3.0
    return (p_eval(spec, s) + p_eval(spec, 2.0 * s) - p_eval(spec, tau0)) / s


def analyze(spec: PenaltySpec) -> PenaltyAnalysis:
    """Compute the analysis constants, rejecting inadmissible penalties.

    Raises :class:`ConditionViolationError` when the non-linearity margin c1
    is not strictly positive (the linear/LASSO family, in particular).
    """
    tau, tau0, tau_hat = _frame(spec)
    c1 = c1_margin(spec, tau0)
    if not c1 > 1e-12:
        raise ConditionViolationError(
            f"{spec.family}: penalty is linear on [0, {tau0:g}] (c1 = {c1:.3g}); "
            "the reduction requires a concave-but-not-linear penalty"
        )
    return PenaltyAnalysis(
        tau=tau, tau0=tau0, tau_hat=tau_hat, c1=c1, k_bound=_k_bound(spec, tau0, tau)
    )


# ---------------------------------------------------------------------------
# JSON wire format: {"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}
# ---------------------------------------------------------------------------


def spec_to_dict(spec: PenaltySpec) -> dict:
    return {"family": spec.family, "params": dict(spec.params)}


def spec_from_dict(data: dict) -> PenaltySpec:
    if not isinstance(data, dict) or "family" not in data:
        raise ValueError("penalty spec must be an object with a 'family' key")
    return PenaltySpec(str(data["family"]), dict(data.get("params", {})))
