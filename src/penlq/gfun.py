"""Analysis of the one-dimensional surrogate g(t) = p(|t|) + theta*|t|^q + mu*|t - tau_hat|^q.

For admissible penalties and large enough coefficients this function has a
unique global minimizer t_star inside (tau0, tau), and values within
delta**2 of the minimum pin t to within delta of t_star.  Everything the
reduction needs from g is computed here:

* :func:`lower_bounds` - the coefficient thresholds that make the shape
  guarantees kick in (curvature >= 1 for q > 1, slope magnitude > 1 for
  q = 1, and escape outside [tau0, tau]);
* :func:`rationalize` - smallest dyadic-rooted coefficients above the
  thresholds, so (lam*theta)**(1/q) and (lam*mu)**(1/q) are exact rationals
  of bounded size no matter the downstream instance;
* :func:`minimize_g` / :func:`delta_bar` - the minimizer, its value, and the
  localization radius;
* :func:`verify_g_shape` - a sampled certificate of the shape guarantees;
* :func:`full_analysis` - the whole chain, memoized.

None of these constants depends on the 3-partition items: they are fixed by
(penalty, q, lam) alone, on one dyadic grid of step 2**-20, which is what
keeps the reduction's numbers polynomially bounded.  :func:`full_analysis`
therefore computes them once per key and hands the same frozen records to
every later caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _require_count, _require_lam, _require_q, _require_real
from .penalties import PenaltyAnalysis, PenaltySpec, analyze, p_d1, p_eval

_GRID_EXP = 20  # coefficient roots are multiples of 2**-_GRID_EXP


@dataclass(frozen=True)
class GParams:
    """Coefficients of g, tied to the lambda they were rationalized for.

    theta_root and mu_root are (lam*theta)**(1/q) and (lam*mu)**(1/q); when
    produced by :func:`rationalize` they are exact dyadic rationals and are
    used verbatim as matrix coefficients by :mod:`penlq.reduction`.
    """

    q: float
    theta: float
    mu: float
    tau_hat: float
    theta_root: float | None = None
    mu_root: float | None = None

    def __post_init__(self):
        _require_q(self.q)
        _require_real("mu", self.mu, "positive")
        _require_real("theta", self.theta, "non-negative")
        _require_real("tau_hat", self.tau_hat)
        if self.q == 1.0 and self.theta != 0.0:
            raise ValueError("q = 1 requires theta = 0")


@dataclass(frozen=True)
class GAnalysis:
    """Derived quantities: thresholds, minimizer, minimum, localization radius."""

    theta_lower: float
    mu_lower: float
    t_star: float
    h: float
    delta_bar: float


def lower_bounds(spec: PenaltySpec, analysis: PenaltyAnalysis, q: float) -> tuple[float, float]:
    """Coefficient thresholds (theta_lower, mu_lower) for exponent q.

    q > 1: theta_lower = (1 + K) / (q*(q-1) * min(tau0**(q-2), tau**(q-2)))
           mu_lower    = (p(tau_hat) + theta_lower*tau_hat**q + 1)
                         / (theta_lower * |tau0 - tau_hat|**q)
           and the guarantees hold for theta >= theta_lower,
           mu >= mu_lower * theta.
    q = 1: theta is forced to 0 and
           mu_lower = max(1 + p'(tau0), (p(tau_hat) + 1) / (tau_hat - tau0)).
    Raises ValueError unless q is finite and at least 1, and, for q > 1,
    unless both thresholds come out finite and positive (a power of tau0,
    tau or |tau0 - tau_hat| under- or overflows at large q).
    """
    _require_q(q)
    tau, tau0, tau_hat = analysis.tau, analysis.tau0, analysis.tau_hat
    if q == 1.0:
        slope = p_d1(spec, tau0)
        mu_hat = max(1.0 + slope, (p_eval(spec, tau_hat) + 1.0) / (tau_hat - tau0))
        return 0.0, mu_hat
    try:
        theta_lo = (1.0 + analysis.k_bound) / (
            q * (q - 1.0) * min(tau0 ** (q - 2.0), tau ** (q - 2.0))
        )
        mu_lo = (p_eval(spec, tau_hat) + theta_lo * tau_hat**q + 1.0) / (
            theta_lo * abs(tau0 - tau_hat) ** q
        )
    except (ZeroDivisionError, OverflowError):  # a power under- or overflowed
        theta_lo = mu_lo = math.inf
    if not (0.0 < theta_lo < math.inf and 0.0 < mu_lo < math.inf):
        raise ValueError(f"q = {q!r} too large: the shape thresholds are not finite")
    return theta_lo, mu_lo


def _dyadic_root_ceil(coef: float, lam: float, q: float) -> float:
    """Smallest r = k / 2**_GRID_EXP (k integer >= 0) with r**q / lam >= coef.

    The test is made on r**q / lam as computed, the very expression that
    becomes the coefficient, so float rounding can never leave the
    coefficient below coef.  A step below r's ulp goes to the adjacent float,
    still on the grid.  Raises ValueError naming q and lam when lam * coef
    or root * 2**_GRID_EXP overflows.
    """
    step = 2.0**-_GRID_EXP
    scaled = (lam * coef) ** (1.0 / q) / step
    if not math.isfinite(scaled):
        raise ValueError(
            f"q = {q!r}, lambda = {lam!r}: the q-th root of lambda * {coef!r} overflows the grid"
        )
    r = math.ceil(scaled) * step
    # float rounding in the q-th root can leave r a step off either way
    while r**q / lam < coef:
        r = max(r + step, math.nextafter(r, math.inf))
    while r > step and (down := min(r - step, math.nextafter(r, 0.0))) ** q / lam >= coef:
        r = down
    return r


def rationalize(
    theta_lower: float,
    mu_lower: float,
    lam: float,
    q: float,
    *,
    tau_hat: float,
) -> GParams:
    """Smallest coefficients above the thresholds with dyadic q-th roots.

    theta = r1**q / lam for the smallest dyadic r1 with theta >= theta_lower,
    then mu = r2**q / lam for the smallest dyadic r2 with mu >= mu_lower*theta
    (mu >= mu_lower when q = 1).  For q = 2 the mu root is additionally
    snapped up to the next integer when that costs at most 5%, which keeps
    worked examples hand-checkable.  Output never falls below the requested
    thresholds.  Raises ValueError unless lam is finite and positive and q
    is finite and at least 1 (bools are rejected for both), and when q is so
    large that mu_lower * theta overflows a float.
    """
    _require_q(q)
    _require_lam(lam)
    if q == 1.0:
        mu_root = _dyadic_root_ceil(mu_lower, lam, 1.0)
        return GParams(
            q=q, theta=0.0, mu=mu_root / lam, tau_hat=tau_hat, theta_root=0.0, mu_root=mu_root
        )
    theta_root = _dyadic_root_ceil(theta_lower, lam, q)
    theta = theta_root**q / lam
    mu_target = mu_lower * theta
    if not math.isfinite(mu_target):
        raise ValueError(f"q = {q!r} too large: mu_lower * theta = {mu_lower!r} * {theta!r} "
                         "overflows a float")
    mu_root = _dyadic_root_ceil(mu_target, lam, q)
    if q == 2.0:
        snap = float(math.ceil(math.sqrt(lam * mu_target)))
        if mu_target <= snap * snap / lam <= 1.05 * mu_target:
            mu_root = snap
    return GParams(
        q=q,
        theta=theta,
        mu=mu_root**q / lam,
        tau_hat=tau_hat,
        theta_root=theta_root,
        mu_root=mu_root,
    )


def g_eval(spec: PenaltySpec, params: GParams, t):
    """Evaluate g at any real t (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    abs_t = np.abs(t_arr)
    out = (
        p_eval(spec, abs_t)
        + params.theta * abs_t**params.q
        + params.mu * np.abs(t_arr - params.tau_hat) ** params.q
    )
    return float(out) if np.ndim(t) == 0 else out


def _require_bounds(spec: PenaltySpec, analysis: PenaltyAnalysis, params: GParams) -> None:
    theta_lo, mu_lo = lower_bounds(spec, analysis, params.q)
    if params.q == 1.0:
        ok = params.theta == 0.0 and params.mu >= mu_lo
    else:
        ok = params.theta >= theta_lo and params.mu >= mu_lo * params.theta
    if not ok:
        raise ValueError(
            f"coefficients below the shape thresholds (need theta >= {theta_lo:g}, "
            f"mu >= {mu_lo:g}{'*theta' if params.q > 1 else ''}); "
            "the uniqueness and localization guarantees would not apply"
        )


def minimize_g(
    spec: PenaltySpec,
    analysis: PenaltyAnalysis,
    params: GParams,
) -> tuple[float, float]:
    """Return (t_star, h), the unique global minimizer of g and its value.

    The global minimum lies inside [tau0, tau], where g' changes sign once,
    so one bisection on the sign of
    g'(t) = p'(t) + q*theta*t**(q-1) + sgn(t - tau_hat)*q*mu*|t - tau_hat|**(q-1)
    runs for every q until the midpoint equals an endpoint; t_star is
    whichever of the two adjacent floats has the lower g, the lower one on a
    tie.  For q > 1, g is strictly convex there.  For q = 1 (theta = 0),
    g' < 0 below tau_hat and g' >= 0 from it on, so the search ends on
    t_star = tau_hat exactly, with h = p(tau_hat).  p' is :func:`p_d1`, whose
    kink check never fires on a band.  Raises ValueError below the thresholds.
    """
    _require_bounds(spec, analysis, params)
    q, theta, mu, tau_hat = params.q, params.theta, params.mu, params.tau_hat
    lo, hi = analysis.tau0, analysis.tau
    with np.errstate(over="ignore"):  # log's p' denominator overflows near gamma = 1e308: p' = 0
        while lo < (t := 0.5 * (lo + hi)) < hi:
            d = np.float64(t - tau_hat)  # numpy powers give inf where g_eval's do
            slope = p_d1(spec, t) + q * (
                theta * np.float64(t) ** (q - 1.0) + mu * np.sign(d) * np.abs(d) ** (q - 1.0)
            )
            if slope < 0.0:
                lo = t
            else:
                hi = t
    g_lo, g_hi = g_eval(spec, params, lo), g_eval(spec, params, hi)
    return (hi, g_hi) if g_hi < g_lo else (lo, g_lo)


def delta_bar(analysis: PenaltyAnalysis, t_star: float) -> float:
    """Localization radius min(tau0/3, (t*-tau0)/2, (tau-t*)/2, 1, c1).

    For any delta below this radius, g(t) < h + delta**2 forces
    |t - t_star| < delta; it is strictly positive whenever t_star lies in
    (tau0, tau).
    """
    if not analysis.tau0 < t_star < analysis.tau:
        raise ValueError(
            f"t_star must lie in ({analysis.tau0:g}, {analysis.tau:g}), got {t_star}"
        )
    return min(
        analysis.tau0 / 3.0,
        (t_star - analysis.tau0) / 2.0,
        (analysis.tau - t_star) / 2.0,
        1.0,
        analysis.c1,
    )


@dataclass(frozen=True)
class GShapeReport:
    """Sampled certificate of the shape guarantees for one (spec, params)."""

    q: float
    n_samples: int
    curvature_ok: bool | None  # q > 1: fd second derivative >= 1 - 1e-6 on the band
    min_curvature: float | None
    slope_ok: bool | None  # q = 1: g' < -1 left of tau_hat, > 1 right of it
    worst_left_slope: float | None
    worst_right_slope: float | None
    escape_ok: bool  # g >= h + delta_bar**2 outside [tau0, tau]
    escape_margin: float
    overall: bool


def verify_g_shape(
    spec: PenaltySpec,
    analysis: PenaltyAnalysis,
    params: GParams,
    n_samples: int = 1000,
) -> GShapeReport:
    """Sample the curvature/slope bounds on [tau0, tau] and the escape bound.

    q > 1: finite-difference second derivative >= 1 - 1e-6 at n_samples
    interior points.
    q = 1: slopes below -1 left of tau_hat and above +1 right of it.
    Both: g(t) >= h + delta_bar**2 on samples of [-2*tau, tau0] and
    [tau, 3*tau].  Raises ValueError unless n_samples is an integer >= 2.
    """
    _require_count("n_samples", n_samples, 2)
    tau0, tau = analysis.tau0, analysis.tau
    t_star, h = minimize_g(spec, analysis, params)
    radius = delta_bar(analysis, t_star)
    g = lambda t: g_eval(spec, params, t)

    curvature_ok = min_curvature = None
    slope_ok = worst_left = worst_right = None
    if params.q > 1.0:
        step = 1e-4 * (tau - tau0)
        ts = np.linspace(tau0 + step, tau - step, n_samples)
        fd2 = (g(ts + step) - 2.0 * g(ts) + g(ts - step)) / (step * step)
        min_curvature = float(np.min(fd2))
        curvature_ok = bool(min_curvature >= 1.0 - 1e-6)
    else:
        step = 1e-7 * (tau - tau0)
        margin = 1e-5 * (tau - tau0)
        left = np.linspace(tau0 + step, params.tau_hat - margin, n_samples // 2)
        right = np.linspace(params.tau_hat + margin, tau - step, n_samples // 2)
        left_slopes = (g(left + step) - g(left - step)) / (2.0 * step)
        right_slopes = (g(right + step) - g(right - step)) / (2.0 * step)
        worst_left = float(np.max(left_slopes))
        worst_right = float(np.min(right_slopes))
        slope_ok = bool(worst_left < -1.0 + 1e-6 and worst_right > 1.0 - 1e-6)

    outside = np.concatenate(
        [
            np.linspace(-2.0 * tau, tau0, n_samples // 2),
            np.linspace(tau, 3.0 * tau, n_samples // 2),
        ]
    )
    escape_margin = float(np.min(g(outside) - (h + radius * radius)))
    escape_ok = bool(escape_margin >= -1e-9)

    overall = escape_ok and (curvature_ok if params.q > 1.0 else slope_ok)
    return GShapeReport(
        q=params.q,
        n_samples=n_samples,
        curvature_ok=curvature_ok,
        min_curvature=min_curvature,
        slope_ok=slope_ok,
        worst_left_slope=worst_left,
        worst_right_slope=worst_right,
        escape_ok=escape_ok,
        escape_margin=escape_margin,
        overall=bool(overall),
    )


def full_analysis(
    spec: PenaltySpec, q: float, lam: float
) -> tuple[PenaltyAnalysis, GParams, GAnalysis]:
    """Run analyze -> lower_bounds -> rationalize -> minimize_g -> delta_bar.

    The result is memoized on (spec, q, lam) in a bounded least-recently-used
    cache shared by every caller.  q and lam are validated first, as
    :func:`rationalize` would (ValueError), and only then looked up.  The key
    keeps argument types, so 2 and 2.0 are separate entries, exactly as their
    results differ in type; keyword and positional calls share one entry.
    Failures, such as the ConditionViolationError of an inadmissible penalty,
    are never cached.  The records returned are frozen, so sharing them
    between callers is safe.
    """
    _require_q(q)
    _require_lam(lam)
    return _full_analysis(spec, q, lam)


@functools.lru_cache(maxsize=256, typed=True)
def _full_analysis(
    spec: PenaltySpec, q: float, lam: float
) -> tuple[PenaltyAnalysis, GParams, GAnalysis]:
    analysis = analyze(spec)
    theta_lo, mu_lo = lower_bounds(spec, analysis, q)
    params = rationalize(theta_lo, mu_lo, lam, q, tau_hat=analysis.tau_hat)
    t_star, h = minimize_g(spec, analysis, params)
    ganalysis = GAnalysis(
        theta_lower=theta_lo,
        mu_lower=mu_lo,
        t_star=t_star,
        h=h,
        delta_bar=delta_bar(analysis, t_star),
    )
    return analysis, params, ganalysis
