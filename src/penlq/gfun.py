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
every later caller.  It admits (penalty, q, lam) only when theta, mu and g on
[-2*tau, 3*tau], the widest domain evaluated here, are finite floats, and
otherwise raises one ValueError naming the family, q and lam.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _require_array, _require_count, _require_lam, _require_q, _require_real
from .penalties import PenaltyAnalysis, PenaltySpec, analyze, p_d1, p_d2, p_eval

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
        for name, rule in (("q", ">= 1"), ("mu", "positive"), ("theta", "non-negative"),
                           ("tau_hat", ""), ("theta_root", "non-negative"),
                           ("mu_root", "positive")):
            if (value := getattr(self, name)) is not None or not name.endswith("_root"):
                object.__setattr__(self, name, _require_real(name, value, rule))
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
    q = _require_q(q)
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


def _overflow(q: float, lam: float) -> ValueError:
    """The one refusal of a (q, lam) whose theta, mu or g is not a finite float."""
    return ValueError(f"q = {q!r}, lambda = {lam!r}: g overflows a float on [-2*tau, 3*tau]")


def _dyadic_root_ceil(coef: float, lam: float, q: float) -> tuple[float, float]:
    """(r, r**q / lam) for the smallest multiple r of 2**-_GRID_EXP with r**q / lam >= coef.

    The test is made on r**q / lam as computed, the very expression that
    becomes the coefficient, so float rounding can never leave the
    coefficient below coef.  A step below r's ulp goes to the adjacent float,
    still on the grid.  Raises the ValueError of :func:`_overflow` when r or
    r**q / lam is not a finite float (coef may be inf).
    """
    step = 2.0**-_GRID_EXP
    try:
        r = math.ceil((lam * coef) ** (1.0 / q) / step) * step
        # float rounding in the q-th root can leave r a step off either way
        while r**q / lam < coef:
            r = max(r + step, math.nextafter(r, math.inf))
        while r > step and (down := min(r - step, math.nextafter(r, 0.0))) ** q / lam >= coef:
            r = down
        value = r**q / lam
    except OverflowError:  # the ceiling of inf, or r**q beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise _overflow(q, lam)
    return r, value


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
    is finite and at least 1 (bools are rejected for both), and, naming q
    and lam, when theta or mu is not a finite float.
    """
    q, lam = _require_q(q), _require_lam(lam)
    theta_root, theta = _dyadic_root_ceil(theta_lower, lam, q) if q > 1.0 else (0.0, 0.0)
    mu_target = mu_lower * theta if q > 1.0 else mu_lower
    mu_root, mu = _dyadic_root_ceil(mu_target, lam, q)
    if q == 2.0:
        snap = float(math.ceil(math.sqrt(lam * mu_target)))
        if mu_target <= (snapped := snap**q / lam) <= 1.05 * mu_target:
            mu_root, mu = snap, snapped
    return GParams(q=q, theta=theta, mu=mu, tau_hat=tau_hat, theta_root=theta_root,
                   mu_root=mu_root)


def g_eval(spec: PenaltySpec, params: GParams, t):
    """Evaluate g at any finite real t (scalar or array); anything else raises ValueError."""
    t_arr = _require_array("t", t)
    abs_t = np.abs(t_arr)
    out = (
        p_eval(spec, abs_t)
        + params.theta * abs_t**params.q
        + params.mu * np.abs(t_arr - params.tau_hat) ** params.q
    )
    return float(out) if t_arr.ndim == 0 else out


def _g_d1(spec: PenaltySpec, params: GParams, t):
    """g'(t) = p'(t) + q*(theta*t**(q-1) + mu*sgn(t - tau_hat)*|t - tau_hat|**(q-1))
    for numpy float64 t > 0 (a scalar or an array) off p's kinks."""
    q, d = params.q, t - params.tau_hat
    return p_d1(spec, t) + q * (
        params.theta * t ** (q - 1.0) + params.mu * np.sign(d) * np.abs(d) ** (q - 1.0)
    )


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
    so one bisection on the sign of g' (:func:`_g_d1`) runs for every q
    until the midpoint equals an endpoint; t_star is whichever of the two
    adjacent floats has the lower g, the lower one on a tie.  For q > 1, g
    is strictly convex there.  For q = 1 (theta = 0), g' < 0 below tau_hat
    and g' >= 0 from it on, so the search ends on t_star = tau_hat exactly,
    with h = p(tau_hat).  p' is :func:`p_d1`, whose kink check never fires
    on a band.  Raises ValueError below the thresholds.
    """
    _require_bounds(spec, analysis, params)
    lo, hi = analysis.tau0, analysis.tau
    while lo < (t := 0.5 * (lo + hi)) < hi:
        if _g_d1(spec, params, np.float64(t)) < 0.0:  # numpy powers give inf where g_eval's do
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
    curvature_ok: bool | None  # q > 1: g'' >= 1 - 1e-6 on the band
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

    The bounds are read from g's derivatives in closed form at the midpoints
    of equal cells, never at a band end or a kink of p.
    q > 1: g'' >= 1 - 1e-6 at the midpoints of n_samples cells of
    [tau0, tau]; g'' is +inf at tau_hat when q < 2.
    q = 1: g' < -1 + 1e-6 at the midpoints of n_samples // 2 cells of
    [tau0, tau_hat], and g' > 1 - 1e-6 at those of [tau_hat, tau].
    Both: g(t) >= h + delta_bar**2 on samples of [-2*tau, tau0] and
    [tau, 3*tau].  Raises ValueError unless n_samples is an integer >= 2.
    """
    n_samples = _require_count("n_samples", n_samples, 2)
    q, tau0, tau, tau_hat = params.q, analysis.tau0, analysis.tau, params.tau_hat
    t_star, h = minimize_g(spec, analysis, params)
    radius = delta_bar(analysis, t_star)
    midpoints = lambda lo, hi, n: lo + (np.arange(n) + 0.5) * ((hi - lo) / n)

    curvature_ok = min_curvature = None
    slope_ok = worst_left = worst_right = None
    if q > 1.0:
        ts = midpoints(tau0, tau, n_samples)
        with np.errstate(divide="ignore"):  # 0**(q-2) at tau_hat: g'' = +inf for q < 2
            g_d2 = p_d2(spec, ts) + q * (q - 1.0) * (
                params.theta * ts ** (q - 2.0) + params.mu * np.abs(ts - tau_hat) ** (q - 2.0)
            )
        min_curvature = float(np.min(g_d2))
        curvature_ok = bool(min_curvature >= 1.0 - 1e-6)
    else:
        worst_left = float(np.max(_g_d1(spec, params, midpoints(tau0, tau_hat, n_samples // 2))))
        worst_right = float(np.min(_g_d1(spec, params, midpoints(tau_hat, tau, n_samples // 2))))
        slope_ok = bool(worst_left < -1.0 + 1e-6 and worst_right > 1.0 - 1e-6)

    outside = np.concatenate(
        [
            np.linspace(-2.0 * tau, tau0, n_samples // 2),
            np.linspace(tau, 3.0 * tau, n_samples // 2),
        ]
    )
    escape_margin = float(np.min(g_eval(spec, params, outside) - (h + radius * radius)))
    escape_ok = bool(escape_margin >= -1e-9)

    overall = escape_ok and (curvature_ok if q > 1.0 else slope_ok)
    return GShapeReport(
        q=q,
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

    Raises ValueError by the float rule of this module, or from lower_bounds.
    The result is memoized on (spec, q, lam) in a bounded least-recently-used
    cache shared by every caller.  q and lam are validated first, as
    :func:`rationalize` would (ValueError), and looked up as the floats the
    rule returns, so 2, 2.0 and np.float32(2.0) share one entry, as do
    keyword and positional calls.  Failures, such as the
    ConditionViolationError of an inadmissible penalty, are never cached.
    The records returned are frozen, so sharing them between callers is safe.
    """
    return _full_analysis(spec, _require_q(q), _require_lam(lam))


@functools.lru_cache(maxsize=256)
def _full_analysis(
    spec: PenaltySpec, q: float, lam: float
) -> tuple[PenaltyAnalysis, GParams, GAnalysis]:
    analysis = analyze(spec)
    theta_lo, mu_lo = lower_bounds(spec, analysis, q)
    try:
        params = rationalize(theta_lo, mu_lo, lam, q, tau_hat=analysis.tau_hat)
        # each term of g peaks at an end, so g(-2*tau) + g(3*tau) bounds g between
        with np.errstate(over="ignore"):
            ends = g_eval(spec, params, (-2.0 * analysis.tau, 3.0 * analysis.tau))
            if not np.isfinite(np.sum(ends)):
                raise _overflow(q, lam)
    except ValueError as exc:  # q and lam are valid here, so this is _overflow's
        raise ValueError(f"{spec.family}: {exc}") from None
    t_star, h = minimize_g(spec, analysis, params)
    ganalysis = GAnalysis(
        theta_lower=theta_lo,
        mu_lower=mu_lo,
        t_star=t_star,
        h=h,
        delta_bar=delta_bar(analysis, t_star),
    )
    return analysis, params, ganalysis
