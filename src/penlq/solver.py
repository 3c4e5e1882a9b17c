"""Desk-scale solvers for reduction instances and generic problem instances.

:func:`minimize_structured` enumerates the certificate-shaped family
exhaustively: every assignment of items to subsets, with x_ij = t_star on
the chosen subset and 0 elsewhere.  Every assignment's imbalance is formed
from per-half subset-sum differences: two small cached weight tables, one
per half of the items, give each half's differences by one product with
the items, and outer sums of the two halves score all m**n assignments in
one vectorized numpy pass.  The sums are exact integers in floats because
build caps sum(b) at 2**53.  Since n = 3m, the 10**7 size guard admits
m <= 3 only, i.e. at most 3**9 assignments, so the pass is serial and
small.  For instances built from a 3-partition with an equal-sum
partition this family contains a global optimum, so the enumerator is exact
there; on other instances it upper-bounds the optimum over the structured
family only.  :func:`local_descent` is a generic derivative-free polisher
(the penalties have kinks and the l0 indicator is discontinuous, so it
minimizes one-dimensional restrictions instead of following gradients).
Its one line search, for every q and penalty family, cuts the trust
interval where the restriction may bend or jump and takes the best piece
end or, at q > 1, fitted vertex; a coordinate at exactly 0 skips it when
the penalty's chord slope proves that no move lowers the restriction.
:func:`solve` polishes only solutions that are not already certified
optimal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decode import _certificate, decide
from .errors import SizeGuardError, _require_array, _require_count, _require_real
from .penalties import _float_eval, kink_points
from .reduction import (
    ProblemInstance, ReductionInstance, as_solution_matrix, objective, optimal_bound,
)

_MAX_ASSIGNMENTS = 10**7


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray  # (n, m) solution matrix
    value: float  # objective(x), recomputed, never trusted from the search
    gap: float  # value - optimal_bound
    assignments_explored: int


@functools.lru_cache(maxsize=8)
def _half_weights(k: int, m: int) -> np.ndarray:
    """Read-only (m - 1, m**k, k) float table for one half of k items:
    entry [j - 1, r, i] is [digit i of r == j] - [digit i of r == 0], with
    r written in base m little-endian, so ``table[j - 1] @ b_half`` is that
    half's share of C_j - C_1 for every assignment r of its items.  Instances
    of one shape share it; n = 3m and the size guard keep m <= 3."""
    powers = m ** np.arange(k, dtype=np.int64)
    digits = (np.arange(m**k, dtype=np.int64)[:, None] // powers) % m
    subsets = np.arange(1, m)[:, None, None]
    weights = (digits == subsets).astype(float) - (digits == 0)
    weights.setflags(write=False)
    return weights


def require_desk_scale(m: int, n: int) -> None:
    """Raise SizeGuardError when the m**n certificate-shaped assignments of
    n items to m subsets exceed the cap of 10**7.  It reads m and n alone,
    so a caller can ask it before building the instance, and forms m**n only
    below the cap's bit length in n, from which on 2**n alone exceeds it."""
    m, n = _require_count("m", m, 1), _require_count("n", n, 1)
    if m > 1 and (n >= _MAX_ASSIGNMENTS.bit_length() or m**n > _MAX_ASSIGNMENTS):
        raise SizeGuardError(
            f"m**n = {m}**{n} assignments exceed the desk-scale cap of {_MAX_ASSIGNMENTS}"
        )


def minimize_structured(red: ReductionInstance) -> SolveResult:
    """Exhaustive search over all m**n certificate-shaped solutions.

    For each assignment, F = n*lam*h + t_star**q * sum_{j>=2} |C_j - C_1|^q
    where C_j is the integer sum of items assigned to subset j, so only the
    integer imbalance term varies.  Assignment k puts item i in subset
    digit i of k written in base m (little-endian).  The differences
    D_j = C_j - C_1 split over the low items 0..n//2-1 and the high rest
    (meet in the middle, Horowitz & Sahni 1974): each half's D_j come from
    one product of a cached weight table with its items, and the D_j of
    assignment hi*m**(n//2) + lo is hi's part plus lo's part, so all m**n
    imbalances are formed by outer sums without an (m**n, n) table.  The
    floats are exact integers, since build caps sum(b) at 2**53, so the
    scores equal those of the plain per-assignment formula bit for bit.
    Deterministic: ties break toward the smallest assignment index.
    Raises SizeGuardError above 10**7 assignments.
    """
    n, m = red.n, red.m
    require_desk_scale(m, n)
    total = m**n
    b = np.array(red.tp.b, dtype=float)  # exact: build caps sum(b) at 2**53
    low = n // 2
    lo = _half_weights(low, m) @ b[:low]
    hi = _half_weights(n - low, m) @ b[low:]
    diffs = (hi[:, :, None] + lo[:, None, :]).reshape(m - 1, total)  # row j - 1: D_j
    np.abs(diffs, out=diffs)
    diffs **= red.problem.q
    best = int(np.argmin(diffs.sum(axis=0)))  # the first minimum: smallest index

    x = _certificate(red, [best // m**i % m for i in range(n)])
    value = objective(red, x)
    return SolveResult(x=x, value=value, gap=value - optimal_bound(red), assignments_explored=total)


def _restriction(terms, xk: float, q: float, lam: float, pen):
    """phi_k(v) = sum_i |r_i + (v - x_k)*a_ik|^q + lam*p(|v|).

    The one-dimensional restriction of F to coordinate k, minus the terms
    that do not depend on x_k: ``terms`` are the (r_i, a_ik) pairs of the
    nonzero rows of column k, with r the residuals A x - target at the
    current x, and ``pen`` the plain-float penalty.  So phi_k(v) - phi_k(x_k)
    equals F(x + (v - x_k) e_k) - F(x) up to rounding.
    """

    def phi(v: float) -> float:
        shift = v - xk
        total = lam * pen(abs(v))
        try:
            for ri, a in terms:
                total += abs(ri + shift * a) ** q
        except OverflowError:  # float ** raises where numpy would give inf
            return math.inf
        return total

    return phi


# Relative slack on both sides of the zero screen.  It exceeds the rounding
# of the chord slope (a few ulps) and of the fit slope (about one ulp per
# term of the column, relative to the sum of the terms' magnitudes) for
# columns of up to several thousand nonzeros.
_SCREEN_MARGIN = 1e-12


def _stays_at_zero(terms, q: float, slope: float) -> bool:
    """Whether a zero-slope bound proves phi_k(v) > phi_k(0) for every
    v != 0 in [-step, step].

    For x_k = 0, with ``terms`` the (r_i, a_ik) pairs of column k and
    ``slope`` the penalty's chord slope lam*p(step)/step.  |.|^q is convex
    for q >= 1, so a term with r_i != 0 changes by at least
    v*q*|r_i|^(q-1)*sgn(r_i)*a_ik, and a term with r_i = 0 by
    |v*a_ik|^q >= 0; the fit part therefore falls by at most |v|*G, with G
    the magnitude of the summed slopes.  p is concave on [0, step] with
    p(0) = 0, so lam*p(|v|) >= |v|*slope.  Hence
    phi_k(v) - phi_k(0) >= |v|*(slope - G) > 0 once slope > G.  A line
    search could then only take a move that exact arithmetic calls uphill.
    """
    g = scale = 0.0
    try:
        for ri, a in terms:
            if ri:
                d = q * abs(ri) ** (q - 1.0) * a
                g += d if ri > 0.0 else -d
                scale += abs(d)
    except OverflowError:  # no finite bound on the fit slope: search
        return False
    return abs(g) + _SCREEN_MARGIN * (scale + slope) < slope


def _piecewise_min(phi, lo: float, hi: float, cuts, fit: bool) -> tuple[float, float]:
    """Best candidate v in [lo, hi] for phi, with phi(v).

    ``cuts``, sorted and strictly inside (lo, hi), split [lo, hi] into pieces.
    The candidates are the piece ends; with fit True each piece also offers
    the vertex of the parabola through three of its interior points, when
    that parabola is convex and the vertex lies inside the piece.  Where phi
    is concave on a piece, one of its ends is its minimum; where phi is a
    quadratic on a piece's interior, the vertex is.  On any other piece the
    vertex is an estimate, accepted only if it lowers phi below every
    candidate before it.  Only interior points enter the fit, so a jump of
    phi at a cut (l0 at 0) cannot distort it.  Ties keep the leftmost
    candidate.
    """
    ends = [lo, *cuts, hi]
    best, best_value = lo, phi(lo)
    for left, right in zip(ends, ends[1:]):
        candidates = [right]
        if fit:
            h = 0.25 * (right - left)
            mid = left + 2.0 * h
            f_left, f_mid, f_right = phi(mid - h), phi(mid), phi(mid + h)
            curvature = f_left - 2.0 * f_mid + f_right
            if curvature > 0.0:
                vertex = mid - h * (f_right - f_left) / (2.0 * curvature)
                if left < vertex < right:
                    candidates.insert(0, vertex)
        for v in candidates:
            value = phi(v)
            if value < best_value:
                best, best_value = v, value
    return best, best_value


def local_descent(
    problem: ProblemInstance,
    x0,
    step: float = 0.1,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> np.ndarray:
    """Coordinate-wise descent with one piecewise line search.

    Each sweep minimizes, coordinate by coordinate, the one-dimensional
    restriction phi_k of the objective over the trust interval
    [x_k - step, x_k + step].  The interval is cut at 0, at the penalty's
    kinks +-kappa and at the residual zeros x_k - r_i/a_ik, and the best
    piece end or, at q > 1, fitted vertex wins (:func:`_piecewise_min`).
    p is concave on each side of 0 and each |r_i + (v - x_k)*a_ik| is
    linear on each side of its zero, so at q = 1 phi_k is concave on every
    piece and the best piece end is the interval minimum.  At q = 2 with a
    penalty that is quadratic between its kinks (l0, hard_threshold, scad,
    mcp, piecewise_linear, linear) phi_k is a quadratic on every piece and
    its vertex is exact; elsewhere the vertex is an estimate, accepted only
    if it lowers phi_k.

    A coordinate at exactly 0 is screened first (:func:`_stays_at_zero`):
    its search is skipped when the penalty's chord slope lam*p(step)/step
    beats the slope G of the fit terms at 0.  The premise is q >= 1 and
    p(t) >= (t/step)*p(step) on [0, step], which holds because every
    registry penalty is concave on [0, step] with p(0) = 0.  Then
    phi_k(v) - phi_k(0) >= |v|*(lam*p(step)/step - G) > 0 on the whole
    trust interval, so a skipped search could only have taken a move that
    exact arithmetic calls uphill.  On the curated no-instances of
    tests/oracles.py (hybrid solves, 2 restarts) the screen skips 28-60 %
    of line searches for l0 and bridge, whose chord slope grows as step
    shrinks, and 4-27 % for the other families, least at q = 1.

    The residuals r = A x - target are cached as
    floats and recomputed from scratch at the start of every sweep, so a
    trial point costs only the nonzero rows of column k plus one penalty
    term (:func:`_restriction`); a move is taken only if it lowers that
    restriction, and then updates just those residuals.  Once per sweep
    the full objective is evaluated: a sweep that raised it (by rounding)
    is undone, so the objective is non-increasing, and descent stops once
    a sweep improves by less than tol.  Raises ValueError unless x0 holds
    problem.cols finite numbers, step is a positive finite number,
    max_iters a non-negative integer and tol a non-negative finite number.
    """
    x = _require_array("x0", x0).reshape(-1)
    step = _require_real("step", step, "positive")
    max_iters = _require_count("max_iters", max_iters, 0)
    tol = _require_real("tol", tol, "non-negative")

    a = problem.a_matrix
    columns = []
    for k in range(problem.cols):
        rows = np.flatnonzero(a[:, k])
        columns.append((rows.tolist(), a[rows, k].tolist()))
    q, lam = problem.q, problem.lam
    pen = _float_eval(problem.penalty)
    kinks = kink_points(problem.penalty)
    fixed_cuts = [0.0, *kinks, *(-kappa for kappa in kinks)]
    slope = lam * pen(step) / step

    xs = x.tolist()
    current = problem.objective(x)
    for _ in range(max_iters):
        sweep_start, start_xs = current, list(xs)
        r = (a @ np.array(xs) - problem.target).tolist()
        for k, (rows, vals) in enumerate(columns):
            xk = xs[k]
            terms = [(r[i], v) for i, v in zip(rows, vals)]
            if xk == 0.0 and _stays_at_zero(terms, q, slope):
                continue
            lo, hi = xk - step, xk + step
            cuts = [c for c in fixed_cuts if lo < c < hi]
            for ri, v in terms:
                zero = xk - ri / v
                if lo < zero < hi:
                    cuts.append(zero)
            cuts.sort()
            phi = _restriction(terms, xk, q, lam, pen)
            candidate, value = _piecewise_min(phi, lo, hi, cuts, fit=q > 1)
            if value < phi(xk):
                shift = candidate - xk
                for i, v in zip(rows, vals):
                    r[i] += shift * v
                xs[k] = candidate
        current = problem.objective(xs)
        if current > sweep_start:
            xs, current = start_xs, sweep_start
        if sweep_start - current < tol:
            break
    return np.array(xs)


def solve(
    red: ReductionInstance,
    mode: str = "structured",
    restarts: int = 0,
    seed: int = 0,
) -> SolveResult:
    """Structured enumeration, optionally polished by local descent.

    mode "structured" returns :func:`minimize_structured`'s result as it
    is; ``seed`` is not used.  mode "hybrid" returns it too when
    ``restarts`` is 0 or :func:`penlq.decode.decide` accepts its solution:
    by the reduction's forward direction an equal-sum certificate attains
    the global bound n*lam*h, so descent could move F by rounding only.
    Otherwise hybrid runs ``restarts`` descent passes: the first from the
    best structured solution, the rest from perturbations of it seeded by
    ``seed``; the returned value is never worse than the structured one.
    Reproducible for a fixed seed; the structured solution does not depend
    on it.  Raises ValueError unless restarts and seed are non-negative
    integers.
    """
    if mode not in ("structured", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    restarts = _require_count("restarts", restarts, 0)
    seed = _require_count("seed", seed, 0)
    base = minimize_structured(red)
    if mode == "structured" or restarts == 0 or decide(red, base.x) is not None:
        return base

    rng = np.random.default_rng(seed)
    best_x, best_val = base.x, base.value
    step = max(red.delta, 1e-3)
    for attempt in range(restarts):
        start = base.x
        if attempt:
            start = base.x + rng.uniform(-red.delta, red.delta, size=base.x.shape)
        polished = local_descent(red.problem, start, step=step)
        val = red.problem.objective(polished)
        if val < best_val:
            best_x, best_val = as_solution_matrix(red, polished), val
    return SolveResult(
        x=best_x,
        value=best_val,
        gap=best_val - optimal_bound(red),
        assignments_explored=base.assignments_explored,
    )
