"""Desk-scale solvers for reduction instances and generic problem instances.

:func:`minimize_structured` enumerates the certificate-shaped family
exhaustively: every assignment of items to subsets, with x_ij = t_star on
the chosen subset and 0 elsewhere, scored in one vectorized numpy pass.
Since n = 3m, the 10**7 size guard admits m <= 3 only, i.e. at most 3**9
assignments, so the pass is serial and small.  For instances built from a 3-partition
with an equal-sum partition this family contains a global optimum, so the
enumerator is exact there; on other instances it upper-bounds the optimum
over the structured family only.  :func:`local_descent` is a generic
derivative-free polisher (the penalties have kinks and the l0 indicator is
discontinuous, so one-dimensional golden-section restrictions are used
instead of gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .gfun import _golden_min
from .penalties import _float_eval
from .reduction import ProblemInstance, ReductionInstance, objective, optimal_bound

_MAX_ASSIGNMENTS = 10**7


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray  # (n, m) solution matrix
    value: float  # objective(x), recomputed, never trusted from the search
    gap: float  # value - optimal_bound
    assignments_explored: int
    seed: int


def minimize_structured(red: ReductionInstance) -> SolveResult:
    """Exhaustive search over all m**n certificate-shaped solutions.

    For each assignment, F = n*lam*h + t_star**q * sum_{j>=2} |C_j - C_1|^q
    where C_j is the integer sum of items assigned to subset j, so only the
    integer imbalance term varies.  All assignments are scored in one
    vectorized pass; assignment k puts item i in subset digit i of k written
    in base m (little-endian).  Deterministic: ties break toward the
    smallest assignment index.  Raises SizeGuardError above 10**7
    assignments.
    """
    n, m = red.n, red.m
    total = m**n
    if total > _MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"m**n = {total} assignments exceed the desk-scale cap of {_MAX_ASSIGNMENTS}"
        )
    b = np.asarray(red.tp.b, dtype=np.int64)
    powers = m ** np.arange(n, dtype=np.int64)
    digits = (np.arange(total, dtype=np.int64)[:, None] // powers[None, :]) % m
    sums = np.empty((total, m))
    for j in range(m):
        sums[:, j] = ((digits == j) * b).sum(axis=1)
    imbalance = np.sum(np.abs(sums[:, 1:] - sums[:, :1]) ** red.problem.q, axis=1)
    best = int(np.argmin(imbalance))  # the first minimum: smallest index

    x = np.zeros((n, m))
    x[np.arange(n), digits[best]] = red.t_star
    value = objective(red, x)
    return SolveResult(
        x=x, value=value, gap=value - optimal_bound(red), assignments_explored=total, seed=0
    )


def _restriction(r, rows, vals, xk: float, q: float, lam: float, pen):
    """phi_k(v) = sum_{i in rows} |r_i + (v - x_k)*a_ik|^q + lam*p(|v|).

    The one-dimensional restriction of F to coordinate k, minus the terms
    that do not depend on x_k: ``rows``/``vals`` are the nonzero rows and
    values of column k, ``r`` the residuals A x - target at the current x,
    and ``pen`` the plain-float penalty.  So phi_k(v) - phi_k(x_k) equals
    F(x + (v - x_k) e_k) - F(x) up to rounding.
    """
    terms = [(r[i], a) for i, a in zip(rows, vals)]

    def phi(v: float) -> float:
        shift = v - xk
        total = lam * pen(abs(v))
        for ri, a in terms:
            total += abs(ri + shift * a) ** q
        return total

    return phi


def local_descent(
    problem: ProblemInstance,
    x0,
    step: float = 0.1,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> np.ndarray:
    """Coordinate-wise descent with golden-section line searches.

    Each sweep minimizes, coordinate by coordinate, the one-dimensional
    restriction of the objective over the trust interval
    [x_k - step, x_k + step] (golden section down to width 1e-10).  The
    residuals r = A x - target are cached as floats and recomputed from
    scratch at the start of every sweep, so a trial point costs only the
    nonzero rows of column k plus one penalty term (:func:`_restriction`);
    a move is taken only if it lowers that restriction, and then updates
    just those residuals.  Once per sweep the full objective is evaluated:
    a sweep that raised it (by rounding) is undone, so the objective is
    non-increasing, and descent stops once a sweep improves by less than
    tol.  Raises ValueError for a non-finite x0, a step that is not a
    positive finite number, or max_iters < 0.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != problem.cols:
        raise ValueError(f"x0 must have {problem.cols} entries, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")

    a = problem.a_matrix
    columns = []
    for k in range(problem.cols):
        rows = np.flatnonzero(a[:, k])
        columns.append((rows.tolist(), a[rows, k].tolist()))
    q, lam = problem.q, problem.lam
    pen = _float_eval(problem.penalty)

    xs = x.tolist()
    current = problem.objective(x)
    for _ in range(max_iters):
        sweep_start, start_xs = current, list(xs)
        r = (a @ np.array(xs) - problem.target).tolist()
        for k, (rows, vals) in enumerate(columns):
            xk = xs[k]
            phi = _restriction(r, rows, vals, xk, q, lam, pen)
            candidate = _golden_min(phi, xk - step, xk + step, 1e-10)
            if phi(candidate) < phi(xk):
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

    mode "structured" returns :func:`minimize_structured` unchanged.  mode
    "hybrid" additionally runs ``restarts`` descent passes: the first from
    the best structured solution, the rest from seeded perturbations of it;
    the returned value is never worse than the structured one.  Reproducible
    for a fixed seed; structured mode is seed-independent.
    """
    if mode not in ("structured", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if restarts < 0:
        raise ValueError("restarts must be non-negative")
    base = minimize_structured(red)
    if mode == "structured" or restarts == 0:
        return base

    rng = np.random.default_rng(seed)
    best_x, best_val = base.x, base.value
    step = max(red.delta, 1e-3)
    for attempt in range(restarts):
        if attempt == 0:
            start = base.x.reshape(-1)
        else:
            start = base.x.reshape(-1) + rng.uniform(-red.delta, red.delta, size=base.x.size)
        polished = local_descent(red.problem, start, step=step)
        val = red.problem.objective(polished)
        if val < best_val:
            best_x, best_val = polished.reshape(red.n, red.m), val
    return SolveResult(
        x=best_x,
        value=best_val,
        gap=best_val - optimal_bound(red),
        assignments_explored=base.assignments_explored,
        seed=seed,
    )
