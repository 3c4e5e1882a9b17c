"""Independent oracles used by the test suite.

Nothing here calls into the solver or decoder paths it is used to check:
the 3-partition oracle is a plain bin-completion backtracker, the
structured-minimum oracle a pure-Python loop over every assignment, the
uncached structured formula a copy of the enumerator as it stood before its
assignment table was cached, the objective oracle evaluates the four-block
sum term by term, the matrix reference forms A and target from an instance
file's record with Python loops, the derivative oracles are central finite
differences, the curvature reference samples -p'' on a grid, the condition
references test midpoint concavity pair by pair and classify one split at a
time, the reference line search is a golden-section search on values, the
l0 global minimum is one least-squares fit per support, and the reference
rounding reads each row against the construction's two windows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from penlq import p_d1, p_d2, p_eval


def three_partition_oracle(m: int, b) -> bool:
    """Exists a partition of b into m subsets (any sizes) each summing to B?"""
    total = sum(b)
    if total % m != 0:
        raise ValueError("sum(b) must be divisible by m")
    target = total // m
    items = sorted(b, reverse=True)
    bins = [0] * m

    def place(i: int) -> bool:
        if i == len(items):
            return all(s == target for s in bins)
        seen = set()
        for j in range(m):
            if bins[j] in seen:  # identical loads are interchangeable
                continue
            seen.add(bins[j])
            if bins[j] + items[i] <= target:
                bins[j] += items[i]
                if place(i + 1):
                    return True
                bins[j] -= items[i]
        return False

    return place(0)


def structured_minimum(m: int, b, q: float) -> tuple[int, ...]:
    """Assignment minimizing sum_{j>=2} |C_j - C_1|^q, item i in subset a[i].

    Assignments are visited in order of their little-endian base-m index
    (item i is digit i), and only a strictly smaller imbalance replaces the
    incumbent, so ties go to the smallest index.
    """
    best, best_value = None, None
    # product() varies its last position fastest, i.e. it counts up in base m
    # with the most significant digit first; reversed, item i is digit i.
    for digits in itertools.product(range(m), repeat=len(b)):
        sums = [0] * m
        for item, subset in zip(reversed(b), digits):
            sums[subset] += item
        value = sum(abs(c - sums[0]) ** q for c in sums[1:])
        if best_value is None or value < best_value:
            best, best_value = digits[::-1], value
    return best


def structured_x_uncached(red) -> np.ndarray:
    """The structured minimizer x by the plain per-assignment formula: the
    full (m**n, n) assignment digit table, rebuilt on every call, with each
    subset sum taken by an elementwise product.  The reference for the
    enumerator's per-half scoring."""
    n, m = red.n, red.m
    total = m**n
    b = np.asarray(red.tp.b, dtype=np.int64)
    powers = m ** np.arange(n, dtype=np.int64)
    digits = (np.arange(total, dtype=np.int64)[:, None] // powers[None, :]) % m
    sums = np.empty((total, m))
    for j in range(m):
        sums[:, j] = ((digits == j) * b).sum(axis=1)
    imbalance = np.sum(np.abs(sums[:, 1:] - sums[:, :1]) ** red.problem.q, axis=1)
    best = int(np.argmin(imbalance))
    x = np.zeros((n, m))
    x[np.arange(n), digits[best]] = red.t_star
    return x


def objective_by_blocks(red, x) -> float:
    """Evaluate F(x) directly from its four-block definition."""
    x = np.asarray(x, dtype=float).reshape(red.n, red.m)
    b = np.asarray(red.tp.b, dtype=float)
    q = red.problem.q
    lam = red.problem.lam
    gp = red.gparams
    weighted = b @ x  # length m: sum_i b_i x_ij per subset
    balance = float(np.sum(np.abs(weighted[1:] - weighted[0]) ** q))
    row_sums = x.sum(axis=1)
    pull_zero = float(np.sum(np.abs(gp.theta_root * row_sums) ** q))
    pull_anchor = float(np.sum(np.abs(gp.mu_root * (row_sums - gp.tau_hat)) ** q))
    penalty = lam * float(np.sum(p_eval(red.problem.penalty, np.abs(x))))
    return balance + pull_zero + pull_anchor + penalty


def matrix_from_record(record) -> tuple[np.ndarray, np.ndarray]:
    """(A, target) from an instance file's record alone, by the block formula:
    m - 1 balance rows with -b_i against x_i1 and +b_i against x_ij, then n
    rows of theta_root (omitted when it is 0) and n rows of mu_root over each
    item's m columns, and target mu_root*tau_hat on the last n rows.  Python
    loops over the JSON values, the reference for ``penlq.build``'s blocks."""
    m, b, meta = record["tp"]["m"], record["tp"]["b"], record["meta"]
    n = len(b)
    rows = []
    for j in range(1, m):
        row = [0.0] * (n * m)
        for i, item in enumerate(b):
            row[i * m], row[i * m + j] = -float(item), float(item)
        rows.append(row)
    roots = [meta["theta_root"], meta["mu_root"]] if meta["theta_root"] > 0 else [meta["mu_root"]]
    for root in roots:
        for i in range(n):
            row = [0.0] * (n * m)
            row[i * m:(i + 1) * m] = [root] * m
            rows.append(row)
    target = [0.0] * (len(rows) - n) + [meta["mu_root"] * meta["tau_hat"]] * n
    return np.array(rows), np.array(target)


def global_minimum_l0(red) -> tuple[float, np.ndarray]:
    """(min F, a minimizer) over all x, exactly, for l0 at q = 2.

    On a support S, F is a least-squares fit plus lam*|S|, so min F is the
    minimum over S of one least-squares residual plus lam*|S|.  Supports are
    enumerated by size, smallest first, with one batched pseudo-inverse per
    size, and the search stops once lam*|S| alone reaches the best value so
    far.  Ties keep the first support in lexicographic order.
    """
    problem = red.problem
    if problem.penalty.family != "l0" or problem.q != 2.0:
        raise ValueError("global_minimum_l0 needs the l0 penalty at q = 2")
    a, target, lam = problem.a_matrix, problem.target, problem.lam
    best, best_x = float(target @ target), np.zeros(problem.cols)  # S empty
    for size in range(1, problem.cols + 1):
        if lam * size >= best:
            break
        supports = np.array(list(itertools.combinations(range(problem.cols), size)))
        subs = a[:, supports].transpose(1, 0, 2)  # (supports, rows, size)
        coefs = np.linalg.pinv(subs) @ target  # the least-squares fit on each support
        residuals = (subs @ coefs[:, :, None])[:, :, 0] - target
        values = np.sum(residuals * residuals, axis=1) + lam * size
        k = int(np.argmin(values))
        if values[k] < best:
            best, best_x = float(values[k]), np.zeros(problem.cols)
            best_x[supports[k]] = coefs[k]
    return best, best_x


def round_by_windows(red, x):
    """The spike column of each item row by the construction's windows, or
    None: every row must hold exactly one entry within 2*delta of t_star and
    all its other entries within delta of 0.  The reference for the
    one-threshold rounding of ``penlq.round_solution``."""
    columns = []
    for row in np.asarray(x, dtype=float).reshape(red.n, red.m).tolist():
        spikes = [j for j, v in enumerate(row) if abs(v - red.t_star) < 2.0 * red.delta]
        zeros = [j for j, v in enumerate(row) if abs(v) < red.delta]
        if len(spikes) != 1 or len(spikes) + len(zeros) != len(row):
            return None
        columns.append(spikes[0])
    return tuple(columns)


def central_d1(spec, t, h=1e-6):
    """First derivative of p by central differences of p_eval."""
    return (p_eval(spec, t + h) - p_eval(spec, t - h)) / (2.0 * h)


def central_d2(spec, t, h=1e-6):
    """Second derivative of p by central differences of p_d1."""
    return (p_d1(spec, t + h) - p_d1(spec, t - h)) / (2.0 * h)


def sampled_k_bound(spec, tau0: float, tau: float, grid_n: int = 1000) -> float:
    """Grid-sampled max of -p'' on [tau0, tau], padded by a 1% safety factor:
    the reference that the closed-form ``k_bound`` of analyze is checked
    against."""
    grid = np.linspace(tau0, tau, grid_n)
    return 1.01 * float(np.max(-p_d2(spec, grid)))


_PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for a minimizer of f on [lo, hi].

    Shrinks the bracket until it is at most tol wide, or until a step
    leaves it no narrower (float resolution, so a tol below the spacing of
    floats near the minimizer still ends), and returns its midpoint; ties
    (f(c) == f(d)) keep the right-hand part.  Moved here unchanged from
    ``penlq.gfun`` as the reference line search of the descent tests.
    """
    c = hi - _PHI_INV * (hi - lo)
    d = lo + _PHI_INV * (hi - lo)
    fc, fd = f(c), f(d)
    width = hi - lo
    while width > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _PHI_INV * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _PHI_INV * (hi - lo)
            fd = f(d)
        narrower = hi - lo
        if narrower >= width:
            break
        width = narrower
    return 0.5 * (lo + hi)


def concave_by_all_pairs(p, tau: float, grid_n: int, tol: float = 1e-12) -> bool:
    """p((s+t)/2) >= (p(s)+p(t))/2 - tol for every pair s, t of the grid_n
    points of [0, tau]; ``p`` maps an array of t >= 0 to p(t)."""
    grid = np.linspace(0.0, tau, grid_n)
    vals = p(grid)
    gap = p(0.5 * (grid[:, None] + grid[None, :])) - 0.5 * (vals[:, None] + vals[None, :])
    return not float(np.min(gap)) < -tol


def classify_split_by_rule(p, c1: float, t_tilde: float, delta: float, parts) -> str:
    """The concentration verdict for one split of t_tilde, as a
    :class:`penlq.SplitVerdict` value: "hypothesis_fails" when the penalty
    sum reaches p(t_tilde) + c1*delta, else "concentrated_ok" when exactly
    one part lies within delta of t_tilde and the rest within delta of 0,
    else "counterexample_found"."""
    parts = np.asarray(parts, dtype=float)
    if float(np.sum(p(np.abs(parts)))) >= float(p(np.asarray(t_tilde))) + c1 * delta:
        return "hypothesis_fails"
    near_big = [abs(v - t_tilde) <= delta for v in parts]
    near_zero = [abs(v) <= delta for v in parts]
    if sum(near_big) == 1 and all(b or z for b, z in zip(near_big, near_zero)):
        return "concentrated_ok"
    return "counterexample_found"


# Curated desk-scale instances, labeled by three_partition_oracle (the
# labels are re-verified in the tests before use).
YES_INSTANCES = (
    (2, (1, 2, 3, 1, 2, 3)),
    (2, (1, 1, 1, 1, 1, 1)),
    (2, (2, 3, 5, 4, 4, 2)),
    (2, (10, 9, 1, 5, 7, 8)),
    (2, (1, 1, 1, 1, 1, 5)),  # equal sums need unequal subset sizes here
    (3, (1, 2, 3, 1, 2, 3, 1, 2, 3)),
    (3, (4, 5, 6, 5, 5, 5, 6, 4, 5)),
)

NO_INSTANCES = (
    (2, (3, 3, 3, 3, 3, 5)),
    (2, (1, 1, 1, 5, 6, 6)),
    (2, (4, 4, 4, 4, 4, 10)),
    (2, (6, 6, 6, 6, 6, 10)),
    (3, (1, 1, 1, 1, 1, 1, 1, 1, 10)),
    (3, (4, 4, 4, 4, 4, 4, 4, 4, 7)),
    (3, (2, 2, 2, 4, 4, 4, 6, 6, 15)),
)


def planted_items(m: int) -> list[int]:
    """Items 1e5..1e6 in m triples (3j + 1, 3j + 2, 3j + 3) that each sum to 1,400,000."""
    return [v for j in range(m) for v in (100000 + 7 * j, 300000 + 5 * j, 1000000 - 12 * j)]
