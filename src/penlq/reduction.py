"""Build regularized L_q-minimization instances from 3-partition instances.

Given integers b_1..b_n (n = 3m) summing to m*B, :func:`build` materializes
the objective

    F(x) = sum_{j=2..m} |sum_i b_i x_ij - sum_i b_i x_i1|^q
         + sum_i |(lam*theta)^(1/q) * sum_j x_ij|^q
         + sum_i |(lam*mu)^(1/q) * (sum_j x_ij - tau_hat)|^q
         + lam * sum_ij p(|x_ij|)

as a concrete (A, target, lam, q, penalty) tuple over the n*m variables
x_ij.  F is bounded below by n*lam*h everywhere, the bound is attained
exactly by the certificates of equal-sum partitions, and any solution with
F < n*lam*h + epsilon decodes back into an equal-sum partition
(:mod:`penlq.decode`).  The matrix coefficients are 0, +-b_i, or the two
dyadic roots, so the instance size is polynomial in the 3-partition input.

Variable ordering: column (i-1)*m + (j-1) holds x_ij (0-based, row-major by
item).  Solution matrices are (n, m) arrays in the same layout.  Only this
module knows it: :func:`build` writes A through a (rows, n, m) view, and
other modules read x through :func:`as_solution_matrix`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import _is_integer, _require_array, _require_count, _require_lam, _require_q
from .gfun import GAnalysis, GParams, full_analysis
from .penalties import PenaltyAnalysis, PenaltySpec, _p_values

@dataclass(frozen=True)
class ThreePartitionInstance:
    """Multiset b_1..b_n of positive integers with n = 3m and sum(b) = m*B.

    m and every item of the iterable b must be Python or numpy integers;
    floats and bools are rejected with ValueError rather than coerced.
    """

    m: int
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", _require_count("m", self.m, 1))
        b = tuple(self.b) if isinstance(self.b, Iterable) else None
        if b is None or not all(_is_integer(v) for v in b):
            raise ValueError("b must be an iterable of integers")
        object.__setattr__(self, "b", tuple(int(v) for v in b))
        if len(self.b) != 3 * self.m:
            raise ValueError(f"expected n = 3m = {3 * self.m} items, got {len(self.b)}")
        if any(v <= 0 for v in self.b):
            raise ValueError("all items must be positive integers")
        if sum(self.b) % self.m != 0:
            raise ValueError(f"sum(b) = {sum(self.b)} is not divisible by m = {self.m}")

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def target_sum(self) -> int:
        """B, the per-subset sum of an equitable partition."""
        return sum(self.b) // self.m


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete instance of min_x ||A x - target||_q^q + lam * sum_j p(|x_j|).

    A and target must be finite, penalty a PenaltySpec, and q and lam obey
    the rules of :func:`penlq.gfun.rationalize`; anything else raises ValueError.
    An A or target that is read-only, C-contiguous and owns its memory, as
    :func:`build`'s are, is kept as is; any other is copied and frozen, so a
    caller's arrays stay writable and the record immutable.
    """

    a_matrix: np.ndarray
    target: np.ndarray
    lam: float
    q: float
    penalty: PenaltySpec

    def __post_init__(self):
        if not isinstance(self.penalty, PenaltySpec):
            raise ValueError(f"penalty must be a PenaltySpec, got {self.penalty!r}")
        a, t = _require_array("A", self.a_matrix), _require_array("target", self.target)
        if a.ndim != 2 or t.ndim != 1 or a.shape[0] != t.shape[0]:
            raise ValueError("A must be 2-d with one target entry per row")
        object.__setattr__(self, "q", _require_q(self.q))
        object.__setattr__(self, "lam", _require_lam(self.lam))
        for name, v in (("a_matrix", a), ("target", t)):
            if v.flags.writeable or not (v.flags.owndata and v.flags.c_contiguous):
                v = np.array(v, order="C")  # shared with the caller: copied, then frozen
                v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def rows(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.a_matrix.shape[1]

    def objective(self, x) -> float:
        """||A x - target||_q^q + lam * sum_j p(|x_j|) for a flat finite x."""
        x_arr = _require_array("x", x).reshape(-1)
        if x_arr.size != self.cols:
            raise ValueError(f"x must have {self.cols} entries, got {x_arr.size}")
        residual = self.a_matrix @ x_arr - self.target
        fit = float(np.sum(np.abs(residual) ** self.q))
        return fit + self.lam * float(np.sum(_p_values(self.penalty, np.abs(x_arr))))


@dataclass(frozen=True)
class ReductionInstance:
    """A materialized problem plus everything needed to decode solutions."""

    problem: ProblemInstance
    tp: ThreePartitionInstance
    analysis: PenaltyAnalysis
    gparams: GParams
    ganalysis: GAnalysis
    delta: float
    epsilon: float

    @property
    def n(self) -> int:
        return self.tp.n

    @property
    def m(self) -> int:
        return self.tp.m

    @property
    def t_star(self) -> float:
        return self.ganalysis.t_star


def build(
    tp: ThreePartitionInstance,
    spec: PenaltySpec,
    q: float,
    lam: float,
) -> ReductionInstance:
    """Materialize the reduction for (tp, penalty, q, lam).

    Runs the full coefficient pipeline, then writes three row blocks of A
    through its (rows, n, m) view, whose entry [row, i, j] multiplies x_ij:
    m-1 balance rows (+b_i against column j, -b_i against column 1), n rows
    tying each item's row sum to zero with weight (lam*theta)^(1/q) (omitted
    when theta = 0, i.e. q = 1), and n rows pulling each row sum to tau_hat
    with weight (lam*mu)^(1/q).  Raises ConditionViolationError for
    inadmissible penalties, ValueError when sum(b) > 2**53 (A inexact), and
    ValueError when (m-1)*(max(1, t_star)*sum(b))**q >= 2**1023: that bounds
    the balance part of F on every certificate, so F could overflow a float.
    """
    if sum(tp.b) > 2**53:
        raise ValueError(f"sum(b) = {sum(tp.b)} exceeds 2**53; A would not be exact")
    q, lam = _require_q(q), _require_lam(lam)
    analysis, gparams, ganalysis = full_analysis(spec, q, lam)
    n, m = tp.n, tp.m
    if m > 1:
        bits = math.log2(m - 1) + q * math.log2(max(1.0, ganalysis.t_star) * sum(tp.b))
        if bits >= 1023:
            raise ValueError(f"(m-1)*(max(1, t*)*sum(b))**q = 2**{bits:.1f} reaches 2**1023; "
                             "the objective would overflow a float")
    theta_root, mu_root = gparams.theta_root, gparams.mu_root
    roots = (theta_root, mu_root) if theta_root > 0.0 else (mu_root,)
    n_rows = (m - 1) + len(roots) * n
    a, target = np.zeros((n_rows, n * m)), np.zeros(n_rows)
    blocks = a.reshape(n_rows, n, m)  # blocks[row, i, j] multiplies x_ij
    b, items, j = np.array(tp.b, dtype=float), np.arange(n), np.arange(1, m)
    blocks[: m - 1, :, 0] = -b
    blocks[j - 1, :, j] = b  # balance row j - 1 against column j
    for k, root in enumerate(roots):
        blocks[m - 1 + k * n + items, items, :] = root  # row of item i in root block k
    target[-n:] = mu_root * gparams.tau_hat
    for v in (a, target):
        v.setflags(write=False)  # read-only and owned: the record keeps them uncopied

    delta = min(analysis.tau0 / (8.0 * sum(tp.b)), ganalysis.delta_bar)
    epsilon = min(lam * delta * delta, (analysis.tau0 / 2.0) ** q)
    problem = ProblemInstance(a_matrix=a, target=target, lam=lam, q=q, penalty=spec)
    return ReductionInstance(
        problem=problem,
        tp=tp,
        analysis=analysis,
        gparams=gparams,
        ganalysis=ganalysis,
        delta=delta,
        epsilon=epsilon,
    )


def as_solution_matrix(red: ReductionInstance, x) -> np.ndarray:
    """x as the (n, m) row-major solution matrix: a finite x of shape (n*m,)
    or (n, m), anything else raises ValueError."""
    x_arr, n, m = _require_array("x", x), red.n, red.m
    if x_arr.shape not in ((n * m,), (n, m)):
        raise ValueError(f"x must have shape ({n * m},) or ({n}, {m}), got {x_arr.shape}")
    return x_arr.reshape(n, m)


def objective(red: ReductionInstance, x) -> float:
    """F(x) for a solution x of shape (n*m,) or (n, m)."""
    return red.problem.objective(as_solution_matrix(red, x))


def optimal_bound(red: ReductionInstance) -> float:
    """n * lam * h, the global lower bound on F; attained iff an
    equal-sum partition exists."""
    return red.n * red.problem.lam * red.ganalysis.h

