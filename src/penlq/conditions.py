"""Admissibility checks and randomized inequality fuzzers.

:func:`check_conditions` certifies, up to grid resolution, the two
properties the reduction needs from a penalty: monotonicity on [0, 2*tau]
and concavity-but-not-linearity on [0, tau], and exactly that no kink of p
lies in the band [tau0, tau], so p is C^2 there.  Failures are reported with
concrete numerical witnesses, never raised.

The fuzzers exercise two consequences of those conditions that the rest of
the package leans on:

* subadditive bound: sum_i p(|t_i|) >= min(p(|sum_i t_i|), p(tau));
* concentration: any split of t_tilde in (tau0, tau) whose penalty sum stays
  below p(t_tilde) + c1*delta must put all mass near a single coordinate.

A sampled counterexample to either would falsify this implementation, so the
fuzz reports count them explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _MAX_SIZE, _require_array, _require_count
from .penalties import (
    _SLACK, PenaltyAnalysis, PenaltySpec, analyze, band, c1_margin, kink_points, p_eval,
)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of :func:`check_conditions`; witnesses are None on pass."""

    monotone_ok: bool
    monotone_witness: tuple[float, float, float, float] | None
    concave_ok: bool
    concave_witness: tuple[float, float, float] | None
    not_linear_ok: bool
    c1: float
    smooth_ok: bool
    smooth_witness: float | None  # a kink of p in the band [tau0, tau]
    grid_n: int  # points of the monotone and concavity grids
    overall: bool


def check_conditions(spec: PenaltySpec, grid_n: int = 1000) -> ConditionReport:
    """Verify the admissibility conditions, monotone and concave on uniform grids.

    100 <= grid_n <= 10**6 points are used per grid (ValueError otherwise);
    the report records grid_n since those certificates are only as fine as
    the grid.  Deterministic: identical inputs produce identical reports.
    """
    grid_n = _require_count("grid_n", grid_n, 100, _MAX_SIZE)
    tau, tau0, _ = band(spec)

    # Monotone on [0, 2*tau], up to _SLACK of max|p| on the grid.
    grid = np.linspace(0.0, 2.0 * tau, grid_n)
    vals = p_eval(spec, grid)
    drops = np.nonzero(np.diff(vals) < -_SLACK * np.max(np.abs(vals)))[0]
    monotone_ok = drops.size == 0
    monotone_witness = None
    if not monotone_ok:
        i = int(drops[0])
        monotone_witness = (float(grid[i]), float(grid[i + 1]), float(vals[i]), float(vals[i + 1]))

    # Midpoint concavity on [0, tau] in one pass over the half-step grid: no
    # gap_k = p(x_k) - (p(x_{k-1}) + p(x_{k+1}))/2 below -_SLACK*max|p| makes
    # the samples concave to rounding, hence p((s+t)/2) >= (p(s)+p(t))/2 for
    # every pair of the grid_n points, whose midpoints all lie on this grid.
    # l0's jump at 0 passes.
    hgrid = np.linspace(0.0, tau, 2 * grid_n - 1)
    hvals = p_eval(spec, hgrid)
    gap = hvals[1:-1] - 0.5 * (hvals[:-2] + hvals[2:])
    k = int(np.argmin(gap))
    concave_ok = not gap[k] < -_SLACK * np.max(np.abs(hvals))
    concave_witness = None if concave_ok else (float(hgrid[k]), float(hgrid[k + 2]), float(gap[k]))

    c1, not_linear_ok = c1_margin(spec, tau0)  # the rule of analyze

    # Smooth band: p is C^2 on [tau0, tau] exactly when none of its kinks
    # lies there; the interval is closed, as the condition asks for C^2 near tau.
    smooth_witness = next((kink for kink in kink_points(spec) if tau0 <= kink <= tau), None)
    smooth_ok = smooth_witness is None

    return ConditionReport(
        monotone_ok=monotone_ok,
        monotone_witness=monotone_witness,
        concave_ok=concave_ok,
        concave_witness=concave_witness,
        not_linear_ok=not_linear_ok,
        c1=float(c1),
        smooth_ok=smooth_ok,
        smooth_witness=smooth_witness,
        grid_n=grid_n,
        overall=monotone_ok and concave_ok and not_linear_ok and smooth_ok,
    )


def _subadditive_rows(spec: PenaltySpec, rows: np.ndarray) -> np.ndarray:
    """Per row t of ``rows``: sum_i p(|t_i|) >= min(p(|sum_i t_i|), p(tau))."""
    tau, _, _ = band(spec)
    lhs = np.sum(p_eval(spec, np.abs(rows)), axis=1)
    rhs = np.minimum(p_eval(spec, np.abs(np.sum(rows, axis=1))), p_eval(spec, tau))
    return lhs >= rhs - _SLACK * np.abs(rhs)


def subadditive_bound_holds(spec: PenaltySpec, t_list: Sequence[float]) -> bool:
    """Check sum_i p(|t_i|) >= min(p(|sum_i t_i|), p(tau)) for len >= 2."""
    t_arr = _require_array("t_list", t_list)
    if t_arr.ndim != 1 or t_arr.size < 2:
        raise ValueError("t_list must contain at least two entries")
    return bool(_subadditive_rows(spec, t_arr[None, :])[0])


class SplitVerdict(enum.Enum):
    HYPOTHESIS_FAILS = "hypothesis_fails"
    CONCENTRATED_OK = "concentrated_ok"
    COUNTEREXAMPLE_FOUND = "counterexample_found"


_VERDICTS = tuple(SplitVerdict)  # indexed by the codes of _classify_rows


def _concentration_radius(tau0: float, tau: float, t_tilde):
    """The bound min(tau0/3, t_tilde - tau0, tau - t_tilde) on delta, elementwise."""
    return np.minimum(np.minimum(tau0 / 3.0, t_tilde - tau0), tau - t_tilde)


def _classify_rows(spec: PenaltySpec, analysis: PenaltyAnalysis, t_tilde, delta, rows):
    """Verdict code per row of ``rows`` (a split of the matching t_tilde, with
    its delta): 0, 1, 2 for the members of :class:`SplitVerdict` in order."""
    t_tilde, delta = np.reshape(t_tilde, (-1, 1)), np.reshape(delta, (-1, 1))
    penalty_sum = np.sum(p_eval(spec, np.abs(rows)), axis=1, keepdims=True)
    fails = penalty_sum >= p_eval(spec, t_tilde) + analysis.c1 * delta
    near_big = np.abs(rows - t_tilde) <= delta
    near_zero = np.abs(rows) <= delta
    concentrated = (np.count_nonzero(near_big, axis=1) == 1) & np.all(near_zero | near_big, axis=1)
    return np.where(fails[:, 0], 0, np.where(concentrated, 1, 2))


def classify_split(
    spec: PenaltySpec,
    analysis: PenaltyAnalysis,
    t_tilde: float,
    delta: float,
    t_list: Sequence[float],
) -> SplitVerdict:
    """Classify one decomposition of t_tilde against the concentration bound.

    If the penalty sum already meets p(t_tilde) + c1*delta the implication is
    vacuous (HYPOTHESIS_FAILS).  Otherwise the entries must concentrate:
    exactly one within delta of t_tilde, all others within delta of zero.
    Boundary equality counts as concentrated (measure-zero convention).
    """
    tau0, tau = analysis.tau0, analysis.tau
    if not tau0 < t_tilde < tau:
        raise ValueError(f"t_tilde must lie in ({tau0:g}, {tau:g})")
    delta_max = _concentration_radius(tau0, tau, t_tilde)
    if not 0.0 < delta < delta_max:
        raise ValueError(f"delta must lie in (0, {delta_max:g})")
    t_arr = _require_array("t_list", t_list)
    if t_arr.size < 2:
        raise ValueError("t_list must contain at least two entries")
    if not abs(float(np.sum(t_arr)) - t_tilde) <= _SLACK * t_tilde:
        raise ValueError(f"t_list must sum to t_tilde (to within {_SLACK:g}*t_tilde)")
    return _VERDICTS[_classify_rows(spec, analysis, t_tilde, delta, t_arr.reshape(1, -1))[0]]


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    seed: int
    violations: int
    hypothesis_fails: int = 0
    concentrated: int = 0

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _length_batches(trials: int):
    """(length, count) pairs that split ``trials`` over lengths 2..6."""
    lengths = (2, 3, 4, 5, 6)
    counts = [trials // len(lengths)] * len(lengths)
    counts[0] += trials - sum(counts)
    return zip(lengths, counts)


def fuzz_subadditivity(spec: PenaltySpec, trials: int = 10_000, seed: int = 0) -> FuzzReport:
    """Random lists (length 2..6, entries uniform in [-2*tau, 2*tau]).

    Raises ValueError unless trials is an integer in [1, 10**6] and seed one
    >= 0.
    """
    seed = _require_count("seed", seed, 0)
    trials = _require_count("trials", trials, 1, _MAX_SIZE)
    tau, _, _ = band(spec)
    rng = np.random.default_rng(seed)
    violations = 0
    for length, n_here in _length_batches(trials):
        batch = rng.uniform(-2.0 * tau, 2.0 * tau, size=(n_here, length))
        violations += int(np.count_nonzero(~_subadditive_rows(spec, batch)))
    return FuzzReport(trials=trials, seed=seed, violations=violations)


def fuzz_concentration(spec: PenaltySpec, trials: int = 10_000, seed: int = 0) -> FuzzReport:
    """Random decompositions of random t_tilde; counts verdicts.

    Each trial draws an admissible (t_tilde, delta) and splits t_tilde into
    l in 2..6 parts; trials come in one batch per length.  Most trials use
    normalized positive weights plus zero-sum noise, so dispersed and
    negative splits occur; every 8th row of a batch is an exact spike (one
    coordinate carries everything, the rest are zero), which is the only
    way the penalty sum can stay below the threshold for the l0 indicator.
    Any COUNTEREXAMPLE_FOUND verdict is a bug and counts as a violation.
    The constants come from :func:`penlq.penalties.analyze`, so a rejected
    penalty raises ConditionViolationError first, before the arguments are
    checked.  Raises ValueError unless trials is an integer in [1, 10**6]
    and seed one >= 0.
    """
    analysis = analyze(spec)
    seed = _require_count("seed", seed, 0)
    trials = _require_count("trials", trials, 1, _MAX_SIZE)
    tau0, tau = analysis.tau0, analysis.tau
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(_VERDICTS), dtype=int)
    for length, n_here in _length_batches(trials):
        t_tilde = rng.uniform(tau0 + 0.05 * (tau - tau0), tau - 0.05 * (tau - tau0), size=n_here)
        delta_max = _concentration_radius(tau0, tau, t_tilde)
        delta = rng.uniform(0.05, 0.95, size=n_here) * delta_max
        weights = rng.exponential(1.0, size=(n_here, length))
        parts = t_tilde[:, None] * weights / weights.sum(axis=1, keepdims=True)
        noise = rng.normal(0.0, 0.3, size=(n_here, length)) * t_tilde[:, None]
        parts += noise - noise.mean(axis=1, keepdims=True)
        parts -= (parts.sum(axis=1, keepdims=True) - t_tilde[:, None]) / length  # re-center
        spikes = np.arange(0, n_here, 8)
        parts[spikes] = 0.0
        parts[spikes, rng.integers(length, size=spikes.size)] = t_tilde[spikes]
        codes = _classify_rows(spec, analysis, t_tilde, delta, parts)
        counts += np.bincount(codes, minlength=counts.size)
    fails, concentrated, violations = counts.tolist()
    return FuzzReport(trials=trials, seed=seed, violations=violations,
                      hypothesis_fails=fails, concentrated=concentrated)
