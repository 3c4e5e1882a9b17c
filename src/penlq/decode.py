"""Round near-optimal solutions back into equal-sum partitions.

The construction guarantees that any solution with objective below
bound + epsilon has, in every item row, exactly one entry within 2*delta of
t_star and all other entries within delta of zero.  :func:`round_solution`
reads that pattern with one threshold, t_star/2, and returns each row's
spike column, :func:`to_partition` reads the partition off those columns,
and :func:`decide` accepts x exactly when it rounds to an equal-sum
partition.  A sub-threshold objective that fails to decode beyond float
error is an implementation bug, reported as :class:`ReductionInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionInvariantError, RoundingFailureError
from .reduction import (
    ReductionInstance,
    ThreePartitionInstance,
    _checked_subsets,
    as_solution_matrix,
    objective,
    optimal_bound,
)


@dataclass(frozen=True)
class Partition:
    """m disjoint subsets of item indices (1-based) covering 1..n."""

    subsets: tuple[tuple[int, ...], ...]
    subset_sums: tuple[int, ...]


def round_solution(red: ReductionInstance, x) -> tuple[int, ...]:
    """The 0-based column of each item row's one spike.

    An entry is a spike iff it exceeds t_star/2, and every row must hold
    exactly one; the first row that does not raises RoundingFailureError
    naming it.  A non-finite x raises ValueError.
    """
    x_mat = as_solution_matrix(red, x)
    if not np.isfinite(x_mat).all():
        raise ValueError("x must contain only finite numbers")
    half = 0.5 * red.t_star
    spikes = x_mat > half
    counts = np.count_nonzero(spikes, axis=1)
    failed = np.flatnonzero(counts != 1)
    if failed.size:
        i = int(failed[0])
        raise RoundingFailureError(
            f"row {i + 1}: expected exactly one entry above t_star/2 = {half:g}, "
            f"found {int(counts[i])}"
        )
    return tuple(np.argmax(spikes, axis=1).tolist())


def to_partition(red: ReductionInstance, columns: tuple[int, ...]) -> Partition:
    """Assign item i to the subset of its spike column ``columns[i - 1]``; sums from tp.b."""
    subsets: list[list[int]] = [[] for _ in range(red.m)]
    for i, j in enumerate(columns):
        subsets[j].append(i + 1)
    sums = tuple(sum(red.tp.b[i - 1] for i in subset) for subset in subsets)
    return Partition(subsets=tuple(tuple(s) for s in subsets), subset_sums=sums)


def verify_equitable(tp: ThreePartitionInstance, partition: Partition) -> bool:
    """True iff every subset sums to B; sums are recomputed, not trusted.

    ``partition`` may also be a plain list of 1-based index lists; a
    partition that does not cover 1..n exactly once raises ValueError.
    """
    subsets = _checked_subsets(partition, tp.n)
    return all(sum(tp.b[i - 1] for i in subset) == tp.target_sum for subset in subsets)


def decide(red: ReductionInstance, x) -> Partition | None:
    """Decode x: the Partition it rounds to when every subset sums to B, else None.

    The verdict rests on the exact integer sums alone, so float error in
    F(x) cannot turn a verified partition away.  An x that does not decode
    although F(x) < bound + epsilon breaks the reduction's guarantee and
    raises ReductionInvariantError when even F plus a bound on its rounding
    error lies below it; otherwise the verdict is None, also when F
    overflows.  A non-finite x raises ValueError.
    """
    try:
        partition = to_partition(red, round_solution(red, x))
    except RoundingFailureError as exc:
        failure = f"failed to round: {exc}"
    else:
        if all(total == red.tp.target_sum for total in partition.subset_sums):
            return partition
        failure = f"decoded to unequal subset sums {partition.subset_sums}"
    with np.errstate(over="ignore", invalid="ignore"):  # an F that overflows is inf: None
        value, bound = objective(red, x), optimal_bound(red)
        if value < bound + red.epsilon:
            # a-priori rounding error of F and the bound; s_r bounds residual r's partial sums
            prob = red.problem
            s = np.abs(prob.a_matrix) @ np.abs(np.ravel(x)) + np.abs(prob.target)
            err = (8.0 * prob.q * (prob.rows + prob.cols) * np.finfo(float).eps
                   * (float(np.sum(s**prob.q)) + value + bound))
            if value + err < bound + red.epsilon:
                raise ReductionInvariantError(
                    f"near-optimal solution (F = {value:.17g} < bound + epsilon) {failure}; "
                    "the construction guarantees an equal-sum partition"
                )
    return None
