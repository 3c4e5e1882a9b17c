"""Round near-optimal solutions back into equal-sum partitions.

The construction guarantees that any solution with objective below
bound + epsilon has, in every item row, exactly one entry within 2*delta of
t_star and all other entries within delta of zero.  :func:`round_solution`
enforces exactly that pattern and returns each row's spike column,
:func:`to_partition` reads the partition off those columns, and
:func:`decide` accepts x exactly when it rounds to an equal-sum partition.
A sub-threshold objective that fails to decode is an implementation bug,
reported as :class:`ReductionInvariantError`.
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
    """The 0-based column of each item row's one spike at t_star.

    An entry with |x_ij - t_star| < 2*delta is a spike, one with
    |x_ij| < delta a zero.  One row-wise predicate asks for exactly one
    near-t_star entry and none in neither zone; the first row that fails
    raises RoundingFailureError naming it (a wrong count before a stray
    entry): such an x cannot come from a sub-threshold objective.
    """
    x_mat = as_solution_matrix(red, x)
    t_star, delta = red.t_star, red.delta
    near_star = np.abs(x_mat - t_star) < 2.0 * delta
    stray = ~(near_star | (np.abs(x_mat) < delta))
    stars = np.count_nonzero(near_star, axis=1)
    failed = np.flatnonzero((stars != 1) | stray.any(axis=1))
    if failed.size:
        i = int(failed[0])
        if stars[i] != 1:
            raise RoundingFailureError(
                f"row {i + 1}: expected exactly one entry within {2 * delta:g} of "
                f"t_star = {t_star:g}, found {int(stars[i])}"
            )
        k = int(np.argmax(stray[i]))
        raise RoundingFailureError(
            f"row {i + 1}: entry x[{i + 1},{k + 1}] = {x_mat[i, k]:g} is neither "
            f"within {delta:g} of 0 nor within {2 * delta:g} of t_star"
        )
    return tuple(np.argmax(near_star, axis=1).tolist())


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
    raises ReductionInvariantError.  A non-finite x raises ValueError; no
    such x rounds, so an accepted x is not checked for it.
    """
    try:
        partition = to_partition(red, round_solution(red, x))
    except RoundingFailureError as exc:
        if not np.all(np.isfinite(as_solution_matrix(red, x))):
            raise ValueError("decide: x must contain only finite numbers") from None
        failure = f"failed to round: {exc}"
    else:
        if all(total == red.tp.target_sum for total in partition.subset_sums):
            return partition
        failure = f"decoded to unequal subset sums {partition.subset_sums}"
    value = objective(red, x)
    if value < optimal_bound(red) + red.epsilon:
        raise ReductionInvariantError(
            f"near-optimal solution (F = {value:.17g} < bound + epsilon) {failure}; "
            "the construction guarantees an equal-sum partition"
        )
    return None
