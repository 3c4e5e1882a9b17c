"""Convert partitions, spike columns and certificates into one another.

Every conversion goes through the column tuple of each item's 0-based
subset.  A partition's certificate (:func:`encode_certificate`) attains the
bound when the partition is equal-sum; back the other way, any x with
F < bound + epsilon has in every item row one entry within 2*delta of
t_star and the rest within delta of zero.  :func:`round_solution` reads
that pattern with one threshold, t_star/2, into spike columns,
:func:`to_partition` reads the partition off them, and :func:`decide`
accepts x exactly when it rounds to an equal-sum partition.  A
sub-threshold objective that fails to decode beyond float error is an
implementation bug, reported as :class:`ReductionInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionInvariantError, RoundingFailureError, _is_integer
from .reduction import (
    ReductionInstance, ThreePartitionInstance, as_solution_matrix, objective, optimal_bound,
)


@dataclass(frozen=True)
class Partition:
    """m disjoint subsets of item indices (1-based) covering 1..n."""

    subsets: tuple[tuple[int, ...], ...]
    subset_sums: tuple[int, ...]


def _checked_subsets(partition, n: int) -> tuple[tuple[int, ...], int]:
    """Each item's 0-based subset and the number of subsets of ``partition``,
    a :class:`Partition` or a list of lists of 1-based integer item indices;
    anything that does not cover items 1..n exactly once raises ValueError."""
    subsets = getattr(partition, "subsets", partition)
    if not (isinstance(subsets, (list, tuple))
            and all(isinstance(subset, (list, tuple)) for subset in subsets)):
        raise ValueError("partition must be a list of subsets, each a list of item indices")
    columns = [-1] * n
    for j, subset in enumerate(subsets):
        for item in subset:
            if not _is_integer(item):
                raise ValueError(f"partition item indices must be integers, got {item!r}")
            if not 1 <= item <= n or columns[item - 1] >= 0:
                raise ValueError(f"partition must cover items 1..{n} exactly once")
            columns[item - 1] = j
    if -1 in columns:
        raise ValueError(f"partition must cover items 1..{n} exactly once")
    return tuple(columns), len(subsets)


def encode_certificate(red: ReductionInstance, partition) -> np.ndarray:
    """Certificate matrix: x_ij = t_star where item i sits in subset j, else 0.

    ``partition`` is as :func:`verify_equitable` takes it, with m subsets;
    an equal-sum one's certificate attains the bound to within rounding.
    """
    columns, count = _checked_subsets(partition, red.n)
    if count != red.m:
        raise ValueError(f"partition must have {red.m} subsets, got {count}")
    return _certificate(red, columns)


def _certificate(red: ReductionInstance, columns) -> np.ndarray:
    """The (n, m) matrix with x_ij = t_star where columns[i] = j, else 0."""
    x = np.zeros((red.n, red.m))
    for i, j in enumerate(columns):
        x[i, j] = red.t_star
    return x


def round_solution(red: ReductionInstance, x) -> tuple[int, ...]:
    """The 0-based column of each item row's one spike.

    An entry is a spike iff it exceeds t_star/2, and every row must hold
    exactly one; the first row that does not raises RoundingFailureError
    naming it.  An x that is not a finite (n*m,) or (n, m) array raises
    ValueError.
    """
    x_mat = as_solution_matrix(red, x)
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
    """The Partition of ``columns``, each item's 0-based subset as
    :func:`round_solution` returns it; anything but a list or tuple of n
    integers in 0..m-1 raises ValueError."""
    n, m = red.n, red.m
    if not (isinstance(columns, (list, tuple)) and len(columns) == n
            and all(map(_is_integer, columns)) and 0 <= min(columns) and max(columns) < m):
        raise ValueError(f"columns must be {n} integers in 0..{m - 1}, got {columns!r}")
    return _partition(red.tp, columns, m)


def _partition(tp: ThreePartitionInstance, columns, count: int) -> Partition:
    """Put item i in subset columns[i - 1] of ``count``; sums from tp.b."""
    subsets: list[list[int]] = [[] for _ in range(count)]
    sums = [0] * count
    for i, (item, j) in enumerate(zip(tp.b, columns), start=1):
        subsets[j].append(i)
        sums[j] += item
    return Partition(subsets=tuple(map(tuple, subsets)), subset_sums=tuple(sums))


def verify_equitable(tp: ThreePartitionInstance, partition: Partition) -> bool:
    """True iff every subset sums to B; sums are recomputed, not trusted.

    ``partition`` may also be a plain list of 1-based index lists; a
    partition that does not cover 1..n exactly once raises ValueError.
    """
    columns, count = _checked_subsets(partition, tp.n)
    return all(total == tp.target_sum for total in _partition(tp, columns, count).subset_sums)


def decide(red: ReductionInstance, x) -> Partition | None:
    """Decode x: the Partition it rounds to when every subset sums to B, else None.

    The verdict rests on the exact integer sums alone, so float error in
    F(x) cannot turn a verified partition away.  An x that does not decode
    although F(x) < bound + epsilon breaks the reduction's guarantee and
    raises ReductionInvariantError when even F plus a bound on its rounding
    error lies below it; otherwise the verdict is None, also when F
    overflows.  An x that is not a finite (n*m,) or (n, m) array raises
    ValueError.
    """
    try:
        partition = _partition(red.tp, round_solution(red, x), red.m)  # its columns need no check
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
