import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import penlq.reduction
from penlq import (
    Partition,
    ReductionInvariantError,
    RoundingFailureError,
    ThreePartitionInstance,
    build,
    decide,
    encode_certificate,
    objective,
    optimal_bound,
    round_solution,
    to_partition,
    verify_equitable,
)

from oracles import round_by_windows


def test_round_exact_certificate_is_identity(demo_instance, demo_certificate):
    columns = round_solution(demo_instance, demo_certificate)
    assert type(columns) is tuple and columns == (0, 0, 0, 1, 1, 1)


def test_round_small_perturbation_keeps_columns(demo_instance, demo_certificate):
    rng = np.random.default_rng(1)
    delta = demo_instance.delta
    noisy = demo_certificate + rng.uniform(-delta / 2, delta / 2, size=(6, 2))
    assert round_solution(demo_instance, noisy) == (0, 0, 0, 1, 1, 1)


def _rounding_failure(red, x) -> str:
    with pytest.raises(RoundingFailureError) as info:
        round_solution(red, x)
    return str(info.value)


_COUNT = "expected exactly one entry above t_star/2 = 0.347837, found"


def test_round_rejects_double_spike(demo_instance, demo_certificate):
    bad = demo_certificate.copy()
    bad[0, 1] = demo_instance.t_star  # second spike in row 1
    assert _rounding_failure(demo_instance, bad) == f"row 1: {_COUNT} 2"


def test_round_rejects_empty_row(demo_instance, demo_certificate):
    bad = demo_certificate.copy()
    bad[2, :] = 0.0
    assert _rounding_failure(demo_instance, bad) == f"row 3: {_COUNT} 0"


def test_round_reads_an_entry_at_half_t_star_as_zero(demo_instance, demo_certificate):
    x = demo_certificate.copy()
    x[4, 0] = demo_instance.t_star / 2.0  # not above the threshold
    assert round_solution(demo_instance, x) == (0, 0, 0, 1, 1, 1)
    x[4, 0] = np.nextafter(demo_instance.t_star / 2.0, 1.0)  # one ulp above: a second spike
    assert _rounding_failure(demo_instance, x) == f"row 5: {_COUNT} 2"


def test_round_names_the_first_failing_row(demo_instance, demo_certificate):
    bad = demo_certificate.copy()
    bad[1, 1] = demo_instance.t_star  # second spike in row 2
    bad[5, :] = 0.0  # and no spike in row 6
    assert _rounding_failure(demo_instance, bad) == f"row 2: {_COUNT} 2"


def _window_cases(m: int, rng):
    """(b, subsets) pairs with items up to 1e6: a planted equal-sum
    assignment, then the same items assigned at random."""
    for top in (30, 3000, 10**6):
        pairs = rng.integers(1, top // 3 + 1, size=(m, 2))
        triples = np.column_stack([pairs, top - pairs.sum(axis=1)])  # each sums to top
        order = rng.permutation(3 * m)  # item order[k] + 1 holds triples.flat[k]
        b = np.empty(3 * m, dtype=np.int64)
        b[order] = triples.ravel()
        yield tuple(b.tolist()), [sorted(int(i) + 1 for i in order[3 * j : 3 * j + 3])
                                  for j in range(m)]
        assignment = rng.integers(0, m, size=3 * m)
        yield tuple(b.tolist()), [[i + 1 for i in range(3 * m) if assignment[i] == j]
                                  for j in range(m)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_round_agrees_with_the_window_oracle_inside_the_windows(specs, q, m):
    # inside the windows the threshold t_star/2 must read the same columns,
    # and decide must accept exactly the x whose oracle sums are all B
    rng = np.random.default_rng(int(10 * q) + m)
    for spec in specs.values():
        for b, subsets in _window_cases(m, rng):
            red = build(ThreePartitionInstance(m=m, b=b), spec, q=q, lam=1.0)
            cert = encode_certificate(red, subsets)
            radius = 0.999 * red.delta * np.where(cert > 0.0, 2.0, 1.0)
            for _ in range(5):
                x = cert + rng.uniform(-1.0, 1.0, size=cert.shape) * radius
                columns = round_by_windows(red, x)
                assert columns is not None and round_solution(red, x) == columns
                sums = [sum(v for v, c in zip(b, columns) if c == j) for j in range(m)]
                equal = all(total == red.tp.target_sum for total in sums)
                assert (decide(red, x) is not None) == equal


def _planted(m: int, rng) -> tuple[ThreePartitionInstance, list[list[int]]]:
    """m shuffled triples of items in 1e5..1e6, each triple summing to 1.2e6."""
    items = []
    for _ in range(m):
        pair = [int(v) for v in rng.integers(100_000, 400_001, size=2)]
        items += pair + [1_200_000 - sum(pair)]
    order = rng.permutation(3 * m)  # item order[k] + 1 holds items[k]
    b = np.zeros(3 * m, dtype=np.int64)
    b[order] = items
    subsets = [sorted(int(i) + 1 for i in order[3 * j : 3 * j + 3]) for j in range(m)]
    return ThreePartitionInstance(m=m, b=tuple(b.tolist())), subsets


def _large_m_cases(specs):
    rng = np.random.default_rng(29)
    for m in (4, 6):
        tp, subsets = _planted(m, rng)
        for spec in specs.values():
            for q in (1.0, 2.0):
                yield build(tp, spec, q=q, lam=1.0), subsets
    tp = ThreePartitionInstance(m=30, b=(1, 2, 3) * 30)
    yield build(tp, specs["mcp"], q=2.0, lam=1.0), [[3 * j + 1, 3 * j + 2, 3 * j + 3]
                                                    for j in range(30)]


def test_decode_round_trip_at_large_m(specs):
    for red, subsets in _large_m_cases(specs):
        partition = decide(red, encode_certificate(red, subsets))
        assert partition is not None
        assert partition.subsets == tuple(tuple(s) for s in subsets)
        assert set(partition.subset_sums) == {red.tp.target_sum}


def test_round_failures_name_the_row_at_large_m(specs):
    for red, subsets in _large_m_cases(specs):
        cert = encode_certificate(red, subsets)
        i = red.n - 2
        owner = next(j for j, s in enumerate(subsets) if i + 1 in s)
        other = (owner + 1) % red.m
        doubled = cert.copy()
        doubled[i, other] = red.t_star
        message = _rounding_failure(red, doubled)
        assert message.startswith(f"row {i + 1}: expected exactly one") and message.endswith("found 2")
        emptied = cert.copy()
        emptied[i, :] = 0.0
        message = _rounding_failure(red, emptied)
        assert message.startswith(f"row {i + 1}: expected exactly one") and message.endswith("found 0")


def test_to_partition_reads_sums(demo_instance, demo_certificate):
    partition = to_partition(demo_instance, round_solution(demo_instance, demo_certificate))
    assert partition.subsets == ((1, 2, 3), (4, 5, 6))
    assert partition.subset_sums == (6, 6)


def test_to_partition_lopsided(demo_instance):
    cert = encode_certificate(demo_instance, [[1, 2, 4], [3, 5, 6]])
    partition = to_partition(demo_instance, round_solution(demo_instance, cert))
    assert partition.subset_sums == (4, 8)


def test_to_partition_m1(mcp_spec):
    red = build(ThreePartitionInstance(m=1, b=(1, 2, 3)), mcp_spec, q=2.0, lam=1.0)
    cert = encode_certificate(red, [[1, 2, 3]])
    partition = to_partition(red, round_solution(red, cert))
    assert partition.subsets == ((1, 2, 3),)
    assert partition.subset_sums == (6,)
    assert verify_equitable(red.tp, partition)


@pytest.mark.parametrize("columns", [
    (0, 0, 0, -1, -1, -1),  # a negative index would wrap to the last subset
    (0, 0, 0, 1, 1),  # item 6 has no column
    (0, 0, 0, 1, 1, 1, 1),
    (0.0, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 2),
    (True, 0, 0, 1, 1, 1),
    np.array([0, 0, 0, 1, 1, 1]),
    "000111",
])
def test_to_partition_refuses_bad_columns(demo_instance, columns):
    with pytest.raises(ValueError, match=r"columns must be 6 integers in 0\.\.1"):
        to_partition(demo_instance, columns)


def test_partitions_have_one_home(demo_instance, mcp_spec):
    assert penlq.encode_certificate is penlq.decode.encode_certificate
    for name in ("Partition", "_checked_subsets", "_certificate", "encode_certificate"):
        assert not hasattr(penlq.reduction, name)
    # partition -> certificate -> columns -> partition is the identity
    red = build(ThreePartitionInstance(m=3, b=(4, 5, 6, 5, 5, 5, 6, 4, 5)), mcp_spec, q=2.0,
                lam=1.0)
    for columns in itertools.islice(itertools.product(range(3), repeat=9), 0, None, 37):
        partition = to_partition(red, columns)
        assert round_solution(red, encode_certificate(red, partition)) == columns
        assert verify_equitable(red.tp, partition) == (set(partition.subset_sums) == {15})
    # numpy integers are columns too; the record holds Python ints
    partition = to_partition(demo_instance, [np.int64(1), np.uint8(1), np.int8(1), 0, 0, 0])
    assert partition == Partition(((4, 5, 6), (1, 2, 3)), (6, 6))
    assert all(type(v) is int for v in (*partition.subset_sums, *sum(partition.subsets, ())))


def test_verify_equitable(demo_instance):
    tp = demo_instance.tp
    assert verify_equitable(tp, Partition(((1, 2, 3), (4, 5, 6)), (6, 6)))
    assert not verify_equitable(tp, Partition(((1, 2, 4), (3, 5, 6)), (4, 8)))
    with pytest.raises(ValueError):
        verify_equitable(tp, Partition(((1, 2), (3, 5, 6)), (0, 0)))  # item 4 missing
    with pytest.raises(ValueError):
        verify_equitable(tp, Partition(((1, 2, 3, 3), (4, 5, 6)), (0, 0)))


def test_decide_yes_on_certificate(demo_instance, demo_certificate):
    partition = decide(demo_instance, demo_certificate)
    assert partition is not None
    assert partition.subsets == ((1, 2, 3), (4, 5, 6))


def test_decide_unknown_above_threshold(demo_instance):
    assert decide(demo_instance, np.zeros((6, 2))) is None


def test_decide_calls_an_overflowing_objective_unknown(demo_instance):
    # F(x) overflows for a finite x; the verdict is decide's, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decide(demo_instance, np.full((6, 2), 1e200)) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decide_rejects_non_finite_entries(demo_instance, demo_certificate, bad):
    x = demo_certificate.copy()
    x[0, 1] = bad
    for call in (round_solution, decide):
        with pytest.raises(ValueError, match="finite"):
            call(demo_instance, x)


def test_round_trip_identity_over_all_assignments(demo_instance):
    for assignment in itertools.product(range(2), repeat=6):
        subsets = [[], []]
        for item, j in enumerate(assignment, start=1):
            subsets[j].append(item)
        if any(len(s) == 0 for s in subsets):
            continue  # encode requires covering, empty subsets are fine
        cert = encode_certificate(demo_instance, subsets)
        partition = to_partition(demo_instance, round_solution(demo_instance, cert))
        assert [list(s) for s in partition.subsets] == subsets


def test_thousand_perturbations_decode_to_original(demo_instance, demo_certificate):
    rng = np.random.default_rng(8)
    delta = demo_instance.delta
    for _ in range(1000):
        noisy = demo_certificate + rng.uniform(-delta / 2, delta / 2, size=(6, 2))
        partition = to_partition(demo_instance, round_solution(demo_instance, noisy))
        assert partition.subsets == ((1, 2, 3), (4, 5, 6))


def test_decide_yes_under_near_optimal_noise(demo_instance, demo_certificate):
    # noise small enough to keep the objective below bound + epsilon (the
    # zero entries sit on the penalty kink, so perturbations cost first
    # order: roughly lam * gamma * |noise| per entry)
    rng = np.random.default_rng(13)
    bound = optimal_bound(demo_instance)
    accepted = 0
    for _ in range(1000):
        noisy = demo_certificate + rng.uniform(-1e-6, 1e-6, size=(6, 2))
        if objective(demo_instance, noisy) < bound + demo_instance.epsilon:
            accepted += 1
            partition = decide(demo_instance, noisy)
            assert partition is not None
            assert verify_equitable(demo_instance.tp, partition)
    assert accepted > 900  # the hypothesis must actually be exercised


def test_subset_sum_gap_below_one(demo_instance, demo_certificate):
    # the pre-integrality bound: (1/t*) * (4*delta*sum(b) + tau0/2) <= 1
    red = demo_instance
    real_bound = (4.0 * red.delta * sum(red.tp.b) + red.analysis.tau0 / 2.0) / red.t_star
    assert real_bound <= 1.0
    partition = decide(red, demo_certificate)
    sums = partition.subset_sums
    assert max(abs(s - sums[0]) for s in sums) < 1


def test_decide_raises_on_internal_inconsistency(demo_instance, demo_certificate):
    # triple t_star so rounding must fail while the value gate still passes:
    # the decoder has to surface that as a broken invariant, loudly
    rng = np.random.default_rng(3)
    noisy = demo_certificate + rng.uniform(1e-13, 2e-13, size=(6, 2))
    ganalysis = dataclasses.replace(demo_instance.ganalysis, t_star=3.0 * demo_instance.t_star)
    tampered = dataclasses.replace(demo_instance, ganalysis=ganalysis)
    with pytest.raises(ReductionInvariantError, match="failed to round"):
        decide(tampered, noisy)


def test_decide_unknown_for_unequal_partition(demo_instance):
    lopsided = encode_certificate(demo_instance, [[1, 2, 4], [3, 5, 6]])
    assert decide(demo_instance, lopsided) is None


def test_decide_raises_on_unequal_partition_below_threshold(demo_instance):
    lopsided = encode_certificate(demo_instance, [[1, 2, 4], [3, 5, 6]])
    tampered = dataclasses.replace(demo_instance, epsilon=1e9)
    with pytest.raises(ReductionInvariantError, match="unequal subset sums"):
        decide(tampered, lopsided)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_decide_calls_a_float_tie_unknown(specs, q):
    # subsets summing to B + 1 and B - 1 hold spikes t*B/(B+1) and t*B/(B-1),
    # so both subset sums C_j are t*B and F lands within float error of the
    # bound; the partition is unequal, and that is "unknown", not a bug
    for spec in specs.values():
        for k in range(3, 12):
            s = 10**k
            red = build(ThreePartitionInstance(m=2, b=(s, s, s, s, s + 1, s - 1)), spec,
                        q=q, lam=1.0)
            x = np.zeros((6, 2))
            x[[0, 1, 4], 0] = red.t_star * (3 * s) / (3 * s + 1)
            x[[2, 3, 5], 1] = red.t_star * (3 * s) / (3 * s - 1)
            assert decide(red, x) is None


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_decide_says_yes_when_two_equal_spikes_shift_out_of_the_window(specs, q):
    # items 1 and 2 are equal and share subset 1: moving their spikes by +d
    # and -d, d = 2.5..5 delta, leaves every subset sum where it was
    for spec in specs.values():
        for k in (0, 2, 4, 6, 8):
            s = 10**k
            red = build(ThreePartitionInstance(m=2, b=(s, s, 2 * s, s, s, 2 * s)), spec,
                        q=q, lam=1.0)
            cert = encode_certificate(red, [[1, 2, 3], [4, 5, 6]])
            for shift in (2.5, 3.75, 5.0):
                x = cert.copy()
                x[0, 0] += shift * red.delta
                x[1, 0] -= shift * red.delta
                partition = decide(red, x)
                assert partition is not None and partition.subsets == ((1, 2, 3), (4, 5, 6))


def test_decide_accepts_planted_partitions_at_float_resolution(specs):
    # items of 1e5..1e6 push epsilon ~ (tau0 / 8 sum(b))^2 below the float
    # resolution of the bound, so F < bound + epsilon often fails even on an
    # exact certificate; the verdict must still be yes
    rng = np.random.default_rng(17)
    below_resolution = 0
    for _ in range(4):
        first = [int(v) for v in rng.integers(100_000, 1_000_001, size=3)]
        second = [int(v) for v in rng.integers(100_000, 400_001, size=2)]
        tp = ThreePartitionInstance(m=2, b=tuple(first + second + [sum(first) - sum(second)]))
        for spec in specs.values():
            for q in (1.0, 2.0):
                red = build(tp, spec, q=q, lam=1.0)
                cert = encode_certificate(red, [[1, 2, 3], [4, 5, 6]])
                if not objective(red, cert) < optimal_bound(red) + red.epsilon:
                    below_resolution += 1
                partition = decide(red, cert)
                assert partition is not None and partition.subsets == ((1, 2, 3), (4, 5, 6))
    assert below_resolution > 0  # the float edge must actually be exercised


@pytest.mark.parametrize("scale", [10**8, 10**11, 2**47, 2**49, 750599937895082])
@pytest.mark.parametrize("name, c0, c1", [("l0", 0.0, 0.0), ("mcp", 1.0, -1.0)])
def test_decide_accepts_the_closed_form_minimizer_at_large_items(specs, name, c0, c1, scale):
    # at q = 2, p'(t) = c0 + c1*t on the band, so g' is affine there and its
    # root is closed-form; spikes at that root must decode from sum(b) = 1.2e9
    # up to 9.007e15, just below build's 2**53 cap, where 2*delta is far
    # narrower than one ulp of t_star
    tp = ThreePartitionInstance(m=2, b=tuple(scale * v for v in (1, 2, 3, 1, 2, 3)))
    red = build(tp, specs[name], q=2.0, lam=1.0)
    gp = red.gparams
    root = (2.0 * gp.mu * gp.tau_hat - c0) / (2.0 * gp.theta + 2.0 * gp.mu + c1)
    x = np.zeros((6, 2))
    x[:3, 0] = x[3:, 1] = root
    partition = decide(red, x)
    assert partition is not None and partition.subsets == ((1, 2, 3), (4, 5, 6))
