import json
import math
import tracemalloc

import numpy as np
import pytest

import penlq
from penlq import (
    ConditionViolationError,
    ThreePartitionInstance,
    build,
    encode_certificate,
    objective,
    optimal_bound,
    solve,
)
from penlq.decode import Partition
from penlq.serde import dumps, instance_to_dict

from oracles import matrix_from_record, objective_by_blocks, planted_items

BOUND_MCP = 5.647938931297711  # 6 * h for the worked example


@pytest.mark.parametrize(
    "m, b",
    [
        (2, (1, 2, 3, 1, 2)),  # n != 3m
        (2, (1, 2, 3, 1, 2, 4)),  # sum not divisible by m
        (2, (1, 2, 3, 1, 2, 0)),  # non-positive item
        (0, ()),
        (2, (1.5, 2, 3, 1, 2, 3.7)),  # non-integral items are not rounded
        (2, (1.0, 2, 3, 1, 2, 3)),  # integral floats are floats too
        (2, (True, True, 1, 1, 1, 1)),  # bool is not an integer here
        (2.0, (1, 2, 3, 1, 2, 3)),
        (True, (1, 2, 3)),
        (1, 5),  # b is an iterable of items
    ],
)
def test_tp_validation(m, b):
    with pytest.raises(ValueError):
        ThreePartitionInstance(m=m, b=b)


def test_tp_accepts_numpy_integers():
    tp = ThreePartitionInstance(m=np.int64(2), b=np.array([1, 2, 3, 1, 2, 3]))
    assert tp == ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
    assert type(tp.m) is int and all(type(v) is int for v in tp.b)
    assert ThreePartitionInstance(m=2, b=iter(tp.b)) == tp  # b is read once


def test_tp_derived_fields():
    tp = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
    assert tp.n == 6 and tp.target_sum == 6


def test_build_rejects_linear_penalty():
    tp = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
    with pytest.raises(ConditionViolationError):
        build(tp, penlq.linear(1.0), q=2.0, lam=1.0)


def test_demo_matrix_shape_and_coefficients(demo_instance):
    a = demo_instance.problem.a_matrix
    assert a.shape == (13, 12)  # 1 balance row + 6 + 6
    allowed = {0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 14.0}
    assert set(np.unique(a)) <= allowed
    # balance row interleaves -b_i (column 1) with +b_i (column 2) per item
    assert list(a[0]) == [-1, 1, -2, 2, -3, 3, -1, 1, -2, 2, -3, 3]
    target = demo_instance.problem.target
    assert np.all(target[:7] == 0.0)
    assert np.allclose(target[7:], 14.0 * demo_instance.gparams.tau_hat)
    assert target[7] == pytest.approx(9.8, abs=1e-12)


def test_demo_delta_epsilon_formulas(demo_instance):
    an, ga = demo_instance.analysis, demo_instance.ganalysis
    assert demo_instance.delta == min(an.tau0 / (8.0 * 12.0), ga.delta_bar)
    assert demo_instance.delta == pytest.approx(0.00625, rel=1e-12)
    assert demo_instance.epsilon == min(
        demo_instance.delta**2, (an.tau0 / 2.0) ** 2
    )
    assert demo_instance.epsilon == pytest.approx(3.90625e-5, rel=1e-12)


def test_m1_instance_has_no_balance_rows(mcp_spec):
    tp = ThreePartitionInstance(m=1, b=(1, 2, 3))
    red = build(tp, mcp_spec, q=2.0, lam=1.0)
    assert red.problem.a_matrix.shape == (6, 3)  # 2n x n
    cert = encode_certificate(red, [[1, 2, 3]])
    assert np.all(cert[:, 0] == red.t_star)
    assert objective(red, cert) == pytest.approx(optimal_bound(red), abs=1e-9)


# t* < 1 for mcp, so (10**15)**30 alone passes 2**1023; for scad
# 30*log2(sum(b)) = 1019.5, but t* = 1.55 > 1 lifts the bound past 1023
_OVERFLOWING = {
    "mcp-1e15": (penlq.mcp(1.0, 1.0), 10**15),
    "scad-17e9": (penlq.scad(1.0, 3.0), 17 * 10**9),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_build_rejects_an_overflowing_objective(name):
    spec, big = _OVERFLOWING[name]
    with pytest.raises(ValueError, match="would overflow"):
        build(ThreePartitionInstance(m=2, b=(big, 1, 1, 1, 1, 2)), spec, q=30.0, lam=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec, big", [(penlq.mcp(1.0, 1.0), 18 * 10**9 - 6), (penlq.scad(1.0, 3.0), 118 * 10**8 - 6)],
    ids=["mcp", "scad"],
)
def test_build_accepts_an_objective_just_inside_float_range(spec, big):
    b = (big, 1, 1, 1, 1, 2)
    red = build(ThreePartitionInstance(m=2, b=b), spec, q=30.0, lam=1.0)
    assert 1022.0 <= 30.0 * math.log2(max(1.0, red.t_star) * sum(b)) < 1023.0
    assert math.isfinite(solve(red).value)


def test_build_never_rejects_m1_for_overflow(mcp_spec):
    # no balance rows: nothing scales with sum(b)**q
    red = build(ThreePartitionInstance(m=1, b=(2**51, 2**51, 2**52)), mcp_spec, q=200.0, lam=1.0)
    assert red.problem.a_matrix.shape == (6, 3)


def test_q1_omits_zero_weight_rows(mcp_spec):
    tp = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
    red = build(tp, mcp_spec, q=1.0, lam=1.0)
    assert red.gparams.theta == 0.0
    assert red.problem.a_matrix.shape == (1 + 6, 12)  # (m-1) + n rows only


def test_certificate_attains_bound(demo_instance, demo_certificate):
    value = objective(demo_instance, demo_certificate)
    assert abs(value - optimal_bound(demo_instance)) <= 1e-9
    assert optimal_bound(demo_instance) == pytest.approx(BOUND_MCP, abs=1e-9)


def test_certificate_entries(demo_instance, demo_certificate):
    values = set(np.unique(demo_certificate))
    assert values == {0.0, demo_instance.t_star}


def test_all_zero_solution(demo_instance):
    value = objective(demo_instance, np.zeros((6, 2)))
    assert value == pytest.approx(576.24, rel=1e-12)  # n * mu * tau_hat^2


def test_unbalanced_partition_pays(demo_instance):
    lopsided = encode_certificate(demo_instance, [[1, 2, 4], [3, 5, 6]])  # sums 4 vs 8
    value = objective(demo_instance, lopsided)
    extra = (4.0 * demo_instance.t_star) ** 2  # |8 t* - 4 t*|^2
    assert value == pytest.approx(optimal_bound(demo_instance) + extra, rel=1e-12)


def test_objective_matches_block_oracle(demo_instance):
    rng = np.random.default_rng(17)
    xs = rng.uniform(-1.5, 1.5, size=(1000, 12))
    for x in xs:
        assert abs(objective(demo_instance, x) - objective_by_blocks(demo_instance, x)) < 1e-10


def test_objective_never_below_bound(demo_instance):
    rng = np.random.default_rng(23)
    bound = optimal_bound(demo_instance)
    xs = rng.uniform(-1.6, 1.6, size=(10_000, 12))
    values = [objective(demo_instance, x) for x in xs]
    assert min(values) >= bound - 1e-9


@pytest.mark.parametrize(
    "lam, q", [(0.0, 2.0), (float("inf"), 2.0), (float("nan"), 2.0), (1.0, 0.5),
               (1.0, float("inf")), (1.0, float("nan")), (True, 2.0), (1.0, True),
               (True, True), ("1", 2.0), (1.0, "2"), (None, 2.0),
               pytest.param(10**400, 2.0, id="1e400-2.0"),
               pytest.param(1.0, 10**400, id="1.0-1e400")],
)
def test_problem_instance_requires_finite_lam_and_q(mcp_spec, lam, q):
    with pytest.raises(ValueError, match="finite"):
        penlq.ProblemInstance(np.eye(2), np.zeros(2), lam, q, mcp_spec)


@pytest.mark.parametrize(
    "a, target",
    [(np.eye(2), [float("nan"), 0.0]), ([[float("inf"), 0.0], [0.0, 1.0]], [0.0, 0.0]),
     ([[1.0, float("nan")], [0.0, 1.0]], [0.0, 0.0]), (np.eye(2), [0.0, -float("inf")])],
)
def test_problem_instance_requires_finite_matrix_and_target(mcp_spec, a, target):
    with pytest.raises(ValueError, match="finite"):
        penlq.ProblemInstance(a, target, 1.0, 2.0, mcp_spec)


def _read_only(a):
    a.setflags(write=False)
    return a


def _flags(a):
    return a.flags.writeable, a.flags.owndata, a.flags.c_contiguous, a.flags.f_contiguous


# the caller's array, made from a writable float64 array w, and whether the record
# keeps it: only a read-only, C-contiguous float64 array that owns its memory
OWNERSHIP = {
    "writable": (lambda w: w, False),
    "int": (lambda w: w.astype(np.int64), False),
    "read-only-view": (lambda w: _read_only(w.view()), False),
    "read-only-strided": (lambda w: _read_only(w[::2]), False),
    "read-only-fortran": (lambda w: _read_only(np.asfortranarray(w)), False),  # 2-d only
    "read-only-owned": (lambda w: _read_only(w), True),
}


@pytest.mark.parametrize("field, kind", [(f, k) for f in ("A", "target") for k in OWNERSHIP
                                         if (f, k) != ("target", "read-only-fortran")])
def test_problem_instance_array_ownership(mcp_spec, field, kind):
    make, kept = OWNERSHIP[kind]
    w = np.arange(12.0).reshape(4, 3).copy() if field == "A" else np.arange(4.0)
    mine = make(w)
    a, target = (mine, np.zeros(len(mine))) if field == "A" else (np.ones((len(mine), 3)), mine)
    flags, before = _flags(mine), mine.copy()
    problem = penlq.ProblemInstance(a, target, 1.0, 2.0, mcp_spec)
    held = problem.a_matrix if field == "A" else problem.target
    assert (held is mine) == kept
    assert not held.flags.writeable and held.flags.c_contiguous and held.dtype == np.float64
    assert _flags(mine) == flags and np.array_equal(held, before)
    if not kept:
        for owner in (mine, w):  # writing to the caller's array or its base
            owner.setflags(write=True)
            owner[...] = -1
        assert np.array_equal(held, before)


def test_objective_dimension_mismatch(demo_instance):
    with pytest.raises(ValueError):
        objective(demo_instance, np.zeros((6, 3)))
    with pytest.raises(ValueError, match="x must have 12 entries, got 11"):
        demo_instance.problem.objective(np.zeros(11))


@pytest.mark.parametrize("a, target", [(np.eye(2), np.zeros(3)), (np.ones(2), np.zeros(2))])
def test_problem_instance_requires_one_target_entry_per_row(mcp_spec, a, target):
    with pytest.raises(ValueError, match="one target entry per row"):
        penlq.ProblemInstance(a, target, 1.0, 2.0, mcp_spec)


@pytest.mark.parametrize("penalty", ["mcp", None, {"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}])
def test_problem_instance_requires_a_penalty_spec(penalty):
    with pytest.raises(ValueError, match="penalty must be a PenaltySpec"):
        penlq.ProblemInstance(np.eye(2), np.zeros(2), 1.0, 2.0, penalty)


def test_encode_rejects_malformed_partitions(demo_instance):
    with pytest.raises(ValueError):
        encode_certificate(demo_instance, [[1, 2, 3]])  # items 4-6 missing
    with pytest.raises(ValueError, match="must have 2 subsets, got 3"):
        encode_certificate(demo_instance, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        encode_certificate(demo_instance, [[1, 2, 3], [4, 5]])  # item 6 missing
    with pytest.raises(ValueError):
        encode_certificate(demo_instance, [[1, 2, 3], [3, 5, 6]])  # duplicate
    with pytest.raises(ValueError):
        encode_certificate(demo_instance, [[1, 2, 3], [4, 5, 7]])  # out of range


def test_encode_accepts_partition_object(demo_instance, demo_certificate):
    partition = Partition(subsets=((1, 2, 3), (4, 5, 6)), subset_sums=(6, 6))
    assert np.array_equal(encode_certificate(demo_instance, partition), demo_certificate)


def test_bound_doubles_with_n(mcp_spec, demo_instance):
    doubled = ThreePartitionInstance(m=4, b=(1, 2, 3, 1, 2, 3) * 2)
    red2 = build(doubled, mcp_spec, q=2.0, lam=1.0)
    # same penalty, q, lam: identical h, so the bound is exactly linear in n
    assert red2.ganalysis.h == demo_instance.ganalysis.h
    assert optimal_bound(red2) == pytest.approx(2.0 * optimal_bound(demo_instance), rel=1e-15)


def test_bound_scales_with_lambda(mcp_spec, demo_instance):
    red2 = build(demo_instance.tp, mcp_spec, q=2.0, lam=2.0)
    assert optimal_bound(red2) == red2.n * 2.0 * red2.ganalysis.h
    # rationalization shifts (theta, mu) slightly, so linearity is approximate
    assert optimal_bound(red2) == pytest.approx(2.0 * optimal_bound(demo_instance), rel=1e-2)


def test_coefficient_values_are_instance_independent(mcp_spec):
    red_a = build(ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3)), mcp_spec, q=2.0, lam=1.0)
    red_b = build(ThreePartitionInstance(m=2, b=(10, 9, 1, 5, 7, 8)), mcp_spec, q=2.0, lam=1.0)
    assert red_a.gparams == red_b.gparams


def test_matrix_is_read_only(demo_instance):
    with pytest.raises(ValueError):
        demo_instance.problem.a_matrix[0, 0] = 5.0


def test_build_hands_its_matrix_to_the_record_uncopied(mcp_spec):
    # A is 419 x 10800, 36 MB: a copy in ProblemInstance would double the peak
    tp = ThreePartitionInstance(m=60, b=planted_items(60))
    build(tp, mcp_spec, q=2.0, lam=1.0)  # warms full_analysis
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        red = build(tp, mcp_spec, q=2.0, lam=1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    a, target = red.problem.a_matrix, red.problem.target
    assert peak < 1.5 * a.nbytes  # A, plus the array rule's finite scan at 1/8 of A
    assert not (a.flags.writeable or target.flags.writeable)
    assert a.flags.owndata and target.flags.owndata


AUDIT_SMALL = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
AUDIT_LARGE = ThreePartitionInstance(m=2, b=(999_999, 3, 5, 1, 2, 1_000_004))


def test_only_the_balance_entries_and_the_radii_depend_on_the_items(specs):
    # a pseudo-polynomial transformation: every other number of the instance
    # is fixed by (penalty, q, lambda), whatever the items
    for spec in specs.values():
        for q in (1.0, 1.5, 2.0, 3.0):
            reds = [build(tp, spec, q=q, lam=1.0) for tp in (AUDIT_SMALL, AUDIT_LARGE)]
            one, two = (instance_to_dict(red) for red in reds)
            assert one.keys() == two.keys()
            assert {k for k in one if one[k] != two[k]} == {"tp", "meta"}
            assert {k for k in one["meta"] if one["meta"][k] != two["meta"][k]} <= {
                "delta", "epsilon"}
            a_one, a_two = (red.problem.a_matrix for red in reds)
            assert np.array_equal(a_one[1:], a_two[1:])  # all but the m - 1 = 1 balance row
            for a, tp in ((a_one, AUDIT_SMALL), (a_two, AUDIT_LARGE)):
                assert a[0].tolist() == [v for item in tp.b for v in (-float(item), float(item))]


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_the_instance_record_pins_a_and_target_bit_for_bit(specs, q):
    # the file stores no matrix: tp, the two roots and tau_hat must fix it
    tps = [ThreePartitionInstance(m=m, b=(1, 2, 3) * m) for m in (1, 2, 3)] + [AUDIT_LARGE]
    for spec in specs.values():
        for tp in tps:
            red = build(tp, spec, q=q, lam=1.0)
            a, target = matrix_from_record(json.loads(dumps(instance_to_dict(red))))
            assert a.shape == red.problem.a_matrix.shape, (spec.family, tp.m)
            assert a.tobytes() == red.problem.a_matrix.tobytes(), (spec.family, tp.m)
            assert target.tobytes() == red.problem.target.tobytes(), (spec.family, tp.m)


def test_epsilon_shrinks_as_the_square_of_the_item_sum(specs):
    # log2(bound / epsilon) = 2*log2(sum(b)) + a constant of (penalty, q):
    # epsilon needs O(log sum(b)) bits, polynomial in the unary input size
    for spec in specs.values():
        for q in (1.0, 1.5, 2.0, 3.0):
            offsets = []
            for k in range(12):
                tp = ThreePartitionInstance(m=2, b=tuple(10**k * v for v in (1, 2, 3, 1, 2, 3)))
                red = build(tp, spec, q=q, lam=1.0)
                offsets.append(math.log2(optimal_bound(red) / red.epsilon)
                               - 2.0 * math.log2(sum(tp.b)))
            assert max(offsets) - min(offsets) <= 1e-12, (spec.family, q, offsets)
