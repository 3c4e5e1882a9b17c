"""End-to-end sweeps: build -> solve -> decode across families and exponents."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import penlq
from penlq import (
    ConditionViolationError, ThreePartitionInstance, build, check_conditions, decide,
    full_analysis, fuzz_concentration, fuzz_subadditivity, minimize_structured, solve,
    verify_g_shape,
)

from conftest import all_admissible_specs
from oracles import NO_INSTANCES, YES_INSTANCES, global_minimum_l0, three_partition_oracle

TP_YES = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
TP_NO = ThreePartitionInstance(m=2, b=(3, 3, 3, 3, 3, 5))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(all_admissible_specs()))
def test_reduction_separates_yes_from_no(name, q):
    spec = all_admissible_specs()[name]
    assert three_partition_oracle(TP_YES.m, TP_YES.b)
    red = build(TP_YES, spec, q=q, lam=1.0)
    result = minimize_structured(red)
    assert result.gap <= 1e-9
    partition = decide(red, result.x)
    assert partition is not None
    assert penlq.verify_equitable(red.tp, partition)

    assert not three_partition_oracle(TP_NO.m, TP_NO.b)
    red_no = build(TP_NO, spec, q=q, lam=1.0)
    result_no = minimize_structured(red_no)
    assert result_no.gap >= red_no.epsilon
    assert decide(red_no, result_no.x) is None


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_lambda_scaling_keeps_separation(mcp_spec, lam):
    red = build(TP_YES, mcp_spec, q=2.0, lam=lam)
    assert minimize_structured(red).gap <= 1e-9
    red_no = build(TP_NO, mcp_spec, q=2.0, lam=lam)
    assert minimize_structured(red_no).gap >= red_no.epsilon


def test_generic_piecewise_linear_end_to_end():
    spec = penlq.piecewise_linear(k1=1.0, k2=0.3, a=1.0)
    red = build(TP_YES, spec, q=2.0, lam=1.0)
    result = minimize_structured(red)
    assert result.gap <= 1e-9
    assert decide(red, result.x) is not None
    red_no = build(TP_NO, spec, q=2.0, lam=1.0)
    assert minimize_structured(red_no).gap >= red_no.epsilon


@st.composite
def _m2_items(draw):
    """(b, planted): six items in a small band or near float resolution
    (1e5..1e6), either planted as two equal-sum triples or drawn at random."""
    lo, hi = draw(st.sampled_from([(1, 20), (100_000, 1_000_000)]))
    item = st.integers(lo, hi)
    planted = draw(st.booleans())
    if planted:
        first = draw(st.lists(item, min_size=3, max_size=3))
        second = draw(st.lists(item, min_size=2, max_size=2))
        b = first + second + [sum(first) - sum(second)]
        assume(b[-1] > 0)
    else:
        b = draw(st.lists(item, min_size=6, max_size=6))
        b[-1] += sum(b) % 2
    return tuple(draw(st.permutations(b))), planted


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(all_admissible_specs())),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    lam=st.sampled_from([0.25, 1.0, 4.0]),
    case=_m2_items(),
)
def test_structured_verdict_matches_oracle(name, q, lam, case):
    b, planted = case
    yes = three_partition_oracle(2, b)
    assert yes or not planted
    red = build(ThreePartitionInstance(m=2, b=b), all_admissible_specs()[name], q=q, lam=lam)
    partition = decide(red, solve(red, mode="structured").x)
    assert (partition is not None) == yes
    if partition is not None:
        assert sorted(i for subset in partition.subsets for i in subset) == list(range(1, 7))
        assert all(sum(b[i - 1] for i in subset) == sum(b) // 2 for subset in partition.subsets)


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("b", [b for m, b in YES_INSTANCES + NO_INSTANCES if m == 2])
def test_l0_global_minimum_separates_yes_from_no(b, lam):
    # the reverse direction at the true optimum of F, not on the certificate
    # family: min F is exact for l0 at q = 2 by support enumeration
    red = build(ThreePartitionInstance(m=2, b=b), penlq.l0(), q=2.0, lam=lam)
    value, x = global_minimum_l0(red)
    bound = penlq.optimal_bound(red)
    if three_partition_oracle(2, b):
        assert abs(value - bound) <= 1e-9 * bound
        partition = decide(red, x)
        assert partition is not None and penlq.verify_equitable(red.tp, partition)
    else:
        # the best x splits one item over two subsets and pays one more lam
        assert value >= bound + red.epsilon
        assert abs(value - bound - lam) <= 1e-9


_EDGES = (0.0, 1e-100, 1e100)  # zero and the ends of the parameter range
_OWN_BOUNDS = {  # family -> parameter -> values at the family's own bounds
    "l0": {},
    "bridge": {"p": (math.nextafter(1.0, 0.0),)},
    "hard_threshold": {"gamma": ()},
    "scad": {"gamma": (), "a": (math.nextafter(2.0, 3.0),)},
    "mcp": {"gamma": (), "b": (1.0,)},
    "piecewise_linear": {"k1": (), "k2": (math.nextafter(1e100, 0.0),), "a": ()},
    "fraction": {"gamma": ()},
    "log": {"gamma": ()},
    "linear": {"k": (-1e-100, -1e100)},
}


def _corner_specs(family):
    """Every spec of ``family`` whose parameters each sit at an edge or an own bound."""
    names = tuple(_OWN_BOUNDS[family])
    specs = []
    for values in itertools.product(*(_EDGES + _OWN_BOUNDS[family][n] for n in names)):
        try:
            specs.append(penlq.PenaltySpec(family, dict(zip(names, values))))
        except ValueError:  # outside the family's own rules
            pass
    return specs


@pytest.mark.parametrize("family", penlq.FAMILIES)
def test_parameter_range_corners_raise_no_floating_point_error(family):
    # The parameter range keeps every product of three parameters a normal
    # float, so nothing downstream needs an overflow guard: any over- or
    # underflow to inf, NaN or a division by 0 raises here.  The linear-like
    # corners (log near 1e-100, fraction near 1e100, b or a near 1e100,
    # k2 one ulp below k1) are refused as linear; every other corner decodes.
    specs = _corner_specs(family)
    assert specs
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for spec in specs:
            try:
                penlq.analyze(spec)
                admissible = True
            except ConditionViolationError:
                admissible = False
            coarse, fine = check_conditions(spec, 1000), check_conditions(spec, 10**6)
            assert coarse.overall == fine.overall == admissible, spec
            for report in (coarse, fine):
                assert math.isfinite(report.c1)
            subadditive = fuzz_subadditivity(spec, trials=500)
            if not admissible:
                with pytest.raises(ConditionViolationError):
                    fuzz_concentration(spec, trials=500)
                with pytest.raises(ConditionViolationError):
                    full_analysis(spec, 2.0, 1.0)
                continue
            assert subadditive.ok and fuzz_concentration(spec, trials=500).ok, spec
            for q in (1.0, 1.5, 2.0, 3.0):
                analysis, params, _ = full_analysis(spec, q, 1.0)
                assert verify_g_shape(spec, analysis, params).overall, (spec, q)
                red = build(TP_YES, spec, q=q, lam=1.0)
                partition = decide(red, minimize_structured(red).x)
                assert partition is not None and penlq.verify_equitable(TP_YES, partition), (spec, q)
