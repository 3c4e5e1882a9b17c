import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penlq
from penlq import (
    ConditionViolationError,
    GParams,
    delta_bar,
    g_eval,
    lower_bounds,
    minimize_g,
    rationalize,
    verify_g_shape,
)
from penlq.gfun import _GRID_EXP, _dyadic_root_ceil, _full_analysis, full_analysis

from conftest import all_admissible_specs

# Closed-form stationary point of the mcp worked example:
# g'(t) = 1 + t + 392*(t - 0.7) = 0 on the smooth band.
T_STAR_MCP = 273.4 / 393  # 0.6956743002544529
H_MCP = 0.9413231552162851


def test_lower_bounds_mcp_q2(mcp_spec, mcp_analysis):
    theta_lo, mu_lo = lower_bounds(mcp_spec, mcp_analysis, q=2.0)
    assert theta_lo == 1.0  # (1 + 1) / (2 * 1 * 1), exactly
    assert mu_lo == pytest.approx(194.5, abs=1e-9)


def test_lower_bounds_mcp_q1(mcp_spec, mcp_analysis):
    theta_lo, mu_lo = lower_bounds(mcp_spec, mcp_analysis, q=1.0)
    assert theta_lo == 0.0
    assert mu_lo == pytest.approx(14.55, abs=1e-9)  # max(1.4, 1.455/0.1)


def test_lower_bounds_l0_q2():
    spec = penlq.l0()
    an = penlq.analyze(spec)
    theta_lo, mu_lo = lower_bounds(spec, an, q=2.0)
    assert theta_lo == 0.5
    assert mu_lo == pytest.approx(449.0, abs=1e-9)  # (1 + 0.245 + 1) / 0.005


def test_lower_bounds_reject_small_q(mcp_spec, mcp_analysis):
    for q in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lower_bounds(mcp_spec, mcp_analysis, q=q)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"lam": float("inf")},
        {"lam": float("nan")},
        {"q": float("nan")},
        {"q": float("inf")},
        {"q": True},
        {"lam": True},
        {"q": 10**400},
        {"lam": 10**400},
    ],
)
def test_rationalize_rejects_out_of_range_inputs(mcp_analysis, kwargs):
    args = {"lam": 1.0, "q": 2.0, **kwargs}
    with pytest.raises(ValueError):
        rationalize(1.0, 194.5, tau_hat=mcp_analysis.tau_hat, **args)


def test_rationalize_mcp_q2_snaps_to_square(mcp_analysis):
    params = rationalize(1.0, 194.5, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    assert params.theta == 1.0 and params.theta_root == 1.0
    assert params.mu == 196.0 and params.mu_root == 14.0


def test_rationalize_q1_integer_grid(mcp_analysis):
    # mu is the smallest integer multiple of 2**-20 at or above 14.55
    params = rationalize(0.0, 14.55, lam=1.0, q=1.0, tau_hat=mcp_analysis.tau_hat)
    assert params.theta == 0.0 and params.mu == params.mu_root == 15256781 / 2**20
    assert (15256781 - 1) / 2**20 < 14.55 <= params.mu


def test_rationalize_fixed_point(mcp_analysis):
    # theta_lower already the square of a dyadic over lam: returned unchanged
    params = rationalize(0.25, 16.0, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    assert params.theta == 0.25 and params.theta_root == 0.5
    assert params.mu_root == 2.0 and params.mu == 4.0


@given(
    theta_lo=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
    mu_lo=st.floats(min_value=1e-3, max_value=500.0, allow_nan=False),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    lam=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_rationalize_never_below_thresholds(theta_lo, mu_lo, q, lam):
    params = rationalize(theta_lo, mu_lo, lam=lam, q=q, tau_hat=0.7)
    if q == 1.0:
        assert params.theta == 0.0 and params.mu >= mu_lo
    else:
        assert params.theta >= theta_lo
        assert params.mu >= mu_lo * params.theta
    # the dyadic roots reproduce the coefficients through lam
    assert params.mu == pytest.approx(params.mu_root**q / lam, rel=1e-15)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_rationalize_rounding_never_undercuts(q):
    # r**q / lam can round below a threshold that r**q >= lam*threshold
    # clears, e.g. 137.5 / 1.1 < 125 for q = 1
    for mu_lo in range(100, 201):
        for lam in (0.3, 0.7, 1.1, 1.3, 2.9, 7.7):
            params = rationalize(1.0, float(mu_lo), lam=lam, q=q, tau_hat=0.7)
            if q == 1.0:
                assert params.mu >= mu_lo
            else:
                assert params.theta >= 1.0 and params.mu >= mu_lo * params.theta


@pytest.mark.parametrize("q, lam", [(2.0, 1e60), (1.0, 1e20)])
def test_full_analysis_roots_beyond_integer_resolution(mcp_spec, q, lam):
    # root * 2**20 exceeds 2**53, where a grid step is below r's ulp
    _, params, ga = full_analysis(mcp_spec, q=q, lam=lam)
    assert params.mu_root * 2.0**_GRID_EXP > 2.0**53
    if q == 1.0:
        assert params.theta == 0.0 and params.mu >= ga.mu_lower
    else:
        assert params.theta >= ga.theta_lower and params.mu >= ga.mu_lower * params.theta


@pytest.mark.parametrize(
    "name, q, lam",
    [
        # lambda * mu or its q-th root on the dyadic grid is not finite
        ("mcp", 1.0, 1e308), ("mcp", 292.0, 1e3), ("hard_threshold", 245.0, 1e3),
        ("log", 321.0, 1e3),
        # one grid step, but step**q / lambda overflows at a tiny lambda
        ("mcp", 1.0, 5e-324), ("mcp", 2.0, 5e-324),
        # finite thresholds whose product mu_lower * theta is not
        ("l0", 300.0, 1.0), ("mcp", 300.0, 1.0), ("hard_threshold", 250.0, 1.0),
        ("bridge", 340.0, 1.0), ("fraction", 340.0, 1.0), ("log", 340.0, 1.0),
    ],
)
def test_full_analysis_refuses_a_g_beyond_float_range(name, q, lam):
    # one message whatever step overflows first, naming the family, q and lambda
    spec = all_admissible_specs()[name]
    with pytest.raises(ValueError) as info:
        full_analysis(spec, q=q, lam=lam)
    assert str(info.value) == (
        f"{spec.family}: q = {q!r}, lambda = {lam!r}: g overflows a float on [-2*tau, 3*tau]")


@pytest.mark.parametrize("q", [500.0, 1500.0, 5000.0])
@pytest.mark.parametrize("name", sorted(all_admissible_specs()))
def test_lower_bounds_reject_q_whose_thresholds_are_not_finite(name, q):
    # tau0**(q-2) or |tau0 - tau_hat|**q underflows to 0, or tau**(q-2)
    # overflows at tau = 2 (scad, clipped_l1)
    spec = all_admissible_specs()[name]
    with pytest.raises(ValueError, match="too large"):
        lower_bounds(spec, penlq.analyze(spec), q)
    with pytest.raises(ValueError, match="too large"):
        full_analysis(spec, q=q, lam=1.0)


@pytest.mark.parametrize(
    "coef, lam, q",
    # all but the last put root * 2**20 beyond 2**53, where a grid step is below r's ulp
    [(194.5, 1e60, 2.0), (14.55, 1e20, 1.0), (14.55, 1e12, 1.0), (1.0, 1e30, 3.0),
     (0.3, 7.7, 1.5)],
)
def test_dyadic_root_ceil_is_the_smallest_grid_point(coef, lam, q):
    step = 2.0**-_GRID_EXP
    r, value = _dyadic_root_ceil(coef, lam, q)
    assert value == r**q / lam
    assert r / step == math.floor(r / step)
    assert r**q / lam >= coef
    assert min(r - step, math.nextafter(r, 0.0)) ** q / lam < coef


def test_g_eval_at_anchor(mcp_spec):
    params = GParams(q=2.0, theta=1.0, mu=196.0, tau_hat=0.7)
    expected = penlq.p_eval(mcp_spec, 0.7) + 0.7**2
    assert g_eval(mcp_spec, params, 0.7) == pytest.approx(expected, abs=0)


def test_g_eval_l0_at_zero():
    params = GParams(q=2.0, theta=1.0, mu=484.0, tau_hat=0.7)
    assert g_eval(penlq.l0(), params, 0.0) == pytest.approx(237.16, abs=1e-12)


def test_g_eval_mcp_worked_point(mcp_spec):
    params = GParams(q=2.0, theta=1.0, mu=196.0, tau_hat=0.7)
    assert g_eval(mcp_spec, params, 0.7) == pytest.approx(0.945, abs=1e-12)


def test_minimize_g_mcp_matches_stationary_point(mcp_spec, mcp_analysis):
    params = rationalize(1.0, 194.5, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    t_star, h = minimize_g(mcp_spec, mcp_analysis, params)
    assert abs(t_star - T_STAR_MCP) < 1e-8
    assert h == g_eval(mcp_spec, params, t_star)  # h is defined as g(t_star)
    assert h == pytest.approx(H_MCP, abs=1e-10)


def test_minimize_g_l0_closed_form():
    spec = penlq.l0()
    an = penlq.analyze(spec)
    params = GParams(q=2.0, theta=1.0, mu=484.0, tau_hat=0.7)
    t_star, h = minimize_g(spec, an, params)
    assert abs(t_star - 484.0 * 0.7 / 485.0) < 1e-8
    assert h == pytest.approx(1.4889896907216496, abs=1e-9)


def test_minimize_g_q1_exact(specs):
    # at q = 1 the bisection on g' ends on tau_hat itself, bit for bit
    for spec in specs.values():
        for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12):
            analysis, params, ga = full_analysis(spec, q=1.0, lam=lam)
            assert ga.t_star == params.tau_hat == analysis.tau_hat, (spec, lam)
            assert ga.h == penlq.p_eval(spec, analysis.tau_hat), (spec, lam)


def test_minimize_g_rejects_weak_coefficients(mcp_spec, mcp_analysis):
    weak = GParams(q=2.0, theta=0.5, mu=196.0, tau_hat=mcp_analysis.tau_hat)
    with pytest.raises(ValueError):
        minimize_g(mcp_spec, mcp_analysis, weak)
    starved_mu = GParams(q=2.0, theta=1.0, mu=100.0, tau_hat=mcp_analysis.tau_hat)
    with pytest.raises(ValueError):
        minimize_g(mcp_spec, mcp_analysis, starved_mu)


@pytest.mark.parametrize(
    "name, c0, c1",
    # p'(t) = c0 + c1*t on the band
    [("l0", 0.0, 0.0), ("clipped_l1", 0.0, 0.0), ("hard_threshold", 2.0, -2.0),
     ("scad", 1.5, -0.5), ("mcp", 1.0, -1.0)],
)
def test_minimize_g_lands_on_the_root_of_the_slope(name, c0, c1):
    # at q = 2, g'(t) = c0 + c1*t + 2*theta*t + 2*mu*(t - tau_hat) is affine on
    # the band, so its root is closed-form; the search ends within 2 ulps of it
    spec = all_admissible_specs()[name]
    _, params, ga = full_analysis(spec, 2.0, 1.0)
    root = (2.0 * params.mu * params.tau_hat - c0) / (2.0 * params.theta + 2.0 * params.mu + c1)
    assert abs(ga.t_star - root) <= 2.0 * math.ulp(root), (ga.t_star, root)


def test_minimize_g_sub_ulp_tolerance_stops_at_float_resolution():
    # t_star is near 6.9e5, where floats are 1.16e-10 apart; the bisection ends
    # on two adjacent floats there as everywhere else
    spec = penlq.mcp(1e6, 3.0)
    an, params, ga = full_analysis(spec, 2.0, 1.0)
    assert math.ulp(ga.t_star) > 1e-10
    assert an.tau0 < ga.t_star < an.tau
    assert ga.h == g_eval(spec, params, ga.t_star)


def test_gparams_validation():
    with pytest.raises(ValueError):
        GParams(q=1.0, theta=0.5, mu=10.0, tau_hat=0.7)  # q = 1 forces theta = 0
    with pytest.raises(ValueError):
        GParams(q=2.0, theta=1.0, mu=0.0, tau_hat=0.7)
    with pytest.raises(ValueError):
        GParams(q=0.5, theta=1.0, mu=10.0, tau_hat=0.7)
    nan = float("nan")
    for coefficients in ({"mu": nan}, {"theta": nan}, {"tau_hat": nan}, {"theta_root": "x"},
                         {"theta_root": -1.0}, {"theta_root": nan}, {"mu_root": nan},
                         {"mu_root": 0.0}, {"mu_root": True}):
        with pytest.raises(ValueError):
            GParams(**{"q": 2.0, "theta": 1.0, "mu": 10.0, "tau_hat": 0.7, **coefficients})
    roots = GParams(q=2.0, theta=1.0, mu=196.0, tau_hat=0.7, theta_root=np.float32(1.0),
                    mu_root=14)
    assert type(roots.theta_root) is float and type(roots.mu_root) is float


def test_delta_bar_mcp(mcp_analysis):
    radius = delta_bar(mcp_analysis, T_STAR_MCP)
    assert radius == pytest.approx(0.0478372, abs=1e-7)
    assert radius == pytest.approx((T_STAR_MCP - mcp_analysis.tau0) / 2.0, abs=0)


def test_delta_bar_q1(mcp_analysis):
    # t_star = tau_hat = 0.7: min(0.2, 0.05, 0.05, 1, 0.4)
    assert delta_bar(mcp_analysis, mcp_analysis.tau_hat) == pytest.approx(0.05, abs=1e-15)


def test_delta_bar_symmetric_case():
    an = penlq.PenaltyAnalysis(tau=0.8, tau0=0.6, tau_hat=0.7, c1=0.4, k_bound=1.0)
    # t_star midway: both half-distances equal (tau - tau0)/4, the rest larger
    assert delta_bar(an, 0.7) == pytest.approx((an.tau - an.tau0) / 4.0, abs=1e-15)


def test_delta_bar_rejects_outside_band(mcp_analysis):
    with pytest.raises(ValueError):
        delta_bar(mcp_analysis, mcp_analysis.tau)
    with pytest.raises(ValueError):
        delta_bar(mcp_analysis, 0.1)


def test_verify_g_shape_mcp_q2(mcp_spec, mcp_analysis):
    params = rationalize(1.0, 194.5, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    report = verify_g_shape(mcp_spec, mcp_analysis, params, n_samples=1000)
    assert report.overall and report.escape_ok
    # smooth-band curvature is p'' + 2*theta + 2*mu = -1 + 2*1 + 2*196 = 393, read in closed form
    assert report.min_curvature == 393.0


@pytest.mark.parametrize("n_samples", [0, 1, True, 2.5])
def test_verify_g_shape_rejects_bad_sample_count(mcp_spec, mcp_analysis, n_samples):
    params = rationalize(1.0, 194.5, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    with pytest.raises(ValueError, match="n_samples"):
        verify_g_shape(mcp_spec, mcp_analysis, params, n_samples=n_samples)


def test_verify_g_shape_q1_slopes(mcp_spec, mcp_analysis):
    params = rationalize(0.0, 14.55, lam=1.0, q=1.0, tau_hat=mcp_analysis.tau_hat)
    report = verify_g_shape(mcp_spec, mcp_analysis, params, n_samples=1000)
    assert report.overall and report.slope_ok
    # g' = p' - mu on the left of the anchor, p' + mu on the right, with
    # mu = 14.55 and 0.3 <= p' <= 0.4 there
    assert report.worst_left_slope < -14.0
    assert report.worst_right_slope > 14.0


def test_localization_radius_property(mcp_spec, mcp_analysis):
    params = rationalize(1.0, 194.5, lam=1.0, q=2.0, tau_hat=mcp_analysis.tau_hat)
    t_star, h = minimize_g(mcp_spec, mcp_analysis, params)
    radius = delta_bar(mcp_analysis, t_star)
    rng = np.random.default_rng(5)
    d = rng.uniform(1e-4, radius, size=1000)
    # offsets at several scales of d so samples land on both sides of the
    # value threshold (the sub-threshold region is much narrower than d here)
    scale = np.concatenate([np.full(500, 0.05), np.full(500, 3.0)])
    ts = t_star + rng.uniform(-1.0, 1.0, size=1000) * scale * d
    close_in_value = g_eval(mcp_spec, params, ts) < h + d * d
    assert np.all(np.abs(ts[close_in_value] - t_star) < d[close_in_value])
    assert int(np.count_nonzero(close_in_value)) > 300  # the test actually bites
    assert int(np.count_nonzero(~close_in_value)) > 300


def test_full_analysis_pipeline_consistency(mcp_spec):
    an, params, ga = full_analysis(mcp_spec, q=2.0, lam=1.0)
    assert ga.theta_lower == 1.0
    assert params.theta >= ga.theta_lower
    assert params.mu >= ga.mu_lower * params.theta
    assert an.tau0 < ga.t_star < an.tau
    assert ga.delta_bar == delta_bar(an, ga.t_star)


_SHAPE_CASES = [
    (spec, q)
    for spec in (penlq.bridge(0.1), penlq.bridge(0.9), penlq.hard_threshold(0.1),
                 penlq.scad(2.0, 5.0), penlq.mcp(2.0, 3.0), penlq.piecewise_linear(1.0, 0.3, 1.0),
                 penlq.fraction(5.0), penlq.log_penalty(10.0))
    for q in (1.0, 1.5, 2.0, 3.0)
] + [
    # narrow bands at large q, where the rounding noise in g's values
    # dwarfs its curvature
    (penlq.piecewise_linear(2.0, 0.5, 1e-10), 10.0),
    (penlq.piecewise_linear(2.0, 0.5, 1e-10), 12.0),
    (penlq.piecewise_linear(2.0, 0.5, 1e-10), 20.0),
    (penlq.scad(1e-30, 3.0), 10.0),
]


@pytest.mark.parametrize(
    "spec, q",
    _SHAPE_CASES,
    ids=[f"{s.family}-{'-'.join(f'{v:g}' for v in s.params.values())}-{q}"
         for s, q in _SHAPE_CASES],
)
def test_shape_certificate_across_parametrizations(spec, q):
    an, params, _ = full_analysis(spec, q=q, lam=1.0)
    report = verify_g_shape(spec, an, params, n_samples=300)
    assert report.overall, report


def test_shape_certificate_on_narrow_bands():
    # bands from about 1e-100 wide up to 1e20, over the whole parameter
    # range; every case is admitted, and 150 of the 195 are narrower than 1e-9
    makers = (penlq.hard_threshold, lambda s: penlq.scad(s, 3.0), lambda s: penlq.mcp(s, 2.0),
              penlq.clipped_l1, lambda s: penlq.piecewise_linear(2.0, 0.5, s))
    narrow = 0
    for make in makers:
        for s in (10.0**e for e in range(-100, 21, 10)):
            for q in (1.25, 1.5, 1.75):
                spec = make(s)
                an, params, _ = full_analysis(spec, q=q, lam=1.0)
                report = verify_g_shape(spec, an, params)
                assert report.overall, (spec, q, report)
                narrow += an.tau - an.tau0 < 2e-9
    assert narrow >= 150


def test_full_analysis_cache_equals_fresh_computation():
    uncached = _full_analysis.__wrapped__
    for spec in all_admissible_specs().values():
        for q in (1.0, 1.5, 2.0, 3.0):
            for lam in (0.5, 1.0, 3.0):
                cached = full_analysis(spec, q, lam)
                fresh = uncached(spec, q, lam)
                assert cached == fresh and repr(cached) == repr(fresh)
                # a keyword call finds the entry of the positional one
                assert full_analysis(spec, q=q, lam=lam) is cached


@pytest.mark.parametrize(
    "kwargs",
    [{"lam": float("nan")}, {"q": float("nan")}, {"q": True, "lam": True}],
)
def test_full_analysis_validates_before_lookup(mcp_spec, kwargs):
    full_analysis(mcp_spec, q=1.0, lam=1.0)  # True would hash as 1
    full_analysis(mcp_spec, q=2.0, lam=1.0)
    with pytest.raises(ValueError):
        full_analysis(mcp_spec, **{"q": 2.0, "lam": 1.0, **kwargs})


def test_full_analysis_keys_on_spec_and_number_values():
    _full_analysis.cache_clear()
    first = full_analysis(penlq.mcp(1.0, 1.0), 2.0, 1.0)
    assert full_analysis(penlq.mcp(1.0, 2.0), 2.0, 1.0) != first
    assert full_analysis(penlq.PenaltySpec("mcp", {"b": 1, "gamma": 1}), 2.0, 1.0) is first
    # a number is looked up as the float the rule returns, whatever its type
    for q in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        assert full_analysis(penlq.mcp(1.0, 1.0), q, np.int64(1)) is first
    assert _full_analysis.cache_info().currsize == 2
    assert type(first[1].q) is float


def test_signed_zero_specs_share_one_entry():
    plus, minus = penlq.piecewise_linear(1.0, 0.0, 1.0), penlq.piecewise_linear(1.0, -0.0, 1.0)
    assert plus == minus and hash(plus) == hash(minus)
    shared = full_analysis(plus, 1.0, 1.0)
    assert full_analysis(minus, 1.0, 1.0) is shared
    assert repr(shared) == repr(_full_analysis.__wrapped__(minus, 1.0, 1.0))


def test_full_analysis_never_caches_failures():
    misses = _full_analysis.cache_info().misses
    for _ in range(3):
        with pytest.raises(ConditionViolationError):
            full_analysis(penlq.linear(1.0), 2.0, 1.0)
    assert _full_analysis.cache_info().misses == misses + 3


def _scaled_specs():
    """Each family at scales 1e-100, 1 and 1e100, less the two refused as linear."""
    makers = {"hard_threshold": penlq.hard_threshold, "scad": lambda s: penlq.scad(s, 3.0),
              "mcp": lambda s: penlq.mcp(s, 1.0),
              "piecewise_linear": lambda s: penlq.piecewise_linear(2.0, 0.5, s),
              "fraction": penlq.fraction, "log": penlq.log_penalty}
    specs = [penlq.l0(), penlq.bridge(0.5)]
    specs += [make(s) for make in makers.values() for s in (1e-100, 1.0, 1e100)]
    linear = {("fraction", 1e100), ("log", 1e-100)}
    return [s for s in specs if (s.family, s.params.get("gamma")) not in linear]


def test_full_analysis_admits_only_a_finite_g():
    # Every (penalty, q, lambda) is admitted with finite constants and a g
    # finite on [-2*tau, 3*tau], or refused by the one float rule (or, for q
    # alone, by lower_bounds).  Over, invalid and divide raise; underflow does
    # not, since a tiny term rounding to a subnormal or 0 is right.
    refusal = "{}: q = {!r}, lambda = {!r}: g overflows a float on [-2*tau, 3*tau]"
    admitted = 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for spec in _scaled_specs():
            analysis = penlq.analyze(spec)
            domain = np.linspace(-2.0 * analysis.tau, 3.0 * analysis.tau, 101)
            for q in (1.0, 1.5, 2.0, 3.0, 10.0, 30.0, 100.0, 219.0, 300.0):
                for lam in (10.0**k for k in range(-300, 301, 50)):
                    try:
                        _, params, ga = full_analysis(spec, q, lam)
                    except ValueError as exc:
                        if "too large" in str(exc):
                            with pytest.raises(ValueError, match="too large"):
                                lower_bounds(spec, analysis, q)
                        else:
                            assert str(exc) == refusal.format(spec.family, q, lam)
                        continue
                    admitted += 1
                    assert np.all(np.isfinite(g_eval(spec, params, domain))), (spec, q, lam)
                    assert all(map(math.isfinite, (ga.t_star, ga.h, ga.delta_bar)))
                    if lam == 1.0:
                        report = verify_g_shape(spec, analysis, params, n_samples=200)
                        assert math.isfinite(report.escape_margin), (spec, q)
    assert admitted >= 800
