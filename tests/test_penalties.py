import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import penlq
from penlq import (
    ConditionViolationError,
    NondifferentiableError,
    PenaltySpec,
    analyze,
    kink_points,
    p_d1,
    p_d2,
    p_eval,
)
from penlq.penalties import (
    _float_eval,
    band,
    spec_from_dict,
    spec_to_dict,
)

from conftest import all_admissible_specs
from oracles import central_d1, central_d2, sampled_k_bound


def test_clipped_l1_saturates():
    assert p_eval(penlq.clipped_l1(1.0), 2.0) == pytest.approx(1.0, abs=0)


@pytest.mark.parametrize("name", sorted(all_admissible_specs()))
def test_p_at_zero_is_zero(name):
    assert p_eval(all_admissible_specs()[name], 0.0) == 0.0


def test_mcp_closed_form_value(mcp_spec):
    # t - t^2/2 on [0, 1]
    assert p_eval(mcp_spec, 0.6) == pytest.approx(0.42, abs=1e-15)


def test_mcp_value_matches_quadrature(mcp_spec):
    val, err = quad(lambda s: max(1.0 - s, 0.0), 0.0, 0.6)
    assert abs(p_eval(mcp_spec, 0.6) - val) < 1e-12 and err < 1e-12


def test_negative_t_rejected(mcp_spec):
    with pytest.raises(ValueError):
        p_eval(mcp_spec, -0.1)


@pytest.mark.parametrize("family", penlq.FAMILIES)
def test_nan_t_rejected(family):
    # NaN fails every comparison, so a test for t < 0 alone let it through
    # (mcp gave 0.5, scad 2.0, l0 0.0)
    spec = _FLOAT_EVAL_SPECS[family]
    for t in (float("nan"), [0.3, float("nan")], np.array([[np.nan]])):
        with pytest.raises(ValueError):
            p_eval(spec, t)


def test_scad_derivative_plateau_and_taper():
    spec = penlq.scad(1.0, 3.0)
    assert p_d1(spec, 0.5) == pytest.approx(1.0, abs=0)
    assert p_d1(spec, 2.0) == pytest.approx(0.5, abs=0)


def test_mcp_second_derivative(mcp_spec):
    assert p_d2(mcp_spec, 0.5) == pytest.approx(-1.0, abs=0)
    fd = central_d2(mcp_spec, 0.5)
    assert abs(fd - (-1.0)) < 1e-6


@pytest.mark.parametrize(
    "spec, kinks",
    [
        (penlq.scad(1.0, 3.0), (1.0, 3.0)),
        (penlq.mcp(1.0, 2.0), (2.0,)),
        (penlq.piecewise_linear(2.0, 0.5, 1.5), (1.5,)),
        (penlq.hard_threshold(1.0), (1.0,)),
    ],
)
def test_kink_points_raise(spec, kinks):
    assert kink_points(spec) == kinks
    for kink in kinks:
        with pytest.raises(NondifferentiableError, match=str(kink)):
            p_d1(spec, kink)
        with pytest.raises(NondifferentiableError):
            p_d2(spec, kink)


def test_kink_test_is_relative_to_the_kink():
    spec = penlq.piecewise_linear(1.0, 0.0, 1e-13)
    assert p_d1(spec, 1.5e-13) == 0.0  # the band point tau0, 5e-14 past the kink
    with pytest.raises(NondifferentiableError):
        p_d1(spec, 1e-13 * (1.0 + 1e-13))


def test_derivatives_require_positive_t(mcp_spec):
    with pytest.raises(ValueError):
        p_d1(mcp_spec, 0.0)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: penlq.scad(1.0, 2.0),  # needs a > 2
        lambda: penlq.mcp(1.0, 0.5),  # needs b >= 1
        lambda: penlq.bridge(1.0),  # exponent in (0, 1)
        lambda: penlq.bridge(0.0),
        lambda: penlq.hard_threshold(0.0),
        lambda: penlq.piecewise_linear(1.0, 1.0, 1.0),  # needs k1 > k2
        lambda: penlq.piecewise_linear(1.0, 0.5, 0.0),  # breakpoint > 0
        lambda: PenaltySpec("mcp", {"gamma": 1.0}),  # missing b
        lambda: PenaltySpec("mcp", {"gamma": 1.0, "b": 1.0, "x": 2.0}),
        lambda: PenaltySpec("nope", {}),
        lambda: PenaltySpec("mcp", {"gamma": True, "b": 1.0}),  # bool is not a number
        lambda: PenaltySpec("mcp", {"gamma": 1.0, "b": "1.5"}),  # nor is a string
        lambda: spec_from_dict({"family": "mcp", "params": [1, 2]}),
        lambda: spec_from_dict([{"family": "mcp"}]),  # not an object
        lambda: penlq.mcp(10**400, 1.0),  # no float holds it
        lambda: penlq.mcp(1e-101, 1.0),  # magnitude below 1e-100
        lambda: penlq.linear(-1.1e100),  # magnitude above 1e100
        lambda: penlq.mcp(Fraction(1, 2), 1.0),  # nor is a Fraction a float
        lambda: PenaltySpec(["mcp"], {}),  # the family is a string
        lambda: PenaltySpec("l0", []),  # params are a mapping
        lambda: PenaltySpec("mcp", None),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_analyze_mcp_constants(mcp_analysis):
    an = mcp_analysis
    assert an.tau == pytest.approx(0.8, abs=0)
    assert an.tau0 == pytest.approx(0.6, abs=1e-15)
    assert an.tau_hat == pytest.approx(0.7, abs=1e-15)
    assert an.c1 == pytest.approx(0.4, abs=1e-14)
    assert an.k_bound == 1.0


def test_analyze_l0_constants():
    an = analyze(penlq.l0())
    assert (an.tau, an.tau0, an.tau_hat) == (1.0, 0.6, 0.7)
    assert an.c1 == pytest.approx(5.0, abs=0)
    assert an.k_bound == 0.0


def test_analyze_clipped_l1_constants():
    an = analyze(penlq.clipped_l1(1.0))
    assert an.tau == pytest.approx(2.0, abs=0)
    assert an.tau0 == pytest.approx(1.5, abs=0)
    assert an.tau_hat == pytest.approx(1.75, abs=0)
    assert an.c1 == pytest.approx(1.0, abs=1e-14)
    assert an.k_bound == 0.0


def test_analyze_rejects_linear():
    with pytest.raises(ConditionViolationError):
        analyze(penlq.linear(1.0))


def test_tau_hat_inside_band(specs):
    for spec in specs.values():
        an = analyze(spec)
        assert an.tau0 < an.tau_hat < an.tau


def test_monotone_on_random_pairs(specs):
    rng = np.random.default_rng(7)
    for spec in specs.values():
        tau = analyze(spec).tau
        pairs = np.sort(rng.uniform(0.0, 2.0 * tau, size=(10_000, 2)), axis=1)
        lo = p_eval(spec, pairs[:, 0])
        hi = p_eval(spec, pairs[:, 1])
        assert np.all(lo <= hi + 1e-12)


def test_midpoint_concavity_on_random_pairs(specs):
    rng = np.random.default_rng(11)
    for spec in specs.values():
        tau0 = analyze(spec).tau0
        pairs = rng.uniform(0.0, tau0, size=(10_000, 2))
        mid = p_eval(spec, pairs.mean(axis=1))
        avg = 0.5 * (p_eval(spec, pairs[:, 0]) + p_eval(spec, pairs[:, 1]))
        assert np.all(mid >= avg - 1e-12)


def test_c1_positive_for_all_admissible(specs):
    for spec in specs.values():
        assert analyze(spec).c1 > 1e-12


def test_derivatives_match_finite_differences(specs):
    rng = np.random.default_rng(3)
    for spec in specs.values():
        an = analyze(spec)
        ts = rng.uniform(an.tau0 + 1e-4, an.tau - 1e-4, size=1000)
        d1 = p_d1(spec, ts)
        d2 = p_d2(spec, ts)
        assert np.all(np.abs(d1 - central_d1(spec, ts)) <= 1e-5 * np.maximum(1.0, np.abs(d1)))
        assert np.all(np.abs(d2 - central_d2(spec, ts)) <= 1e-5 * np.maximum(1.0, np.abs(d2)))


@pytest.mark.parametrize("spec", [penlq.log_penalty(1e100), penlq.fraction(1e100)], ids=str)
def test_second_derivative_is_finite_at_the_largest_gamma(spec):
    # p'' is of order 1e-3 (log) or 1/gamma (fraction)
    with np.errstate(over="raise", invalid="raise"):
        ts = np.linspace(0.75, 1.0, 7)
        d2 = p_d2(spec, ts)
    assert np.all(np.isfinite(d2)) and np.all(d2 < 0.0)
    if spec.family == "log":
        assert np.allclose(d2, central_d2(spec, ts), rtol=1e-5, atol=0.0)
        assert analyze(spec).k_bound == pytest.approx(
            1.0 / (0.75**2 * np.log1p(1e100)), rel=1e-12
        )


@pytest.mark.parametrize("make", [
    lambda g: penlq.mcp(g, 1.0), lambda g: penlq.scad(g, 3.0), penlq.hard_threshold,
    penlq.log_penalty,
], ids=["mcp", "scad", "hard_threshold", "log"])
def test_parameters_beyond_1e100_are_refused_at_construction(make):
    # 1e100 is the largest magnitude gamma may have, and its constants are
    # finite; larger ones never reach analyze
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        an = analyze(make(1e100))
    assert all(np.isfinite(v) for v in vars(an).values())
    for value in (1e150, 1e300, 1e308):
        with pytest.raises(ValueError, match=re.escape(f": parameter gamma={value!r} out of range")):
            make(value)


@pytest.mark.parametrize(
    "spec",
    [penlq.scad(1.0, 3.0), penlq.scad(0.5, 4.0), penlq.mcp(1.0, 1.0), penlq.mcp(2.0, 3.0)],
)
def test_scad_mcp_values_match_quadrature_of_derivative(spec):
    # integrate the defining derivative formula across both kink regions
    breaks = kink_points(spec)
    grid = np.linspace(0.01, 1.2 * max(breaks), 25)
    for t in grid:
        val, _ = quad(lambda s: p_d1(spec, s) if s not in breaks else 0.0,
                      0.0, t, points=[x for x in breaks if x < t], limit=200)
        assert abs(p_eval(spec, t) - val) < 1e-9


def _random_curved_specs(seed: int, count: int):
    """Random-parameter specs of the families whose -p'' is not zero on the band."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gamma = float(rng.uniform(0.05, 5.0))
        yield penlq.bridge(float(rng.uniform(0.01, 0.99)))
        yield penlq.fraction(gamma)
        yield penlq.log_penalty(gamma)
        yield penlq.scad(gamma, float(rng.uniform(2.0, 6.0) + 1e-3))
        yield penlq.mcp(gamma, float(rng.uniform(1.0, 5.0)))
        yield penlq.hard_threshold(gamma)


def test_k_bound_dominates_sampled_curvature(specs):
    # k_bound is -p''(tau0): the random parameters check that this is the max
    for spec in [*specs.values(), *_random_curved_specs(29, 50)]:
        an = analyze(spec)
        sampled = sampled_k_bound(spec, an.tau0, an.tau)
        # exact bound sits between the raw sampled max and its padded value
        assert an.k_bound >= sampled / 1.01 - 1e-12
        assert an.k_bound <= sampled + 1e-12 or sampled == 0.0


@given(st.floats(min_value=0.0, max_value=1.6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_mcp_between_zero_and_cap(t):
    spec = penlq.mcp(1.0, 1.0)
    assert 0.0 <= p_eval(spec, t) <= 0.5


def test_smooth_band_avoids_kinks():
    # random parametrizations: the analysis band [tau0, tau] must never
    # contain a kink, else the curvature constants would be meaningless
    rng = np.random.default_rng(19)
    for _ in range(200):
        gamma = float(rng.uniform(0.05, 5.0))
        for spec in (
            penlq.scad(gamma, float(rng.uniform(2.0, 6.0) + 1e-3)),
            penlq.mcp(gamma, float(rng.uniform(1.0, 5.0))),
            penlq.hard_threshold(gamma),
            penlq.piecewise_linear(gamma + 1.0, gamma * float(rng.uniform(0, 0.9)), gamma),
        ):
            an = analyze(spec)
            for kink in kink_points(spec):
                assert not an.tau0 <= kink <= an.tau, (spec, an, kink)


_KINK_SCAN = {  # family -> its spec at scale s; s = 1 gives the default parameters
    "l0": lambda s: penlq.l0(),
    "bridge": lambda s: penlq.bridge(0.5),
    "hard_threshold": penlq.hard_threshold,
    "scad": lambda s: penlq.scad(s, 3.0),
    "mcp": lambda s: penlq.mcp(s, 1.0),
    "piecewise_linear": lambda s: penlq.piecewise_linear(2.0, 0.5, s),
    "fraction": penlq.fraction,
    "log": penlq.log_penalty,
    "linear": penlq.linear,
}


def _unlisted_jumps(spec) -> list:
    """(derivative, s, t): grid neighbours s < t on [tau0/2, 2*tau] across
    which p' or p'' changes by over 10 times the change across either
    adjacent pair, with no listed kink between them.  Grid points at a
    listed kink are skipped."""
    tau, tau0, _ = band(spec)
    kinks = kink_points(spec)
    grid = np.linspace(tau0 / 2.0, 2.0 * tau, 10_000)
    grid = grid[[all(abs(t - kink) > 1e-9 * kink for kink in kinks) for t in grid]]
    jumps = []
    for derivative in (p_d1, p_d2):
        change = np.abs(np.diff(derivative(spec, grid)))
        for k in np.nonzero(change[1:-1] > 10.0 * np.maximum(change[:-2], change[2:]))[0] + 1:
            s, t = float(grid[k]), float(grid[k + 1])
            if not any(s < kink < t for kink in kinks):
                jumps.append((derivative.__name__, s, t))
    return jumps


@pytest.mark.parametrize("family", penlq.FAMILIES)
def test_kinks_list_every_jump_of_the_derivatives(family):
    # check_conditions passes the band [tau0, tau] exactly when no listed
    # kink lies in it, so the list must hold every jump of p' and p''
    assert set(_KINK_SCAN) == set(penlq.FAMILIES)
    for s in (1.0, 1e-50, 1e50):
        assert _unlisted_jumps(_KINK_SCAN[family](s)) == [], s


def test_unlisted_jumps_finds_a_kink_missing_from_the_list(monkeypatch):
    record = dataclasses.replace(penlq.penalties._REGISTRY["mcp"], kinks=lambda **params: ())
    monkeypatch.setitem(penlq.penalties._REGISTRY, "mcp", record)
    for s in (1.0, 1e-50, 1e50):
        jumps = _unlisted_jumps(penlq.mcp(s, 1.0))
        assert [(name, a < s < b) for name, a, b in jumps] == [("p_d2", True)]


def test_spec_json_round_trip(specs):
    for spec in specs.values():
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec


# Few values per parameter, so that equal specs are drawn often; ints and
# floats, and 0.0 and -0.0, compare equal.
_PARAM_VALUES = {
    "l0": {},
    "bridge": {"p": (0.25, 0.5)},
    "hard_threshold": {"gamma": (1, 1.0, 2.5)},
    "scad": {"gamma": (1, 2.0), "a": (3, 3.0, 3.7)},
    "mcp": {"gamma": (1, 1.0, 2.0), "b": (1, 1.5)},
    "piecewise_linear": {"k1": (1, 2.0), "k2": (0, 0.0, -0.0, 0.5), "a": (1, 0.5)},
    "fraction": {"gamma": (1, 2.5)},
    "log": {"gamma": (1.0, 2.5)},
}


@st.composite
def _specs(draw, family):
    names = draw(st.permutations(sorted(_PARAM_VALUES[family])))
    return PenaltySpec(family, {n: draw(st.sampled_from(_PARAM_VALUES[family][n])) for n in names})


@given(st.sampled_from(sorted(_PARAM_VALUES)).flatmap(lambda f: st.tuples(_specs(f), _specs(f))))
def test_hash_agrees_with_equality(pair):
    a, b = pair
    assert (a == b) == (dict(a.params) == dict(b.params))
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if a == b else 2)


def test_params_immutable(mcp_spec):
    with pytest.raises(TypeError):
        mcp_spec.params["gamma"] = 2.0


_FLOAT_EVAL_SPECS = {
    **all_admissible_specs(),
    "linear": penlq.linear(1.5),
    "piecewise_linear": penlq.piecewise_linear(2.0, 0.5, 0.7),
    "scad_wide": penlq.scad(0.5, 3.7),
    "mcp_wide": penlq.mcp(2.0, 1.5),
    "bridge_low": penlq.bridge(0.2),
    "log_steep": penlq.log_penalty(7.0),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_EVAL_SPECS))
def test_float_eval_matches_p_eval(name):
    spec = _FLOAT_EVAL_SPECS[name]
    p = _float_eval(spec)
    grid = np.concatenate([np.linspace(0.0, 5.0, 2001), [0.0], kink_points(spec)])
    for t in grid.tolist():
        want = p_eval(spec, t)
        got = p(t)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (t, got, want)


def test_float_eval_covers_every_family():
    assert {spec.family for spec in _FLOAT_EVAL_SPECS.values()} == set(penlq.FAMILIES)


@pytest.mark.parametrize("name", sorted(_FLOAT_EVAL_SPECS))
def test_chord_slope_from_zero_never_rises(name):
    # p(t) >= (t/s)*p(s) for 0 < t <= s: the zero screen of local_descent
    # bounds lam*p(|v|) below by |v|*lam*p(step)/step on the trust interval.
    # The absolute slack covers cancellation in gamma**2 - (gamma - t)**2.
    spec = _FLOAT_EVAL_SPECS[name]
    p = _float_eval(spec)
    fractions = np.concatenate([np.logspace(-9, -2, 8), np.linspace(0.05, 1.0, 20)])
    for s in np.logspace(-6, 3, 46).tolist():
        t = s * fractions
        for ps, pt in ((p_eval(spec, s), p_eval(spec, t)), (p(s), np.array([p(v) for v in t]))):
            chord = t / s * ps
            slack = 1e-12 * np.abs(chord) + 1e-15
            assert np.all(pt >= chord - slack), (s, t[pt < chord - slack])


def test_numpy_numbers_are_accepted_as_params():
    spec = PenaltySpec("mcp", {"gamma": np.float64(1.0), "b": np.int64(2)})
    assert spec == penlq.mcp(1.0, 2.0)
