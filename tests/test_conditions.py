import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penlq
from penlq import SplitVerdict, check_conditions, classify_split, gfun, subadditive_bound_holds

from conftest import all_admissible_specs
from oracles import classify_split_by_rule, concave_by_all_pairs
from penlq.penalties import band


def test_mcp_passes_all_checks(mcp_spec):
    report = check_conditions(mcp_spec, grid_n=1000)
    assert report.overall
    assert report.monotone_ok and report.concave_ok
    assert report.not_linear_ok and report.smooth_ok
    assert report.monotone_witness is None and report.concave_witness is None


def test_linear_fails_only_not_linear():
    for k in (1.0, 0.0):  # p = 0 has no scale, and its band is still smooth
        report = check_conditions(penlq.linear(k), grid_n=1000)
        assert not report.overall
        assert report.monotone_ok and report.concave_ok and report.smooth_ok
        assert not report.not_linear_ok
        assert report.c1 == pytest.approx(0.0, abs=1e-12)


def test_decreasing_penalty_fails_monotone_with_witness():
    report = check_conditions(penlq.linear(-1.0), grid_n=1000)
    assert not report.monotone_ok
    s, t, ps, pt = report.monotone_witness
    assert s < t and ps > pt


def test_convex_shape_fails_concavity_with_witness(monkeypatch, mcp_spec):
    # no builtin family is midpoint-convex, so exercise the witness path by
    # swapping the evaluator for t**2 (white box)
    import penlq.conditions as conditions_mod

    monkeypatch.setattr(conditions_mod, "p_eval", lambda spec, t: np.asarray(t, float) ** 2)
    report = check_conditions(mcp_spec, grid_n=300)
    assert not report.concave_ok
    s, t, gap = report.concave_witness
    assert gap < 0 and 0 <= s <= 0.8 and 0 <= t <= 0.8
    assert not report.overall


def test_overall_is_conjunction(mcp_spec):
    report = check_conditions(mcp_spec, grid_n=500)
    assert report.overall == (
        report.monotone_ok and report.concave_ok and report.not_linear_ok and report.smooth_ok
    )


def test_grid_floor_enforced(mcp_spec):
    for grid_n in (99, 150.5, 1000.0, True, "150", None):
        with pytest.raises(ValueError, match="grid_n"):
            check_conditions(mcp_spec, grid_n=grid_n)


def test_grid_cap_enforced(mcp_spec):
    # refused before np.linspace is asked for the points
    with pytest.raises(ValueError, match="grid_n must be at most 1000000, got 1000001"):
        check_conditions(mcp_spec, grid_n=10**6 + 1)


def test_check_is_deterministic(mcp_spec):
    a = check_conditions(mcp_spec, grid_n=300)
    b = check_conditions(mcp_spec, grid_n=300)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert a.grid_n == 300


def test_subadditive_bound_cancelling_pair():
    # sum is zero, so the right side collapses to p(0) = 0
    assert subadditive_bound_holds(penlq.l0(), (0.1, -0.1))


def test_subadditive_bound_mcp_examples(mcp_spec):
    assert subadditive_bound_holds(mcp_spec, (0.3, 0.3))  # 0.51 >= min(0.42, 0.48)
    assert subadditive_bound_holds(mcp_spec, (5.0, -1.0))  # 1.0 >= min(p(4), p(0.8))


def test_subadditive_bound_arity():
    with pytest.raises(ValueError):
        subadditive_bound_holds(penlq.l0(), (0.5,))


def test_nan_entries_rejected(mcp_spec, mcp_analysis):
    # both used to answer: True and HYPOTHESIS_FAILS
    with pytest.raises(ValueError):
        subadditive_bound_holds(mcp_spec, [float("nan"), 0.3])
    with pytest.raises(ValueError):
        classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, [float("nan"), float("nan")])


def test_classify_spike_is_concentrated(specs):
    for spec in specs.values():
        an = penlq.analyze(spec)
        t_tilde = 0.5 * (an.tau0 + an.tau)
        delta = 0.5 * min(an.tau0 / 3.0, t_tilde - an.tau0, an.tau - t_tilde)
        parts = [t_tilde] + [0.0] * 4
        assert classify_split(spec, an, t_tilde, delta, parts) is SplitVerdict.CONCENTRATED_OK


def test_classify_even_split_fails_hypothesis(mcp_spec, mcp_analysis):
    verdict = classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, (0.35, 0.35))
    assert verdict is SplitVerdict.HYPOTHESIS_FAILS  # 0.5775 >= 0.455 + 0.016


def test_classify_near_spike_never_counterexample(mcp_spec, mcp_analysis):
    verdict = classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, (0.69, 0.01))
    assert verdict in (SplitVerdict.HYPOTHESIS_FAILS, SplitVerdict.CONCENTRATED_OK)


def test_classify_validates_delta(mcp_spec, mcp_analysis):
    with pytest.raises(ValueError):
        classify_split(mcp_spec, mcp_analysis, 0.7, 0.25, (0.7, 0.0))  # above tau0/3
    with pytest.raises(ValueError):
        classify_split(mcp_spec, mcp_analysis, 0.7, 0.0, (0.7, 0.0))


def test_classify_validates_sum(mcp_spec, mcp_analysis):
    with pytest.raises(ValueError):
        classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, (0.5, 0.3))


def test_classify_validates_length(mcp_spec, mcp_analysis):
    # one rule for both split checks: a flat list of two or more entries
    for t_list in ([0.7], [[0.7], [0.0]]):
        with pytest.raises(ValueError, match="^t_list must be a flat list of at least two"):
            classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, t_list)
        with pytest.raises(ValueError, match="^t_list must be a flat list of at least two"):
            subadditive_bound_holds(mcp_spec, t_list)


def test_classify_validates_t_tilde(mcp_spec, mcp_analysis):
    with pytest.raises(ValueError):
        classify_split(mcp_spec, mcp_analysis, 0.9, 0.01, (0.9, 0.0))


def test_fuzz_subadditivity_clean(mcp_spec):
    report = penlq.fuzz_subadditivity(mcp_spec, trials=2000, seed=42)
    assert report.ok and report.trials == 2000 and report.seed == 42


def test_fuzz_concentration_clean_and_covers_both_branches(mcp_spec):
    report = penlq.fuzz_concentration(mcp_spec, trials=2000, seed=42)
    assert report.ok
    assert report.hypothesis_fails > 0 and report.concentrated > 0
    assert report.hypothesis_fails + report.concentrated == 2000


def test_fuzz_reproducible(mcp_spec):
    a = penlq.fuzz_concentration(mcp_spec, trials=500, seed=9)
    b = penlq.fuzz_concentration(mcp_spec, trials=500, seed=9)
    assert a == b


@given(
    st.lists(st.floats(min_value=-1.6, max_value=1.6, allow_nan=False), min_size=2, max_size=6)
)
@settings(max_examples=300, deadline=None)
def test_subadditive_bound_property_mcp(values):
    assert subadditive_bound_holds(penlq.mcp(1.0, 1.0), values)


@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=6)
)
@settings(max_examples=300, deadline=None)
def test_subadditive_bound_property_l0(values):
    assert subadditive_bound_holds(penlq.l0(), values)


def test_classify_spread_split_is_counterexample(monkeypatch, mcp_spec, mcp_analysis):
    # no builtin family yields a counterexample, so exercise that verdict by
    # swapping the evaluator for p = 0 (white box): the hypothesis then holds
    # for every split, and an even split does not concentrate
    import penlq.conditions as conditions_mod

    monkeypatch.setattr(conditions_mod, "p_eval", lambda spec, t: 0.0 * np.asarray(t, float))
    verdict = classify_split(mcp_spec, mcp_analysis, 0.7, 0.04, (0.35, 0.35))
    assert verdict is SplitVerdict.COUNTEREXAMPLE_FOUND


REFERENCE_SPECS = {
    **all_admissible_specs(),
    "linear": penlq.linear(1.0),
    "mcp_wide": penlq.mcp(1e6, 3.0),
    "scad_narrow": penlq.scad(1e-3, 2.5),
    "bridge_steep": penlq.bridge(0.01),
    "linear_decreasing": penlq.linear(-1.0),
}


@pytest.mark.parametrize("grid_n", [100, 300, 1000])
@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_concave_verdict_matches_all_pairs_scan(name, grid_n):
    spec = REFERENCE_SPECS[name]
    tau = band(spec)[0]
    expected = concave_by_all_pairs(lambda t: penlq.p_eval(spec, t), tau, grid_n)
    assert check_conditions(spec, grid_n=grid_n).concave_ok == expected


@pytest.mark.parametrize("p", [lambda t: np.asarray(t, float) ** 2,
                               lambda t: 0.0 * np.asarray(t, float)], ids=["square", "zero"])
def test_concave_verdict_matches_all_pairs_scan_white_box(monkeypatch, mcp_spec, p):
    import penlq.conditions as conditions_mod

    monkeypatch.setattr(conditions_mod, "p_eval", lambda spec, t: p(t))
    for grid_n in (100, 300):
        expected = concave_by_all_pairs(p, band(mcp_spec)[0], grid_n)
        assert check_conditions(mcp_spec, grid_n=grid_n).concave_ok == expected


def _random_splits(analysis, rng, n):
    """n random (t_tilde, delta, parts) draws of one length: exact spikes,
    near-spikes and dispersed splits, so both sides of every threshold occur."""
    tau0, tau = analysis.tau0, analysis.tau
    t_tilde = rng.uniform(tau0, tau, size=n)
    delta_max = np.minimum(np.minimum(tau0 / 3.0, t_tilde - tau0), tau - t_tilde)
    delta = rng.uniform(0.01, 0.99, size=n) * delta_max
    length = int(rng.integers(2, 7))
    spread = delta * rng.choice([0.0, 0.1, 1.0, 10.0], size=n)
    parts = rng.normal(0.0, 1.0, size=(n, length)) * spread[:, None]
    parts[:, 0] += t_tilde - parts.sum(axis=1)
    return t_tilde, delta, parts


@pytest.mark.parametrize("name", sorted(all_admissible_specs()) + ["zero_white_box"])
def test_batch_classifier_matches_per_split_rule(monkeypatch, name):
    import penlq.conditions as conditions_mod

    if name == "zero_white_box":  # p = 0: every split meets the hypothesis
        spec = penlq.mcp(1.0, 1.0)
        monkeypatch.setattr(conditions_mod, "p_eval", lambda spec, t: 0.0 * np.asarray(t, float))
    else:
        spec = all_admissible_specs()[name]
    analysis = penlq.analyze(spec)
    p = lambda t: conditions_mod.p_eval(spec, t)
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(20):
        t_tilde, delta, parts = _random_splits(analysis, rng, 60)
        codes = conditions_mod._classify_rows(spec, analysis, t_tilde, delta, parts)
        for code, t, d, row in zip(codes, t_tilde, delta, parts):
            verdict = SplitVerdict(classify_split_by_rule(p, analysis.c1, t, d, row))
            assert conditions_mod._VERDICTS[code] is verdict
            seen.add(verdict)
    assert len(seen) >= 2


@pytest.mark.parametrize("name", sorted(all_admissible_specs()))
def test_fuzz_concentration_finds_no_counterexample(name):
    spec = all_admissible_specs()[name]
    for seed in range(5):
        report = penlq.fuzz_concentration(spec, seed=seed)
        assert report.ok and report.hypothesis_fails + report.concentrated == report.trials


def test_fuzzers_run_where_float_sums_are_inexact():
    # t_tilde ~ 7e5: a split's float sum misses t_tilde by more than 1e-12
    spec = penlq.mcp(1e6, 3.0)
    assert penlq.fuzz_concentration(spec, trials=2000, seed=1).ok
    assert penlq.fuzz_subadditivity(spec, trials=2000, seed=1).ok


@pytest.mark.parametrize("trials", [0, -5, True, 2.5, "10", None])
def test_fuzzers_require_a_positive_integer_trial_count(mcp_spec, trials):
    with pytest.raises(ValueError, match="trials"):
        penlq.fuzz_subadditivity(mcp_spec, trials=trials)
    with pytest.raises(ValueError, match="trials"):
        penlq.fuzz_concentration(mcp_spec, trials=trials)


def test_fuzzers_cap_the_trial_count(mcp_spec):
    for fuzz in (penlq.fuzz_subadditivity, penlq.fuzz_concentration):
        with pytest.raises(ValueError, match="trials must be at most 1000000, got 1000001"):
            fuzz(mcp_spec, trials=10**6 + 1)


@pytest.mark.parametrize("seed", [True, None, 1.5, -1])
def test_fuzzers_require_a_non_negative_integer_seed(mcp_spec, seed):
    with pytest.raises(ValueError, match="seed"):
        penlq.fuzz_subadditivity(mcp_spec, trials=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        penlq.fuzz_concentration(mcp_spec, trials=10, seed=seed)


def test_fuzzers_accept_fewer_trials_than_lengths(mcp_spec):
    for trials in (1, 4, np.int64(7)):
        assert penlq.fuzz_subadditivity(mcp_spec, trials=trials).trials == trials
        report = penlq.fuzz_concentration(mcp_spec, trials=trials)
        assert report.ok and report.hypothesis_fails + report.concentrated == trials


def test_classify_split_sum_check_is_relative_to_t_tilde():
    # t_tilde ~ 1.8e6: the float sum of [w*t, t - w*t, 0] can miss t by an ulp
    # of t (2.3e-10), far above an absolute 1e-12
    spec = penlq.scad(1e6, 3.0)
    an = penlq.analyze(spec)
    rng = np.random.default_rng(0)
    for t_tilde, w in rng.uniform((an.tau0, 0.0), (an.tau, 1.0), size=(1000, 2)):
        delta = 0.5 * min(an.tau0 / 3.0, t_tilde - an.tau0, an.tau - t_tilde)
        classify_split(spec, an, t_tilde, delta, [w * t_tilde, t_tilde - w * t_tilde, 0.0])
    with pytest.raises(ValueError, match=r"sum to t_tilde \(to within 1e-12\*t_tilde\)"):
        classify_split(spec, an, t_tilde, delta, [t_tilde * (1.0 + 1e-11), 0.0])


_SCALED_FAMILIES = {
    "hard_threshold": lambda s: penlq.hard_threshold(s),
    "scad": lambda s: penlq.scad(s, 3.0),
    "mcp": lambda s: penlq.mcp(s, 2.0),
    "clipped_l1": lambda s: penlq.clipped_l1(s),
    "piecewise_linear": lambda s: penlq.piecewise_linear(2.0, 0.5, s),
}
_SCALES = [10.0**k for k in range(-12, 13, 3)]


def test_verdicts_do_not_depend_on_the_units_of_the_parameters():
    # p and c*p(t/s) are admissible together, so each check must agree at
    # every scale s; an absolute tolerance fails at one end or the other
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, make in _SCALED_FAMILIES.items():
            for s in _SCALES:
                spec = make(s)
                subadditive = penlq.fuzz_subadditivity(spec, trials=10_000, seed=0)
                concentration = penlq.fuzz_concentration(spec, trials=10_000, seed=0)
                if not check_conditions(spec).overall:
                    failures.append((name, s, "check_conditions"))
                if subadditive.violations or concentration.violations:
                    failures.append((name, s, "fuzz", subadditive, concentration))
                for q in (1, 2):
                    gfun.full_analysis(spec, q=q, lam=1.0)
    assert failures == []


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_linear_is_refused_at_every_scale(c):
    for s in _SCALES:
        spec = penlq.linear(c * s)
        assert not check_conditions(spec).not_linear_ok
        with pytest.raises(penlq.ConditionViolationError, match="linear"):
            penlq.analyze(spec)
