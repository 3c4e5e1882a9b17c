import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penlq
from penlq import (
    SizeGuardError,
    SolveResult,
    ThreePartitionInstance,
    build,
    encode_certificate,
    minimize_structured,
    objective,
    optimal_bound,
    solve,
)
from penlq import solver
from penlq.penalties import _float_eval, kink_points, p_eval
from penlq.reduction import ProblemInstance
from penlq.solver import (
    _half_weights, _piecewise_min, _restriction, local_descent, require_desk_scale,
)

from conftest import all_admissible_specs
from oracles import (
    NO_INSTANCES,
    YES_INSTANCES,
    _golden_min,
    structured_minimum,
    structured_x_uncached,
    three_partition_oracle,
)


def test_structured_attains_bound_on_yes(demo_instance):
    result = minimize_structured(demo_instance)
    assert result.assignments_explored == 64
    assert result.gap <= 1e-9
    assert result.value == pytest.approx(optimal_bound(demo_instance), abs=1e-9)


def test_structured_value_is_recomputed(demo_instance):
    result = minimize_structured(demo_instance)
    assert abs(result.value - objective(demo_instance, result.x)) <= 1e-12


def test_structured_no_instance_keeps_gap(mcp_spec):
    tp = ThreePartitionInstance(m=2, b=(3, 3, 3, 3, 3, 5))
    assert not three_partition_oracle(tp.m, tp.b)
    red = build(tp, mcp_spec, q=2.0, lam=1.0)
    result = minimize_structured(red)
    assert result.gap >= red.epsilon


def test_structured_m1_single_assignment(mcp_spec):
    red = build(ThreePartitionInstance(m=1, b=(2, 2, 2)), mcp_spec, q=2.0, lam=1.0)
    result = minimize_structured(red)
    assert result.assignments_explored == 1
    assert result.gap <= 1e-9


def test_size_guard(mcp_spec):
    tp = ThreePartitionInstance(m=4, b=(1,) * 12)  # 4**12 > 10**7
    red = build(tp, mcp_spec, q=2.0, lam=1.0)
    with pytest.raises(SizeGuardError, match=r"4\*\*12"):
        minimize_structured(red)


def test_size_guard_reads_counts_by_the_count_rule():
    # 4**40 wraps to 0 in int64; 100000**300000 has 1.5 million digits
    for m, n in ((np.int64(4), np.int64(40)), (4, 40), (2, 24), (100000, 300000)):
        with pytest.raises(SizeGuardError, match=rf"m\*\*n = {m}\*\*{n} assignments"):
            require_desk_scale(m, n)
    for m, n in ((np.int64(3), np.int64(9)), (2, 23), (1, 10**9)):
        require_desk_scale(m, n)
    for m, n in ((2.0, 6), (2, True), (0, 6), (2, 0)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            require_desk_scale(m, n)


def test_size_guard_message_names_m_and_n_not_their_power(mcp_spec):
    red = build(ThreePartitionInstance(m=30, b=(1, 2, 3) * 30), mcp_spec, q=2.0, lam=1.0)
    with pytest.raises(SizeGuardError) as info:
        minimize_structured(red)  # 30**90 has 133 digits
    assert "30**90" in str(info.value) and len(str(info.value)) < 120


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_structured_matches_brute_force_with_smallest_index_tie_break(mcp_spec, q):
    # integer imbalances at q = 1, 2 are exact in float, so ties are real ties
    for m, b in YES_INSTANCES + NO_INSTANCES:
        red = build(ThreePartitionInstance(m=m, b=b), mcp_spec, q=q, lam=1.0)
        expected = np.zeros((red.n, m))
        expected[np.arange(red.n), structured_minimum(m, b, q)] = red.t_star
        assert np.array_equal(minimize_structured(red).x, expected), (m, b)


def test_structured_solution_decodes_equitably(demo_instance):
    result = minimize_structured(demo_instance)
    partition = penlq.decide(demo_instance, result.x)
    assert partition is not None
    assert penlq.verify_equitable(demo_instance.tp, partition)


def test_local_descent_fixed_point_at_certificate(demo_instance, demo_certificate):
    start_value = objective(demo_instance, demo_certificate)
    polished = local_descent(demo_instance.problem, demo_certificate.reshape(-1), step=0.05)
    assert demo_instance.problem.objective(polished) <= start_value + 1e-12


def test_local_descent_recovers_perturbed_certificate(demo_instance, demo_certificate):
    rng = np.random.default_rng(2)
    delta = demo_instance.delta
    noisy = demo_certificate.reshape(-1) + rng.uniform(-delta / 2, delta / 2, size=12)
    polished = local_descent(demo_instance.problem, noisy, step=2.0 * delta)
    assert np.max(np.abs(polished - demo_certificate.reshape(-1))) < delta
    value = demo_instance.problem.objective(polished)
    assert value < optimal_bound(demo_instance) + demo_instance.epsilon


def test_local_descent_never_increases(demo_instance):
    rng = np.random.default_rng(4)
    for _ in range(5):
        x0 = rng.uniform(-1.0, 1.0, size=12)
        before = demo_instance.problem.objective(x0)
        after = demo_instance.problem.objective(local_descent(demo_instance.problem, x0))
        assert after <= before + 1e-12


def test_hybrid_zero_restarts_equals_structured(demo_instance):
    fields = ["x", "value", "gap", "assignments_explored"]
    assert [f.name for f in dataclasses.fields(SolveResult)] == fields
    base = minimize_structured(demo_instance)
    for result in (solve(demo_instance), solve(demo_instance, mode="structured", seed=5),
                   solve(demo_instance, mode="hybrid", restarts=0, seed=1)):
        assert result.x.tobytes() == base.x.tobytes()
        assert (result.value, result.gap, result.assignments_explored) == (
            base.value, base.gap, base.assignments_explored)


def test_overflowing_terms_read_as_inf():
    terms = [(1e200, 1.0)]
    assert _restriction(terms, 0.0, 30.0, 1.0, abs)(0.5) == float("inf")
    assert not solver._stays_at_zero(terms, 30.0, 1.0)


def test_hybrid_never_worse_and_reproducible(demo_instance):
    structured = solve(demo_instance, mode="structured")
    a = solve(demo_instance, mode="hybrid", restarts=3, seed=11)
    b = solve(demo_instance, mode="hybrid", restarts=3, seed=11)
    assert a.value <= structured.value + 1e-12
    assert np.array_equal(a.x, b.x) and a.value == b.value


@pytest.mark.parametrize("q", [1.5, 3.0])
@pytest.mark.parametrize("name", sorted(all_admissible_specs()))
def test_hybrid_cannot_cross_separation_on_no_instance(specs, name, q):
    # the reverse direction: no x brings a no-instance below bound + epsilon,
    # so descent, the library's adversary, must leave the gap above epsilon.
    # The m = 2 no-instances keep the suite fast; every smallest gap/epsilon
    # of the 8 families x q in {1.5, 3} sits at m = 2, the least at scad,
    # q = 3 (1,038 with seed 0).
    ratios = []
    for m, b in (case for case in NO_INSTANCES if case[0] == 2):
        assert not three_partition_oracle(m, b)
        red = build(ThreePartitionInstance(m=m, b=b), specs[name], q=q, lam=1.0)
        result = solve(red, mode="hybrid", restarts=2, seed=0)
        assert result.gap >= red.epsilon, (b, result.gap, red.epsilon)
        ratios.append(result.gap / red.epsilon)
    assert min(ratios) > 1000.0, ratios


def test_solve_rejects_bad_budget(demo_instance):
    with pytest.raises(ValueError):
        solve(demo_instance, mode="annealing")
    with pytest.raises(ValueError):
        solve(demo_instance, mode="hybrid", restarts=-1)
    for budget in ({"restarts": True}, {"restarts": 1.5}, {"seed": True},
                   {"seed": None}, {"seed": 1.5}, {"seed": -1}):
        with pytest.raises(ValueError):
            solve(demo_instance, mode="hybrid", **{"restarts": 1, **budget})


def test_yes_instance_certificate_among_optima(mcp_spec):
    # every structured optimum on a yes-instance matches the bound; the
    # oracle-confirmed partition gives the same value
    tp = ThreePartitionInstance(m=3, b=(1, 2, 3, 1, 2, 3, 1, 2, 3))
    assert three_partition_oracle(tp.m, tp.b)
    red = build(tp, mcp_spec, q=2.0, lam=1.0)
    result = minimize_structured(red)
    cert = encode_certificate(red, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert result.value == pytest.approx(objective(red, cert), abs=1e-9)
    assert result.assignments_explored == 3**9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x0": np.full(12, np.nan)},
        {"x0": np.r_[np.zeros(11), np.inf]},
        {"x0": np.zeros(11)},
        {"step": 0.0},
        {"step": -0.1},
        {"step": float("nan")},
        {"step": float("inf")},
        {"max_iters": -1},
        {"step": True},
        {"max_iters": True},
        {"max_iters": 2.5},
        {"tol": float("nan")},
        {"tol": -1.0},
    ],
)
def test_local_descent_rejects_bad_inputs(demo_instance, demo_certificate, kwargs):
    args = {"x0": demo_certificate.reshape(-1), **kwargs}
    with pytest.raises(ValueError):
        local_descent(demo_instance.problem, **args)


def test_local_descent_zero_iterations_returns_start(demo_instance):
    x0 = np.linspace(-1.0, 1.0, 12)
    assert np.array_equal(local_descent(demo_instance.problem, x0, max_iters=0), x0)


def test_local_descent_one_full_objective_per_sweep(demo_instance, monkeypatch):
    calls = []
    full = ProblemInstance.objective

    def counting(self, x):
        calls.append(1)
        return full(self, x)

    monkeypatch.setattr(ProblemInstance, "objective", counting)
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=12)
    local_descent(demo_instance.problem, x0, max_iters=7)
    assert 2 <= len(calls) <= 7 + 1


@pytest.mark.parametrize("b", [(1, 2, 3, 1, 2, 3), (2, 2, 2, 4, 4, 4, 6, 6, 15)])
def test_restriction_matches_full_objective_difference(mcp_spec, b):
    red = build(ThreePartitionInstance(m=len(b) // 3, b=b), mcp_spec, q=2.0, lam=1.0)
    problem = red.problem
    pen = _float_eval(problem.penalty)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-0.5, 1.5, size=problem.cols)
        k = int(rng.integers(problem.cols))
        v = x[k] + rng.uniform(-1.0, 1.0)
        rows = np.flatnonzero(problem.a_matrix[:, k])
        residuals = (problem.a_matrix @ x - problem.target)[rows]
        terms = list(zip(residuals.tolist(), problem.a_matrix[rows, k].tolist()))
        phi = _restriction(terms, float(x[k]), problem.q, problem.lam, pen)
        moved = x.copy()
        moved[k] = v
        before = problem.objective(x)
        expected = problem.objective(moved) - before
        # relative to the larger of the change and F itself: the full
        # difference loses digits to cancellation when the change is small
        scale = max(abs(expected), before)
        assert abs(phi(v) - phi(float(x[k])) - expected) <= 1e-12 * scale


@st.composite
def generic_problems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-3.0, 3.0, size=(rows, cols))
    a[:, rng.permutation(cols)[: draw(st.integers(1, cols - 1))]] = 0.0
    spec = all_admissible_specs()[draw(st.sampled_from(sorted(all_admissible_specs())))]
    problem = ProblemInstance(
        a_matrix=a,
        target=rng.uniform(-2.0, 2.0, size=rows),
        lam=draw(st.floats(0.1, 10.0)),
        q=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        penalty=spec,
    )
    return problem, rng.uniform(-2.0, 2.0, size=cols), draw(st.floats(1e-3, 1.0))


@settings(max_examples=60, deadline=None)
@given(generic_problems())
def test_local_descent_generic_never_increases_and_is_deterministic(case):
    problem, x0, step = case
    before = problem.objective(x0)
    first = local_descent(problem, x0, step=step)
    second = local_descent(problem, x0, step=step)
    # exact, not just to 1e-12: a sweep that raises F by rounding is undone
    assert problem.objective(first) <= before
    assert np.array_equal(first, second)


def test_local_descent_restart_from_own_output_never_raises():
    # at a converged point a sweep makes only rounding-sized moves, which can
    # raise the full F by an ulp (seed 224 does without the sweep undo)
    specs = all_admissible_specs()
    for seed in range(200, 230):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 5), rng.integers(2, 7)
        a = rng.uniform(-3.0, 3.0, (rows, cols))
        a[:, rng.permutation(cols)[: rng.integers(1, cols)]] = 0.0
        spec = specs[sorted(specs)[rng.integers(len(specs))]]
        q = float([1.0, 1.5, 2.0, 3.0][rng.integers(4)])
        problem = ProblemInstance(a, rng.uniform(-2.0, 2.0, rows), float(rng.uniform(0.1, 10.0)),
                                  q, spec)
        x1 = local_descent(problem, rng.uniform(-2.0, 2.0, cols), step=0.5)
        x2 = local_descent(problem, x1, step=0.5)
        assert problem.objective(x2) <= problem.objective(x1)


def _reference_sweep(problem, x, step):
    """One sweep of the descent on the full objective, the uncached way."""
    x = np.array(x, dtype=float)
    for k in range(x.size):
        def restricted(v, k=k):
            moved = x.copy()
            moved[k] = v
            return problem.objective(moved)

        candidate = _golden_min(restricted, x[k] - step, x[k] + step, 1e-10)
        if restricted(candidate) < restricted(x[k]):
            x[k] = candidate
    return x


@pytest.mark.parametrize("b", [(1, 2, 3, 1, 2, 3), (2, 2, 2, 4, 4, 4, 6, 6, 15)])
def test_one_sweep_matches_uncached_reference(mcp_spec, b):
    red = build(ThreePartitionInstance(m=len(b) // 3, b=b), mcp_spec, q=2.0, lam=1.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x0 = rng.uniform(-0.5, 1.5, size=red.problem.cols)
        cached = local_descent(red.problem, x0, step=0.1, max_iters=1)
        # golden section on phi_k and on F can part ways where the two agree
        # only to rounding, near a minimizer; 1e-6 is far above that
        assert np.max(np.abs(cached - _reference_sweep(red.problem, x0, 0.1))) < 1e-6


# ---------------------------------------------------------------------------
# Line search by the restriction's shape
# ---------------------------------------------------------------------------

_LINE_SEARCH_SPECS = {
    **all_admissible_specs(),
    "linear": penlq.linear(1.5),
    "scad_wide": penlq.scad(0.5, 3.7),
    "mcp_wide": penlq.mcp(2.0, 1.5),
}
# p'' is constant between the kinks of these families, so at q = 2 phi_k is
# a quadratic on every piece
_QUADRATIC_BETWEEN_KINKS = {"l0", "hard_threshold", "scad", "mcp", "piecewise_linear", "linear"}
_SHAPED = [
    (name, q)
    for name, spec in sorted(_LINE_SEARCH_SPECS.items())
    for q in (1.0, 2.0)
    if q == 1.0 or spec.family in _QUADRATIC_BETWEEN_KINKS
]
_ESTIMATED = [
    (name, q)
    for name, spec in sorted(_LINE_SEARCH_SPECS.items())
    for q in (1.5, 2.0, 3.0)
    if q != 2.0 or spec.family not in _QUADRATIC_BETWEEN_KINKS
]


def _cuts(spec, xk, step, r, vals):
    """The cut points local_descent gives the line search: 0, the kinks
    +-kappa and the residual zeros inside the trust interval, sorted."""
    kinks = kink_points(spec)
    cuts = [0.0, *kinks, *(-kappa for kappa in kinks), *(xk - ri / a for ri, a in zip(r, vals))]
    return sorted(c for c in cuts if xk - step < c < xk + step)


def _random_restrictions(spec, q):
    """(phi, x_k, step, r, vals, lam) for random one-column restrictions."""
    pen = _float_eval(spec)
    rng = np.random.default_rng(17)
    for trial in range(30):
        rows = int(rng.integers(1, 5))
        r = rng.uniform(-2.0, 2.0, size=rows).tolist()
        vals = (rng.uniform(0.2, 3.0, size=rows) * rng.choice([-1.0, 1.0], size=rows)).tolist()
        # every third case puts 0 or a kink inside the trust interval
        xk = float(rng.uniform(-2.5, 2.5)) if trial % 3 else float(rng.uniform(-0.3, 0.3))
        step = float(rng.choice([1e-3, 0.05, 0.4, 1.5]))
        lam = float(rng.uniform(0.1, 5.0))
        phi = _restriction(list(zip(r, vals)), xk, q, lam, pen)
        yield phi, xk, step, r, vals, lam


@pytest.mark.parametrize(("name", "q"), _SHAPED)
def test_shaped_line_search_finds_the_interval_minimum(name, q):
    spec = _LINE_SEARCH_SPECS[name]
    for trial, (phi, xk, step, r, vals, _) in enumerate(_random_restrictions(spec, q)):
        cuts = _cuts(spec, xk, step, r, vals)
        v, value = _piecewise_min(phi, xk - step, xk + step, cuts, fit=q > 1)
        assert xk - step <= v <= xk + step
        assert value == phi(v)
        grid = min(phi(t) for t in np.linspace(xk - step, xk + step, 2001).tolist())
        golden = phi(_golden_min(phi, xk - step, xk + step, 1e-10))
        slack = 1e-12 * max(1.0, abs(grid))
        assert value <= grid + slack, (trial, value, grid)
        assert value <= golden + slack, (trial, value, golden)


@pytest.mark.parametrize(("name", "q"), _ESTIMATED)
def test_estimated_vertex_never_loses_to_a_piece_end(name, q):
    # where phi_k is not a quadratic on its pieces the fitted vertex is only
    # an estimate: one sweep over a one-column problem must still leave x_k
    # no worse than every piece end and than x_k itself
    spec = _LINE_SEARCH_SPECS[name]
    for trial, (phi, xk, step, r, vals, lam) in enumerate(_random_restrictions(spec, q)):
        a = np.array(vals)[:, None]
        problem = ProblemInstance(a, a[:, 0] * xk - np.array(r), lam, q, spec)
        (v,) = local_descent(problem, [xk], step=step, max_iters=1).tolist()
        lo, hi = xk - step, xk + step
        assert lo <= v <= hi
        # the sweep rebuilds r from A x - target, so phi agrees to rounding
        for end in [lo, hi, xk, *_cuts(spec, xk, step, r, vals)]:
            assert phi(v) <= phi(end) + 1e-12 * max(1.0, abs(phi(end))), (trial, v, end)


def test_l0_line_search_lands_on_zero():
    # phi = |x - 0.05|^2 + p(|x|): the jump at 0 is worth 1, so 0 beats the
    # vertex at 0.05, which the fit sees only through interior points
    phi = _restriction([(0.05, 1.0)], 0.1, 2.0, 1.0, _float_eval(penlq.l0()))
    cuts = _cuts(penlq.l0(), 0.1, 0.2, [0.05], [1.0])
    v, value = _piecewise_min(phi, -0.1, 0.3, cuts, fit=True)
    assert v == 0.0 and value == pytest.approx(0.0025, abs=1e-15)


# ---------------------------------------------------------------------------
# The zero screen: line searches skipped at x_k = 0
# ---------------------------------------------------------------------------


def _zero_restrictions(spec, q):
    """(phi, terms, step, lam, slope) for random one-column restrictions at x_k = 0,
    with slope = lam*p(step)/step as local_descent computes it.  Every third
    case has a residual at exactly 0, and every other case sets lam so that
    slope exceeds the fit slope G by a relative 1e-9 or 1e-3 only."""
    pen = _float_eval(spec)
    rng = np.random.default_rng(29)
    for trial in range(60):
        rows = int(rng.integers(1, 5))
        r = rng.uniform(-1.0, 1.0, size=rows) * float(rng.choice([1e-3, 0.1, 1.0]))
        if trial % 3 == 0:
            r[0] = 0.0
        vals = rng.uniform(0.2, 3.0, size=rows) * rng.choice([-1.0, 1.0], size=rows)
        step = float(rng.choice([1e-3, 0.05, 0.4, 1.5]))
        fit_slope = abs(float(np.sum(q * np.abs(r) ** (q - 1.0) * np.sign(r) * vals)))
        lam = float(rng.uniform(0.1, 5.0))
        if trial % 2 and fit_slope > 0.0:
            lam = fit_slope * (1.0 + float(rng.choice([1e-9, 1e-3]))) * step / pen(step)
        terms = list(zip(r.tolist(), vals.tolist()))
        yield _restriction(terms, 0.0, q, lam, pen), terms, step, lam, lam * pen(step) / step


@pytest.mark.parametrize("name", sorted(_LINE_SEARCH_SPECS))
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_zero_screen_fires_only_where_no_move_lowers_phi(name, q):
    spec = _LINE_SEARCH_SPECS[name]
    fired = 0
    for phi, terms, step, lam, slope in _zero_restrictions(spec, q):
        if not solver._stays_at_zero(terms, q, slope):
            continue
        fired += 1
        at_zero = phi(0.0)
        slack = 1e-12 * max(1.0, abs(at_zero))
        r, vals = zip(*terms)
        # phi on the grid, vectorized: it agrees with phi to rounding
        v = np.linspace(-step, step, 2001)
        fit = np.abs(np.array(r)[:, None] + np.outer(vals, v)) ** q
        grid = float(np.min(fit.sum(axis=0) + lam * p_eval(spec, np.abs(v))))
        assert grid >= at_zero - slack, (terms, step, grid, at_zero)
        cuts = _cuts(spec, 0.0, step, r, vals)
        _, value = _piecewise_min(phi, -step, step, cuts, fit=q > 1)
        assert value >= at_zero - slack, (terms, step, value, at_zero)
    assert fired >= 5  # the check is not vacuous


def _restart_outputs(monkeypatch, red, seed):
    """The x each descent restart of one hybrid solve returns."""
    outputs = []

    def recording(*args, **kwargs):
        outputs.append(local_descent(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(solver, "local_descent", recording)
    solve(red, mode="hybrid", restarts=2, seed=seed)
    return outputs


# The hybrid benchmark's four no-instance cases, (penalty, q, no-instance)
_HYBRID_NO_CASES = [
    (penlq.mcp(1.0, 1.0), 2.0, NO_INSTANCES[6]),
    (penlq.scad(1.0, 3.0), 1.5, NO_INSTANCES[0]),
    (penlq.log_penalty(1.0), 1.0, NO_INSTANCES[5]),
    (penlq.l0(), 2.0, NO_INSTANCES[3]),
]


@pytest.mark.parametrize(("spec", "q", "instance"), _HYBRID_NO_CASES)
def test_zero_screen_leaves_hybrid_restarts_unchanged(monkeypatch, spec, q, instance):
    # an always-false screen runs every line search, as descent did before the
    # screen.  The outputs can differ only where the unscreened search takes a
    # rounding-sized move that the screen proves uphill: log q=1 does at seed 9
    m, b = instance
    red = build(ThreePartitionInstance(m=m, b=b), spec, q=q, lam=1.0)
    for seed in (0, 3):
        screened = _restart_outputs(monkeypatch, red, seed)
        monkeypatch.setattr(solver, "_stays_at_zero", lambda *args: False)
        unscreened = _restart_outputs(monkeypatch, red, seed)
        monkeypatch.undo()
        assert len(screened) == len(unscreened) == 2
        for ours, theirs in zip(screened, unscreened):
            assert ours.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# Hybrid mode: no descent on certified optima
# ---------------------------------------------------------------------------


def _refuse_descent(*args, **kwargs):
    raise AssertionError("local_descent ran on a certified optimum")


@pytest.mark.parametrize(("m", "b"), YES_INSTANCES)
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_hybrid_returns_certificate_without_descent(monkeypatch, mcp_spec, m, b, q):
    red = build(ThreePartitionInstance(m=m, b=b), mcp_spec, q=q, lam=1.0)
    structured = solve(red, mode="structured")
    monkeypatch.setattr(solver, "local_descent", _refuse_descent)
    hybrid = solve(red, mode="hybrid", restarts=3, seed=9)
    assert hybrid.x.tobytes() == structured.x.tobytes()
    assert (hybrid.value, hybrid.gap) == (structured.value, structured.gap)
    assert hybrid.assignments_explored == structured.assignments_explored


@pytest.mark.parametrize(("m", "b"), NO_INSTANCES[:2] + NO_INSTANCES[4:5])
def test_hybrid_descends_every_restart_on_no_instance(monkeypatch, mcp_spec, m, b):
    red = build(ThreePartitionInstance(m=m, b=b), mcp_spec, q=2.0, lam=1.0)
    calls = []
    descent = solver.local_descent

    def counting(*args, **kwargs):
        calls.append(1)
        return descent(*args, **kwargs)

    monkeypatch.setattr(solver, "local_descent", counting)
    solve(red, mode="hybrid", restarts=3, seed=0)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# The cached per-half weight tables
# ---------------------------------------------------------------------------


def test_assignment_table_is_shared_read_only_and_bounded():
    table = _half_weights(3, 2)
    assert table.dtype == np.float64 and table.shape == (1, 8, 3)
    assert _half_weights(3, 2) is table
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    assert _half_weights.cache_info().maxsize is not None
    # row r weighs item i by [digit i of r == j] - [digit i of r == 0],
    # digits little-endian: 6 is (0, 1, 1)
    assert table[0, 6].tolist() == [-1.0, 1.0, 1.0]
    # m = 3, r = 5 is (2, 1): subset 2 holds item 0, subset 1 item 1
    assert _half_weights(2, 3)[:, 5].tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_structured_matches_uncached_formula_bytewise(specs):
    rng = np.random.default_rng(23)
    cases = [(1, (2, 2, 2)), (1, (1, 5, 9))] + list(YES_INSTANCES + NO_INSTANCES)
    cases += [(2, tuple(int(v) for v in rng.integers(100_000, 1_000_001, size=6)))]
    cases += [(3, tuple(int(v) for v in rng.integers(1, 30, size=9)))]
    cases += [(3, tuple(int(v) for v in rng.integers(100_000, 1_000_001, size=9)))
              for _ in range(2)]
    cases += [(3, (7,) * 9)]  # every assignment of three items per subset ties
    for m, b in cases:
        if sum(b) % m:
            b = b[:-1] + (b[-1] + m - sum(b) % m,)
        tp = ThreePartitionInstance(m=m, b=b)
        for name in ("mcp", "l0", "bridge"):
            for q in (1.0, 1.5, 2, 3.0):
                red = build(tp, specs[name], q=q, lam=1.0)
                result = minimize_structured(red)
                expected = structured_x_uncached(red)
                assert result.x.tobytes() == expected.tobytes(), (m, b, name, q)
                assert result.value == objective(red, expected)
