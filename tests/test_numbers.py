"""Numbers enter in one form: every entry point keeps the Python float or int
of the value its number rule admits, whatever Python or numpy type it came
in, so its records equal those of a call with Python numbers."""

import dataclasses
import json
from collections.abc import Mapping

import numpy as np
import pytest

import penlq
from penlq import serde
from penlq.gfun import _full_analysis
from penlq.solver import local_descent

SPEC = penlq.mcp(1.0, 1.0)
ANALYSIS = penlq.analyze(SPEC)
_, PARAMS, GA = penlq.full_analysis(SPEC, 2.0, 1.0)
YES = penlq.ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
NO = penlq.build(penlq.ThreePartitionInstance(m=2, b=(2, 2, 2, 2, 2, 4)), SPEC, 2.0, 1.0)
X0 = penlq.minimize_structured(NO).x

# entry -> (call, its numbers as Python floats or ints); a real takes any
# exactly representable numpy or Python number, a count only an integer
REALS = {
    "full_analysis": (lambda q, lam: penlq.full_analysis(SPEC, q, lam), {"q": 2.0, "lam": 1.0}),
    "rationalize": (lambda q, lam: penlq.rationalize(GA.theta_lower, GA.mu_lower, lam, q,
                                                     tau_hat=ANALYSIS.tau_hat),
                    {"q": 2.0, "lam": 1.0}),
    "lower_bounds": (lambda q: penlq.lower_bounds(SPEC, ANALYSIS, q), {"q": 2.0}),
    "build": (lambda q, lam: penlq.build(YES, SPEC, q, lam), {"q": 2.0, "lam": 1.0}),
    "GParams": (penlq.GParams, {"q": 2.0, "theta": 1.0, "mu": 100.0, "tau_hat": 1.0}),
    "ProblemInstance": (lambda q, lam: penlq.ProblemInstance(NO.problem.a_matrix,
                                                             NO.problem.target, lam, q, SPEC),
                        {"q": 2.0, "lam": 1.0}),
    "local_descent": (lambda step, tol: local_descent(NO.problem, X0, step, 3, tol),
                      {"step": 1.0, "tol": 0.0}),
}
COUNTS = {
    "check_conditions": (lambda grid_n: penlq.check_conditions(SPEC, grid_n), {"grid_n": 100}),
    "check_conditions-wide": (lambda grid_n: penlq.check_conditions(SPEC, grid_n),
                              {"grid_n": 200}),
    "fuzz_subadditivity": (lambda trials, seed: penlq.fuzz_subadditivity(SPEC, trials, seed),
                           {"trials": 100, "seed": 3}),
    "fuzz_concentration": (lambda trials, seed: penlq.fuzz_concentration(SPEC, trials, seed),
                           {"trials": 100, "seed": 3}),
    "verify_g_shape": (lambda n: penlq.verify_g_shape(SPEC, ANALYSIS, PARAMS, n), {"n": 100}),
    "solve": (lambda restarts, seed: penlq.solve(NO, "hybrid", restarts, seed),
              {"restarts": 2, "seed": 3}),
    "local_descent-max_iters": (lambda max_iters: local_descent(NO.problem, X0, 0.5, max_iters),
                                {"max_iters": 3}),
    "ThreePartitionInstance": (lambda m: penlq.ThreePartitionInstance(m, (1, 2, 3) * m),
                               {"m": 2}),
}
CASES = [(name, form) for name in REALS
         for form in (int, np.float64, np.float32, np.float16, np.int64)]
CASES += [(name, form) for name, (_, numbers) in COUNTS.items()
          for form in (np.int64, np.int8, np.uint8)
          if max(numbers.values()) <= np.iinfo(form).max]


def _numbers(record):
    """Every number a record stores, through dataclasses, tuples and mappings."""
    if dataclasses.is_dataclass(record):
        for field in dataclasses.fields(record):
            yield from _numbers(getattr(record, field.name))
    elif isinstance(record, (tuple, list)):
        for value in record:
            yield from _numbers(value)
    elif isinstance(record, Mapping):
        yield from _numbers(list(record.values()))
    elif isinstance(record, np.ndarray):
        assert record.dtype == np.float64
    elif record is not None and not isinstance(record, str):
        yield record


@pytest.mark.parametrize("name, form", CASES, ids=[f"{n}-{f.__name__}" for n, f in CASES])
def test_numbers_enter_in_one_form(name, form, tmp_path):
    call, numbers = {**REALS, **COUNTS}[name]
    _full_analysis.cache_clear()
    expected = call(**numbers)
    record = call(**{key: form(value) for key, value in numbers.items()})
    assert repr(record) == repr(expected)
    assert all(type(v) in (bool, int, float) for v in _numbers(record)), record
    assert _full_analysis.cache_info().currsize <= 1  # one entry for every form
    if name == "build":
        serde.save_instance(tmp_path / "inst.json", record)
        data = json.loads((tmp_path / "inst.json").read_text())
        assert type(data["q"]) is float and type(data["lambda"]) is float
        loaded = serde.load_instance(tmp_path / "inst.json")
        assert repr(loaded) == repr(record)


# Arrays enter in one form too: entry -> (call of one array argument, the
# argument's name, a value it admits).  Every value is a small integer or
# holds only small integers, so each admitted form below carries it exactly.
WIDE = penlq.mcp(10.0, 1.0)  # its band is [6, 8], its kink at 10
DEMO = penlq.build(YES, SPEC, 2.0, 1.0)
PATTERN = [[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]]  # spikes of [[1, 2, 3], [4, 5, 6]]
SMALL = penlq.ProblemInstance([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.0], 1.0, 2.0, SPEC)
ARRAYS = {
    "p_eval": (lambda t: penlq.p_eval(WIDE, t), "t", [0, 1, 2, 3]),
    "p_eval-scalar": (lambda t: penlq.p_eval(WIDE, t), "t", 3),
    "p_d1": (lambda t: penlq.p_d1(WIDE, t), "t", 2),
    "p_d2": (lambda t: penlq.p_d2(WIDE, t), "t", [1, 2, 3]),
    "g_eval": (lambda t: penlq.g_eval(SPEC, PARAMS, t), "t", [-1, 0, 1, 2]),
    "subadditive_bound_holds": (lambda t: penlq.subadditive_bound_holds(WIDE, t), "t_list",
                                [1, 2]),
    "classify_split": (lambda t: penlq.classify_split(WIDE, penlq.analyze(WIDE), 7.0, 0.5, t),
                       "t_list", [6, 1]),
    "ProblemInstance-A": (lambda a: penlq.ProblemInstance(a, [1.0, 0.0], 1.0, 2.0, SPEC), "A",
                          [[1, 2], [3, 4]]),
    "ProblemInstance-target": (lambda t: penlq.ProblemInstance([[1.0, 2.0], [3.0, 4.0]], t,
                                                               1.0, 2.0, SPEC), "target", [1, 0]),
    "ProblemInstance.objective": (SMALL.objective, "x", [1, 2]),
    "objective": (lambda x: penlq.objective(DEMO, x), "x", PATTERN),
    "objective-flat": (lambda x: penlq.objective(DEMO, x), "x", np.ravel(PATTERN).tolist()),
    "round_solution": (lambda x: penlq.round_solution(DEMO, x), "x", PATTERN),
    "decide": (lambda x: penlq.decide(DEMO, x), "x", PATTERN),
    "local_descent": (lambda x0: local_descent(NO.problem, x0, 0.5, 3), "x0",
                      np.ravel(PATTERN).tolist()),
}


def _put(a: np.ndarray, value) -> np.ndarray:
    """A copy of a with its last entry set to value."""
    a = a.copy()
    a.flat[-1] = value
    return a


ADMITTED = {  # the scalar of a 0-d array is the [()] of it
    "float32": lambda a: a.astype(np.float32)[()],
    "float16": lambda a: a.astype(np.float16)[()],
    "int64": lambda a: a[()],
    "list": lambda a: a.tolist(),
}
REFUSED = {
    "bool": lambda a: (a > 0)[()],
    "str": lambda a: a.astype(str)[()],
    "complex": lambda a: (a + 1j)[()],
    "object": lambda a: _put(a.astype(object), None)[()],
    "nan": lambda a: _put(a.astype(float), np.nan)[()],
    "inf": lambda a: _put(a.astype(float), np.inf)[()],
    "-inf": lambda a: _put(a.astype(float), -np.inf)[()],
}


@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("form", ADMITTED)
def test_arrays_enter_in_one_form(name, form):
    call, _, value = ARRAYS[name]
    a = np.asarray(value)
    assert a.dtype == np.int64
    assert repr(call(ADMITTED[form](a))) == repr(call(a.astype(np.float64)[()]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("form", REFUSED)
def test_arrays_refuse_every_other_form(name, form):
    call, argument, value = ARRAYS[name]
    with pytest.raises(ValueError, match=f"^{argument} must hold only integers or floats"):
        call(REFUSED[form](np.asarray(value)))


@pytest.mark.parametrize("name", ["objective", "round_solution", "decide"])
@pytest.mark.parametrize("shape", ["transposed", "3x4"])
def test_solutions_are_flat_or_n_by_m(name, shape):
    call, _, value = ARRAYS[name]
    x = np.asarray(value, dtype=float)
    with pytest.raises(ValueError, match=r"^x must have shape \(12,\) or \(6, 2\)"):
        call(x.T if shape == "transposed" else x.reshape(3, 4))
