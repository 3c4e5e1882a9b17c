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
