"""Exception hierarchy and number checks shared across the package.

The CLI maps the exceptions onto process exit codes, so raising the right
class matters: see ``penlq.cli``.  :func:`_is_integer` and :func:`_is_real`
are the one test for "is this a number?", asked by every entry point that
takes one, :func:`_is_parameter` the one range of a penalty parameter, and
each rule on a number is stated here once (the _require_* helpers); a no
raises ValueError there, never a coercion.  A yes returns the Python float
or int of the value, the one form every record keeps, whatever its type.
Arrays pass the same rules entrywise through :func:`_require_array`, which
returns a float ndarray and refuses bool, str, complex, object and ragged
arrays, NaN and +-inf; the shape of an array is the caller's rule.  Records
(a penalty spec and its params, a 3-partition input, an instance or solution
file) pass one key rule, :func:`_require_keys`: a mapping that holds the
keys it must and, where the record is closed, no other.
"""

import functools
import math
from collections.abc import Mapping

import numpy as np


def _is_integer(value) -> bool:
    """A Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite Python or numpy integer or float: never a bool, NaN, +-inf
    or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_parameter(value) -> bool:
    """0 or a number of magnitude in [1e-100, 1e100]: any product of three,
    the deepest a penalty formula goes (mcp's cap b*gamma**2/2), is then a
    normal float, and no penalty formula overflows or divides by 0."""
    return _is_real(value) and (value == 0 or 1e-100 <= abs(value) <= 1e100)


_MAX_SIZE = 10**6  # most grid points or fuzz trials one call may ask for


def _require_count(name: str, value, floor: int, ceiling: int | None = None) -> int:
    if not (_is_integer(value) and value >= floor):
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    if ceiling is not None and value > ceiling:
        raise ValueError(f"{name} must be at most {ceiling}, got {value!r}")
    return int(value)


_REAL_RULES = {  # rule -> (what the value must be, the test it must pass)
    "": ("a finite number", lambda v: True),
    "positive": ("a positive finite number", lambda v: v > 0.0),
    "non-negative": ("a non-negative finite number", lambda v: v >= 0.0),
    ">= 1": ("a finite number >= 1", lambda v: v >= 1.0),
}


def _require_real(name: str, value, rule: str = "") -> float:
    """``value`` as a float if it is a finite number obeying ``rule``, a key of _REAL_RULES."""
    text, ok = _REAL_RULES[rule]
    if not (_is_real(value) and ok(value)):
        raise ValueError(f"{name} must be {text}, got {value!r}")
    return float(value)


def _require_array(name: str, value, rule: str = "") -> np.ndarray:
    """``value`` as a float ndarray if it holds integers or floats only, each
    a finite number obeying ``rule``, a key of _REAL_RULES."""
    text, ok = _REAL_RULES[rule]
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting of sequences, which no array holds
        a = value
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf" and np.isfinite(a).all()
            and (not rule or ok(a).all())):
        raise ValueError(f"{name} must hold only integers or floats, each {text}, got {a!r}")
    return a.astype(float, copy=False)


def _require_keys(name: str, value, required, allowed=None):
    """``value`` if it is a mapping that holds every key of ``required`` and,
    unless ``allowed`` is None, no other key.  Keys are named in the order
    of their repr, so a key of any type can be named."""
    if not isinstance(value, Mapping):
        keys = f" with the keys {sorted(required, key=repr)}" if required else ""
        raise ValueError(f"{name} must be an object{keys}, got {type(value).__name__}")
    faults = {"missing": set(required) - value.keys(),
              "unexpected": set() if allowed is None else value.keys() - set(allowed)}
    if any(faults.values()):
        raise ValueError(f"{name}: " + ", ".join(
            f"{fault} keys {sorted(keys, key=repr)}" for fault, keys in faults.items() if keys))
    return value


_require_q = functools.partial(_require_real, "q", rule=">= 1")
_require_lam = functools.partial(_require_real, "lam", rule="positive")


class PenlqError(Exception):
    """Base class for all package-specific errors."""


class ConditionViolationError(PenlqError):
    """The penalty fails an admissibility condition (e.g. it is linear)."""


class NondifferentiableError(PenlqError, ValueError):
    """Derivative requested at a kink point of the penalty."""


class SizeGuardError(PenlqError):
    """Exact enumeration would exceed the desk-scale budget."""


class RoundingFailureError(PenlqError):
    """A solution row does not match the one-spike-per-row pattern."""


class ReductionInvariantError(PenlqError):
    """A near-optimal solution failed to decode into an equitable partition.

    The construction guarantees this cannot happen for solutions below the
    near-optimality threshold, so this error always indicates a bug in the
    caller or in this package, never a property of the instance.
    """
