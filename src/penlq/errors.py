"""Exception hierarchy and number checks shared across the package.

The CLI maps the exceptions onto process exit codes, so raising the right
class matters: see ``penlq.cli``.  :func:`_is_integer` and :func:`_is_real`
are the one test for "is this a number?", asked by every entry point that
takes one (counts through :func:`_require_count`); a no raises ValueError
there, never a coercion.
"""

import math

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


def _require_count(name: str, value, floor: int) -> None:
    if not (_is_integer(value) and value >= floor):
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


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
