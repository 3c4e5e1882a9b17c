"""JSON file formats for penalties, instances and solutions.

All artifacts are JSON text so test runs can diff them.  Floats are printed
with 17 significant digits, which round-trips IEEE doubles exactly and makes
output byte-identical across runs for identical inputs.

Penalty file:   {"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}
3-partition:    {"m": 2, "b": [1, 2, 3, 1, 2, 3]}  (or wrapped under "tp")
Instance file:  {"rows": R, "cols": C, "A": [...row-major...], "target":
                [...], "lambda": ..., "q": ..., "meta": {...}, "tp": {...},
                "penalty": {...}, "grid_exp": ..., "layout": ...}
Solution file:  {"x": [...row-major...], "value": v, "gap": g, ...}

An instance file must equal, whole, the instance rebuilt from its recipe.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import _is_real
from .penalties import PenaltySpec, spec_from_dict, spec_to_dict
from .reduction import (
    _LAYOUT, ReductionInstance, ThreePartitionInstance, as_solution_matrix, build, optimal_bound,
)
from .solver import SolveResult


def dumps(obj) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def load_penalty(path) -> PenaltySpec:
    return spec_from_dict(read_json(path))


def tp_from_dict(data: dict) -> ThreePartitionInstance:
    if isinstance(data, dict) and "tp" in data:
        data = data["tp"]
    if not isinstance(data, dict) or "m" not in data or not isinstance(data.get("b"), list):
        raise ValueError("3-partition input must provide 'm' and a list 'b'")
    return ThreePartitionInstance(m=data["m"], b=tuple(data["b"]))


def load_tp(path) -> ThreePartitionInstance:
    return tp_from_dict(read_json(path))


def instance_to_dict(red: ReductionInstance) -> dict:
    problem = red.problem
    return {
        "rows": problem.rows,
        "cols": problem.cols,
        "A": [float(v) for v in problem.a_matrix.reshape(-1)],
        "target": [float(v) for v in problem.target],
        "lambda": problem.lam,
        "q": problem.q,
        "meta": {
            "theta": red.gparams.theta,
            "mu": red.gparams.mu,
            "tau_hat": red.gparams.tau_hat,
            "t_star": red.ganalysis.t_star,
            "h": red.ganalysis.h,
            "delta": red.delta,
            "epsilon": red.epsilon,
            "bound": optimal_bound(red),
        },
        "tp": {"m": red.tp.m, "b": list(red.tp.b)},
        "penalty": spec_to_dict(red.problem.penalty),
        "grid_exp": red.grid_exp,
        "layout": _LAYOUT,
    }


def save_instance(path, red: ReductionInstance) -> None:
    write_json(path, instance_to_dict(red))


def instance_from_dict(data: dict) -> ReductionInstance:
    """Rebuild the instance from (tp, penalty, q, lambda, grid_exp) and check it.

    The build is deterministic, so any difference between ``data`` and the
    rebuilt record (A, target, meta, layout, a missing or extra key) means
    the file was edited or corrupted, and raises ValueError.  So does a
    record that is not an object, lacks a recipe key, or holds a q or lambda
    that is not a finite number.
    """
    if not isinstance(data, dict):
        raise ValueError("instance file must be a JSON object")
    missing = sorted({"tp", "penalty", "q", "lambda", "grid_exp"} - data.keys())
    if missing:
        raise ValueError(f"instance file lacks the keys {missing}")
    red = build(
        tp_from_dict(data["tp"]), spec_from_dict(data["penalty"]),
        q=_float(data, "q"), lam=_float(data, "lambda"), grid_exp=data["grid_exp"],
    )
    if instance_to_dict(red) != data:
        raise ValueError("stored matrix or metadata does not match the rebuilt instance")
    return red


def _float(data: dict, key: str) -> float:
    value = data[key]
    if not _is_real(value):
        raise ValueError(f"instance {key!r} must be a finite number, got {value!r}")
    return float(value)


def load_instance(path) -> ReductionInstance:
    return instance_from_dict(read_json(path))


def solution_to_dict(result: SolveResult) -> dict:
    return {
        "x": [float(v) for v in result.x.reshape(-1)],
        "value": result.value,
        "gap": result.gap,
        "assignments_explored": result.assignments_explored,
        "seed": result.seed,
    }


def save_solution(path, result: SolveResult) -> None:
    write_json(path, solution_to_dict(result))


def load_solution_matrix(path, red: ReductionInstance) -> np.ndarray:
    """Read the flat "x" of a solution file as an (n, m) matrix.

    Raises ValueError unless "x" is a flat list of n*m finite JSON numbers;
    strings, bools, null and integers beyond float range are not coerced.
    """
    data = read_json(path)
    if not isinstance(data, dict) or "x" not in data:
        raise ValueError("solution file must be an object with an 'x' key")
    x = data["x"]
    if not isinstance(x, list) or len(x) != red.n * red.m:
        raise ValueError(f"solution 'x' must be a flat list of {red.n * red.m} numbers")
    if not all(_is_real(v) for v in x):
        raise ValueError("solution 'x' must contain only finite numbers")
    return as_solution_matrix(red, x)
