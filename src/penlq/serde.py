"""JSON file formats for penalties, instances and solutions.

All artifacts are strict JSON from ``json.dumps`` so test runs can diff them:
floats in their shortest round-trip form, byte-identical across runs for
identical inputs.  NaN and +-inf raise ValueError, and no file is written.

Penalty file:   {"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}
3-partition:    {"m": 2, "b": [1, 2, 3, 1, 2, 3]}  (or wrapped under "tp")
Instance file:  {"lambda": ..., "q": ..., "meta": {...}, "tp": {...},
                "penalty": {...}}
Solution file:  {"x": [...row-major...], "value": v, "gap": g, ...}

An instance file holds the recipe (tp, penalty, q, lambda) and the constants
derived from it, not A: tp and meta's theta_root, mu_root and tau_hat pin A
and target bit for bit (:func:`penlq.reduction.build`).  It must equal,
whole, the record of the instance rebuilt from its recipe.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import _is_real, _require_real
from .penalties import PenaltySpec, spec_from_dict, spec_to_dict
from .reduction import (
    ReductionInstance, ThreePartitionInstance, as_solution_matrix, build, optimal_bound,
)
from .solver import SolveResult


def dumps(obj) -> str:
    """Serialize to strict JSON; raises ValueError for NaN or +-inf."""
    return json.dumps(obj, allow_nan=False)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def load_penalty(path) -> PenaltySpec:
    return spec_from_dict(read_json(path))


def tp_from_dict(data: dict) -> ThreePartitionInstance:
    if isinstance(data, dict) and "tp" in data:
        data = data["tp"]
    if not (isinstance(data, dict) and "m" in data and "b" in data):
        raise ValueError("3-partition input must be an object with 'm' and 'b' keys")
    return ThreePartitionInstance(m=data["m"], b=data["b"])


def load_tp(path) -> ThreePartitionInstance:
    return tp_from_dict(read_json(path))


def instance_to_dict(red: ReductionInstance) -> dict:
    return {
        "lambda": red.problem.lam,
        "q": red.problem.q,
        "meta": {
            "theta": red.gparams.theta,
            "mu": red.gparams.mu,
            "tau_hat": red.gparams.tau_hat,
            "theta_root": red.gparams.theta_root,
            "mu_root": red.gparams.mu_root,
            "t_star": red.ganalysis.t_star,
            "h": red.ganalysis.h,
            "delta": red.delta,
            "epsilon": red.epsilon,
            "bound": optimal_bound(red),
        },
        "tp": {"m": red.tp.m, "b": list(red.tp.b)},
        "penalty": spec_to_dict(red.problem.penalty),
    }


def save_instance(path, red: ReductionInstance) -> None:
    write_json(path, instance_to_dict(red))


def instance_tp(data) -> ThreePartitionInstance:
    """The 3-partition input of an instance record, read without building
    anything; raises ValueError for a record that is not an object or lacks
    a recipe key (tp, penalty, q, lambda)."""
    if not isinstance(data, dict):
        raise ValueError("instance file must be a JSON object")
    missing = sorted({"tp", "penalty", "q", "lambda"} - data.keys())
    if missing:
        raise ValueError(f"instance file lacks the keys {missing}")
    return tp_from_dict(data["tp"])


def instance_from_dict(data: dict) -> ReductionInstance:
    """Rebuild the instance from (tp, penalty, q, lambda) and check it.

    The build is deterministic, so any difference between ``data`` and the
    rebuilt record (meta, a missing or extra key) means the file was edited
    or corrupted, and raises ValueError naming the top-level keys that
    differ; a file that still stores A, as earlier versions did, is refused
    this way.  So does a record that :func:`instance_tp` refuses, or that
    holds a q or lambda that is not a finite number.
    """
    red = build(
        instance_tp(data), spec_from_dict(data["penalty"]),
        q=_require_real("instance 'q'", data["q"]),
        lam=_require_real("instance 'lambda'", data["lambda"]),
    )
    rebuilt = instance_to_dict(red)
    shared = rebuilt.keys() & data.keys()
    differ = sorted(rebuilt.keys() ^ data.keys() | {k for k in shared if rebuilt[k] != data[k]})
    if differ:
        raise ValueError("instance file does not match the instance rebuilt from its "
                         f"recipe: keys {differ} differ")
    return red


def load_instance(path) -> ReductionInstance:
    return instance_from_dict(read_json(path))


def solution_to_dict(result: SolveResult) -> dict:
    return {
        "x": result.x.reshape(-1).tolist(),
        "value": result.value,
        "gap": result.gap,
        "assignments_explored": result.assignments_explored,
    }


def save_solution(path, result: SolveResult) -> None:
    write_json(path, solution_to_dict(result))


def load_solution_matrix(path, red: ReductionInstance) -> np.ndarray:
    """Read the flat "x" of a solution file as an (n, m) matrix.

    Raises ValueError unless "x" is a flat list of n*m finite JSON numbers;
    strings, bools, null and integers beyond float range are not coerced.
    Each entry is checked here because numpy would read a bool among floats
    as 1.0; the count is :func:`penlq.reduction.as_solution_matrix`'s rule.
    """
    data = read_json(path)
    if not isinstance(data, dict) or "x" not in data:
        raise ValueError("solution file must be an object with an 'x' key")
    x = data["x"]
    if not (isinstance(x, list) and all(_is_real(v) for v in x)):
        raise ValueError("solution 'x' must be a flat list of finite numbers")
    return as_solution_matrix(red, x)
