"""In-memory span recorder and the wrappers that feed it.

The traced run wraps the public functions at each penlq module boundary from
the outside: every binding of the original function object in any loaded
``penlq`` module is replaced, so names that importers bound at import time
(``penlq.reduction.full_analysis``, ``penlq.solver.objective``, the
``p_eval`` imported by ``reduction``, ``gfun`` and ``conditions``, ...) are
traced as well.  ``ProblemInstance.objective`` is wrapped on the class.
Nothing under ``src/`` changes, and the untraced run installs no wrapper.

A span is (name, start, end, parent, case id).  Spans are kept in flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Span store plus a few counters read off call results.

    ``paused`` is True outside the traced cases, so the benchmark's own
    correctness checks never show up as program work.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.stack: list[int] = []
        self.case_id = -1
        self.paused = True
        self.counters: dict[str, float] = {}
        self.last_structured_value = float("nan")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def open_span(self, name: str) -> int:
        """Open a span from the benchmark itself (the per-case root)."""
        return self._open(self.name_id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def span(self, nid: int, fn, args, kwargs):
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close_span(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "case": np.frombuffer(self.case, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy ms and self ms (busy minus children)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "ms": float(dur[sel].sum() * 1e3),
                "self_ms": float((dur[sel] - child[sel]).sum() * 1e3),
            }
        return out

    def count_children(self, child_name: str, parent_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if child_name not in self._ids or parent_name not in self._ids:
            return 0
        a = self.arrays()
        sel = (a["name"] == self._ids[child_name]) & (a["parent"] >= 0)
        parents = a["parent"][sel]
        return int(np.count_nonzero(a["name"][parents] == self._ids[parent_name]))

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, name, fn, after=None):
    """Wrap fn in a span; a call nested directly in a same-named span (the
    module-level ``objective`` calling ``ProblemInstance.objective``) is not
    counted twice."""
    fixed = None if callable(name) else tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
        if tracer.stack and tracer.name[tracer.stack[-1]] == nid:
            return fn(*args, **kwargs)
        result = tracer.span(nid, fn, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _count_elems(tracer, args, kwargs, result):
    tracer.add("penalties.p_eval.elems", int(np.size(args[1] if len(args) > 1 else kwargs["t"])))


def _after_structured(tracer, args, kwargs, result):
    tracer.add("solver.assignments_explored", result.assignments_explored)
    tracer.last_structured_value = result.value


def _after_solve(tracer, args, kwargs, result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "structured")
    restarts = kwargs.get("restarts", args[2] if len(args) > 2 else 0)
    if mode == "hybrid" and restarts > 0:
        tracer.add("solver.hybrid_solves", 1)
        if result.value < tracer.last_structured_value:
            tracer.add("solver.hybrid_improved", 1)


def _after_write(tracer, args, kwargs, result):
    tracer.add("serde.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))


def _cli_verb(args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    words = argv[:2] if argv and argv[0] in ("penalty", "gfun", "reduce") else argv[:1]
    return "cli.main." + "_".join(words)


# (module, attribute, span name, hook run on the result)
TARGETS = (
    ("penalties", "analyze", "penalties.analyze", None),
    ("penalties", "p_eval", "penalties.p_eval", _count_elems),
    ("conditions", "check_conditions", "conditions.check_conditions", None),
    ("conditions", "fuzz_subadditivity", "conditions.fuzz_subadditivity", None),
    ("conditions", "fuzz_concentration", "conditions.fuzz_concentration", None),
    ("conditions", "classify_split", "conditions.classify_split", None),
    ("gfun", "full_analysis", "gfun.full_analysis", None),
    ("gfun", "minimize_g", "gfun.minimize_g", None),
    ("gfun", "g_eval", "gfun.g_eval", None),
    ("reduction", "build", "reduction.build", None),
    ("reduction", "objective", "reduction.objective", None),
    ("solver", "solve", "solver.solve", _after_solve),
    ("solver", "minimize_structured", "solver.minimize_structured", _after_structured),
    ("solver", "local_descent", "solver.local_descent", None),
    ("decode", "decide", "decode.decide", None),
    ("decode", "round_solution", "decode.round_solution", None),
    ("serde", "save_instance", "serde.save_instance", None),
    ("serde", "load_instance", "serde.load_instance", None),
    ("serde", "save_solution", "serde.save_solution", None),
    ("serde", "write_json", "serde.write_json", _after_write),
    ("cli", "main", _cli_verb, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the originals on exit."""
    import penlq.cli  # noqa: F401  (load every module that holds bindings)
    from penlq.reduction import ProblemInstance

    undo: list[tuple[object, str, object]] = []
    try:
        modules = [m for k, m in sys.modules.items() if k == "penlq" or k.startswith("penlq.")]
        for mod_name, attr, name, after in TARGETS:
            original = getattr(sys.modules["penlq." + mod_name], attr)
            wrapped = _wrap(tracer, name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        method = ProblemInstance.objective
        undo.append((ProblemInstance, "objective", method))
        ProblemInstance.objective = _wrap(tracer, "reduction.objective", method)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
