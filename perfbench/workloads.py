"""Seeded inputs, cases and output checks for the four workloads.

A case's ``timed`` returns (seconds, payload) and its ``verify`` turns the
payload into an Outcome.  The seconds cover only the calls into penlq (or
the ``python -m penlq`` subprocess); the checks run after the clock stops,
against the oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import penlq
import penlq.cli
from oracles import NO_INSTANCES, YES_INSTANCES, objective_by_blocks, three_partition_oracle

LAM = 1.0
QS = (1.0, 1.5, 2.0, 3.0)
# The eight admissible builtin families at their default parameters.
SPECS = {
    "l0": penlq.l0(),
    "bridge": penlq.bridge(0.5),
    "hard_threshold": penlq.hard_threshold(1.0),
    "scad": penlq.scad(1.0, 3.0),
    "mcp": penlq.mcp(1.0, 1.0),
    "clipped_l1": penlq.clipped_l1(1.0),
    "fraction": penlq.fraction(1.0),
    "log": penlq.log_penalty(1.0),
}
# Magnitude bands (name, lowest item, highest item).
M2_BANDS = tuple((f"1e{k}", 10**k, 10 ** (k + 1) - 1) for k in range(6))
M3_BANDS = (("narrow", 1, 20), ("wide", 1, 10**4))
# Hybrid cases: (family, q, oracle label, index into the curated list).  Each
# pair, smooth or discontinuous, gets an m = 2 and an m = 3 instance, one yes
# and one no; mcp q=2 gets the m = 3 no-instance (2,2,2,4,4,4,6,6,15) whose
# solve makes ~105k objective calls.  These eight make about the same number
# of objective calls whatever the seed; some other curated instances swing
# 15x with the seed of the perturbed restart (log, q=1 on (2,3,5,4,4,2):
# 1.5k or 26k calls), which would make a run's time depend on the seed.
HYBRID_CASES = (
    ("mcp", 2.0, False, 6),
    ("mcp", 2.0, True, 0),
    ("scad", 1.5, True, 6),
    ("scad", 1.5, False, 0),
    ("log", 1.0, False, 5),
    ("log", 1.0, True, 3),
    ("l0", 2.0, True, 5),
    ("l0", 2.0, False, 3),
)
# Relative agreement with objective_by_blocks.  On sweep-m2 (sum(b) up to ~6e6)
# the two evaluations differ by up to 8.5e-11 at q = 1, so 1e-12 would not hold.
SWEEP_RTOL = 1e-9
HYBRID_RTOL = 1e-12
PERFBENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Input:
    m: int
    b: tuple[int, ...]
    yes: bool
    band: str  # magnitude band, or "curated"


DEMO = Input(2, (1, 2, 3, 1, 2, 3), True, "curated")  # the worked example


@dataclass
class Outcome:
    ok: bool = True
    reason: str = ""
    yes: bool = False  # a yes-instance whose verdict was attempted
    undecided: bool = False  # ... that came back unknown

    def fail(self, reason: str) -> "Outcome":
        self.ok, self.reason = False, reason
        return self


def _planted(rng, m: int, lo: int, hi: int) -> tuple[int, ...]:
    """m groups of three items with equal sums, shuffled."""
    while True:
        first = [int(v) for v in rng.integers(lo, hi + 1, size=3)]
        target = sum(first)
        groups, ok = [first], True
        for _ in range(m - 1):
            pair = [int(v) for v in rng.integers(lo, hi + 1, size=2)]
            rest = target - sum(pair)
            if not lo <= rest <= hi:
                ok = False
                break
            groups.append(pair + [rest])
        if ok:
            items = [v for g in groups for v in g]
            return tuple(int(v) for v in rng.permutation(items))


def _random(rng, m: int, lo: int, hi: int) -> tuple[int, ...]:
    items = [int(v) for v in rng.integers(lo, hi + 1, size=3 * m)]
    while sum(items) % m:
        items[-1] = int(rng.integers(lo, hi + 1))
    return tuple(items)


def curated_inputs() -> list[Input]:
    """YES_INSTANCES then NO_INSTANCES, each label re-checked by the oracle."""
    out = []
    for label, pool in ((True, YES_INSTANCES), (False, NO_INSTANCES)):
        for m, b in pool:
            if three_partition_oracle(m, b) != label:
                raise RuntimeError(f"curated label of {b} disagrees with the oracle")
            out.append(Input(m, tuple(b), label, "curated"))
    return out


def make_inputs(rng, m: int, bands, per_band: int) -> list[Input]:
    """per_band planted yes-instances and per_band oracle-labelled random
    inputs in each band, then the curated lists for this m."""
    out = []
    for band, lo, hi in bands:
        for _ in range(per_band):
            b = _planted(rng, m, lo, hi)
            if not three_partition_oracle(m, b):
                raise RuntimeError(f"planted input {b} has no equal-sum partition")
            out.append(Input(m, b, True, band))
        for _ in range(per_band):
            b = _random(rng, m, lo, hi)
            out.append(Input(m, b, three_partition_oracle(m, b), band))
    return out + [inp for inp in curated_inputs() if inp.m == m]


def composition(inputs: list[Input], cases_per_input: int) -> dict:
    """The yes/no split and each band's share of cases."""
    total = len(inputs) * cases_per_input
    bands: dict[str, int] = {}
    for inp in inputs:
        bands[inp.band] = bands.get(inp.band, 0) + cases_per_input
    yes = sum(cases_per_input for inp in inputs if inp.yes)
    return {
        "inputs": len(inputs),
        "yes_cases": yes,
        "no_cases": total - yes,
        "band_share": {k: v / total for k, v in bands.items()},
    }


# ---------------------------------------------------------------------------
# Checks (run after the clock stops)
# ---------------------------------------------------------------------------


def _check_partition(inp: Input, subsets, out: Outcome) -> Outcome:
    items = sorted(i for s in subsets for i in s)
    if items != list(range(1, len(inp.b) + 1)):
        return out.fail("partition does not cover every item exactly once")
    target = sum(inp.b) // inp.m
    if any(sum(inp.b[i - 1] for i in s) != target for s in subsets):
        return out.fail("partition is not equal-sum")
    return out


def check_verdict(inp: Input, subsets, out: Outcome) -> Outcome:
    """subsets is None for an unknown verdict."""
    out.yes = inp.yes
    if subsets is None:
        out.undecided = inp.yes
        return out
    if not inp.yes:
        return out.fail("yes verdict on a no-instance")
    return _check_partition(inp, subsets, out)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


def check_solution(red, res, rtol: float, out: Outcome) -> Outcome:
    """The SolveResult contract: value is F(x), and never below the bound."""
    if not _close(res.value, objective_by_blocks(red, res.x), rtol):
        return out.fail(f"value {res.value!r} disagrees with objective_by_blocks")
    bound = red.n * red.problem.lam * red.ganalysis.h
    if not _close(res.gap, res.value - bound, rtol) or res.gap < -rtol * max(1.0, bound):
        return out.fail(f"gap {res.gap!r} inconsistent with the bound")
    return out


# ---------------------------------------------------------------------------
# In-process cases: build -> solve -> decide
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveCase:
    inp: Input
    family: str
    q: float
    mode: str = "structured"
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.family} q={self.q:g} m={self.inp.m} {'yes' if self.inp.yes else 'no'}"

    def timed(self, session=None):
        tp = penlq.ThreePartitionInstance(self.inp.m, self.inp.b)
        t0 = time.perf_counter()
        try:
            red = penlq.build(tp, SPECS[self.family], self.q, LAM)
            res = penlq.solve(red, mode=self.mode, restarts=2 if self.mode == "hybrid" else 0,
                              seed=self.seed)
            part = penlq.decide(red, res.x)
        except Exception as exc:  # any exception is a failed case
            return time.perf_counter() - t0, Outcome().fail(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, (red, res, part)

    def verify(self, payload) -> Outcome:
        if isinstance(payload, Outcome):
            return payload
        red, res, part = payload
        out = Outcome()
        if self.mode == "structured":
            x = np.asarray(res.x)
            if not (np.all(np.count_nonzero(x, axis=1) == 1) and np.all(x[x != 0] == red.t_star)):
                return out.fail("structured solution is not certificate-shaped")
            check_solution(red, res, SWEEP_RTOL, out)
        else:
            structured = penlq.solve(red, mode="structured")
            if not res.value <= structured.value:
                return out.fail("hybrid value above the structured value")
            check_solution(red, res, HYBRID_RTOL, out)
        if not out.ok:
            return out
        return check_verdict(self.inp, None if part is None else part.subsets, out)


def sweep_cases(rng, m: int, per_band: int):
    inputs = make_inputs(rng, m, M2_BANDS if m == 2 else M3_BANDS, per_band)
    cases = [SolveCase(inp, fam, q) for inp in inputs for fam in SPECS for q in QS]
    order = rng.permutation(len(cases))
    return [cases[i] for i in order], composition(inputs, len(SPECS) * len(QS))


def hybrid_cases(seed: int, smoke: bool):
    curated = curated_inputs()
    cases = [
        SolveCase([c for c in curated if c.yes == label][index], fam, q, "hybrid", seed)
        for fam, q, label, index in HYBRID_CASES
    ]
    if smoke:
        cases = [c for c in cases if c.inp.m == 2 and c.family in ("mcp", "l0")]
    return cases, composition([c.inp for c in cases], 1)


def determinism_ok(seed: int) -> bool:
    """Two hybrid solves with one seed on one m = 2 instance give identical x."""
    red = penlq.build(penlq.ThreePartitionInstance(DEMO.m, DEMO.b), SPECS["mcp"], 2.0, LAM)
    a = penlq.solve(red, mode="hybrid", restarts=2, seed=seed)
    b = penlq.solve(red, mode="hybrid", restarts=2, seed=seed)
    return bool(np.array_equal(a.x, b.x))


# ---------------------------------------------------------------------------
# CLI cases: one `python -m penlq ...` each, or penlq.cli.main(argv) in-process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    verb: str
    argv: tuple[str, ...]
    expect_rc: int
    inp: Input | None = None  # decode / demo: the instance whose verdict is checked
    family: str = ""
    q: float = 0.0

    @property
    def label(self) -> str:
        return self.verb

    def timed(self, session: "CliSession"):
        if session.in_process:
            stdout = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = penlq.cli.main(list(self.argv))
                except Exception as exc:  # a traceback is a failed case
                    return time.perf_counter() - t0, Outcome().fail(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, (rc, stdout.getvalue())
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "penlq", *self.argv], cwd=session.workdir,
            env=session.env, capture_output=True, text=True,
        )
        return time.perf_counter() - t0, (proc.returncode, proc.stdout)

    def verify(self, payload) -> Outcome:
        if isinstance(payload, Outcome):
            return payload
        rc, text = payload
        out = Outcome()
        if rc != self.expect_rc:
            return out.fail(f"{self.verb}: exit code {rc}, expected {self.expect_rc}")
        try:
            data = json.loads(text.strip().splitlines()[-1])
            return self._check_json(data, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return out.fail(f"{self.verb}: unreadable output ({exc}): {text[-200:]!r}")

    def _check_json(self, data: dict, out: Outcome) -> Outcome:
        if self.verb in ("solve", "reduce_build"):
            if all(math.isfinite(v) for v in data.values() if isinstance(v, float)):
                return out
            return out.fail(f"{self.verb}: non-finite field in {data}")
        if self.verb in ("decode", "demo"):
            verdict = data["verdict"]
            if verdict not in ("yes", "unknown"):
                return out.fail(f"unexpected verdict {verdict!r}")
            return check_verdict(self.inp, data["partition"] if verdict == "yes" else None, out)
        if self.verb == "penalty_check":
            return out if data["overall"] is True else out.fail("penalty check failed")
        if self.verb == "penalty_fuzz":
            if data["ok"] is True and data["subadditivity_violations"] == 0:
                return out
            return out.fail(f"fuzz found violations: {data}")
        if self.verb == "gfun_analyze":
            return self._check_g(data, out)
        return out.fail(f"unknown verb {self.verb}")

    def _check_g(self, data: dict, out: Outcome) -> Outcome:
        """h is g(t_star), recomputed term by term, and t_star a local minimum."""
        spec = SPECS[self.family]
        g = lambda t: (penlq.p_eval(spec, abs(t)) + data["theta"] * abs(t) ** self.q
                       + data["mu"] * abs(t - data["tau_hat"]) ** self.q)
        t, h = data["t_star"], data["h"]
        if not _close(g(t), h, 1e-12):
            return out.fail(f"gfun h={h!r} but g(t_star)={g(t)!r}")
        step = 1e-6
        if min(g(t - step), g(t + step)) < h - 1e-12 * max(1.0, abs(h)):
            return out.fail("gfun t_star is not a local minimum")
        if data["theta"] < data["theta_lower"] or data["mu"] < data["mu_lower"] * (
            data["theta"] if self.q > 1.0 else 1.0
        ):
            return out.fail("gfun coefficients below their lower bounds")
        return out


class CliSession:
    """Input files in a temporary directory inside the benchmark's own
    ``out/`` directory, and the seeded list of verb units over them."""

    def __init__(self, seed: int, smoke: bool):
        out_dir = PERFBENCH / "out"
        out_dir.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
        self.in_process = False  # the traced run replays the verbs through cli.main
        rng = np.random.default_rng(seed)
        fams = list(SPECS)
        units: list[list[CliCase]] = [[CliCase("demo", ("demo",), 0, DEMO)]]
        for spec_name, spec in SPECS.items():
            self._write(f"{spec_name}.json", penlq.penalties.spec_to_dict(spec))
        for i, inp in enumerate(curated_inputs()):
            fam, q = fams[i % len(fams)], QS[i % len(QS)]
            tp, inst, sol = (str(self.workdir / f"{k}{i}.json") for k in ("tp", "inst", "sol"))
            self._write(f"tp{i}.json", {"m": inp.m, "b": list(inp.b)})
            spec = str(self.workdir / f"{fam}.json")
            units.append([
                CliCase("reduce_build", ("reduce", "build", "--in", tp, "--spec", spec, "--q",
                                         repr(q), "--lambda", repr(LAM), "--out", inst), 0),
                CliCase("solve", ("solve", "--in", inst, "--out", sol), 0),
                CliCase("decode", ("decode", "--in", inst, "--sol", sol), 0 if inp.yes else 3, inp),
            ])
        fuzz_seed = int(rng.integers(2**31))
        for j, fam in enumerate(fams):
            spec = str(self.workdir / f"{fam}.json")
            q = QS[j % len(QS)]
            units.append([
                CliCase("penalty_check", ("penalty", "check", "--spec", spec), 0),
                CliCase("penalty_fuzz", ("penalty", "fuzz", "--spec", spec, "--trials", "10000",
                                         "--seed", str(fuzz_seed)), 0),
                CliCase("gfun_analyze", ("gfun", "analyze", "--spec", spec, "--q", repr(q),
                                         "--lambda", repr(LAM)), 0, family=fam, q=q),
            ])
        if smoke:
            units = units[:2] + units[-1:]
        order = rng.permutation(len(units))
        self.cases = [c for i in order for c in units[i]]
        self.composition = {
            "units": len(units),
            "yes_cases": sum(1 for c in self.cases if c.inp is not None and c.inp.yes),
            "no_cases": sum(1 for c in self.cases if c.inp is not None and not c.inp.yes),
            "band_share": {"curated": 1.0},
            "verbs": sorted({c.verb for c in self.cases}),
        }

    def _write(self, name: str, obj) -> None:
        (self.workdir / name).write_text(json.dumps(obj))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
