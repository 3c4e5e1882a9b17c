"""Reference timings that put latencies on one machine speed.

The benchmark shares its machine with other tenants, and their load slows
code on it for anything from a second to longer than a whole run: on the
baseline machine, ``sweep-m2`` ran at 950 to 1,560 cases/s across runs of the
same code.  Taking each case's fastest pass (run.py) removes short bursts but
not load that covers the whole run.  So between cases the benchmark times a
fixed reference that touches no penlq code, and rescales each latency by
``nominal / reference``, where ``reference`` is the median of the samples
taken within WINDOW_S of the case.  A reported time is the time the case
takes when the reference takes its nominal time.

There are two references, and a workload uses the one its own slowdowns
follow (run.py, REFERENCE):

* ``kernel``: small matrix-vector products, numpy reductions, ``log1p`` and
  ``where`` on small arrays, and Python float arithmetic: the mix of penlq's
  objective and penalty evaluations.  It is timed with the garbage collector
  off, so that the heap the cases leave behind does not slow it.  In a
  2.5-minute test under heavy load, slices of hybrid objective calls (4
  families) and of sweep-m2 build-solve-decide, each timed between two
  kernel samples, had a spread (IQR / median) of 0.50 to 0.53; their ratio
  to the kernel had one of 0.06 to 0.08.  Over sets of ten runs it is not
  free: when load is light it adds noise of its own (sweep-m2 cases_per_s
  spread 0.11 rescaled against 0.04 to 0.07 as measured), but in a set that
  met heavy load, hybrid latency_p50_ms spread 0.28 as measured, above its
  bound, while rescaled sets stayed at or below 0.21.  ``sweep-m3`` is not
  rescaled: its enumeration is large vectorized integer work, run on two
  threads, and its ratio to the kernel spread more (0.35) than its raw time
  (0.15).
* ``spawn``: one ``python -c "import numpy"`` subprocess, most of penlq's own
  start-up.  It brackets every ``python -m penlq`` case, and two samples
  taken right after set-up rescale ``setup_s`` on every workload, since
  set-up is mostly importing numpy and penlq.  Over ten seeds it cut the
  spread of ``cli`` cases_per_s from 0.22 to 0.025.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = {"kernel": 0.002, "spawn": 0.12}
GAP_S = {"kernel": 0.1, "spawn": 0.0}  # sample at most this often
WINDOW_S = 1.0

_X = np.linspace(0.1, 2.0, 27)
_A = np.arange(20 * 27, dtype=float).reshape(20, 27) / 540.0


def kernel() -> float:
    s = 0.0
    for i in range(150):
        x = _X * (1.0 + i * 1e-3)
        r = _A @ x - 0.5
        s += float(np.sum(np.abs(r) ** 1.5))
        s += float(np.sum(np.log1p(x))) + float(np.sum(np.where(x > 1.0, 1.0, x)))
        s += math.sqrt(i + 1.0)
    return s


class Reference:
    """Samples of one reference; ``spawn`` runs in the cli session's
    directory and environment when there is one."""

    def __init__(self, kind: str, session=None):
        self.kind, self.session = kind, session
        self.nominal, self.gap = NOMINAL_S[kind], GAP_S[kind]
        self.samples: list[tuple[float, float]] = []  # (taken at, duration)

    def sample(self) -> None:
        t0 = time.perf_counter()
        if self.kind == "spawn":
            where = {} if self.session is None else {
                "cwd": self.session.workdir, "env": self.session.env}
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120,
                           **where)
            dt = time.perf_counter() - t0
        else:
            gc.disable()
            try:
                dt = float("inf")
                for _ in range(2):
                    t1 = time.perf_counter()
                    kernel()
                    dt = min(dt, time.perf_counter() - t1)
            finally:
                gc.enable()
        self.samples.append((t0, dt))

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= self.gap

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Rescale something that ran from start to end."""
        near = [dt for t, dt in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return seconds * self.nominal / statistics.median(near)
