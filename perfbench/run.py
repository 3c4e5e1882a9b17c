"""penlq benchmark: one closed-loop caller, four workloads, checked outputs.

    python3 perfbench/run.py --workload sweep-m2 --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs one pass of the same cases untraced and one traced, and
prints the per-module metrics.  The last stdout line is the result object;
the line before it holds the details (machine facts, input composition,
the raw failure and undecided counts).  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep-m2", "sweep-m3", "hybrid", "cli")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median
# Every case runs once per pass and its latency is the fastest of its passes:
# on a shared machine other tenants' load only ever adds time, often in
# bursts of about a second, so the same case measured seconds apart rarely
# meets it twice.  A `cli` pass is too long to repeat.
MIN_PASSES = {"sweep-m2": 2, "sweep-m3": 2, "hybrid": 3, "cli": 1}
# The reference each workload's latencies are rescaled by (speed.py).
REFERENCE = {"sweep-m2": "kernel", "sweep-m3": None, "hybrid": "kernel", "cli": "spawn"}
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
PER_BAND = {"sweep-m2": 4, "sweep-m3": 2}
PROCESS_START_SAMPLES = 5
CLI_VERBS = ("demo", "reduce_build", "solve", "decode", "penalty_check", "penalty_fuzz",
             "gfun_analyze")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, all checks on")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    """Import penlq, generate and label the seeded inputs, run one warm-up case."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads as wl

    session = None
    if args.workload.startswith("sweep"):
        m = 2 if args.workload == "sweep-m2" else 3
        per_band = 1 if args.smoke else PER_BAND[args.workload]
        cases, comp = wl.sweep_cases(np.random.default_rng(args.seed), m, per_band)
        warm = cases[0]
    elif args.workload == "hybrid":
        cases, comp = wl.hybrid_cases(args.seed, args.smoke)
        warm = wl.SolveCase(wl.DEMO, "mcp", 2.0, "hybrid", args.seed)
    else:
        session = wl.CliSession(args.seed, args.smoke)
        cases, comp = session.cases, session.composition
        warm = next(c for c in cases if c.verb == "demo")
    outcome = warm.verify(warm.timed(session)[1])
    return wl, cases, comp, session, outcome


def run_pass(cases, session, ref=None, tracer=None):
    """One closed-loop pass over the case list.  Returns the latencies (as
    measured, and rescaled by `ref` when given), the outcomes, and how many
    runs were on yes-instances."""
    raw, windows, outcomes, yes_attempted = [], [], [], 0
    if ref is not None:
        ref.sample()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = i
            root = tracer.open_span("case")
            tracer.paused = False
        start = time.perf_counter()
        dt, payload = case.timed(session)
        if tracer is not None:
            tracer.paused = True
            tracer.close_span(root)
        raw.append(dt)
        windows.append((start, time.perf_counter()))
        outcomes.append(case.verify(payload))
        yes_attempted += bool(getattr(case, "inp", None) is not None and case.inp.yes)
        if ref is not None and ref.due():
            ref.sample()
    if ref is None:
        return raw, raw, outcomes, yes_attempted
    if ref.samples[-1][0] < windows[-1][1]:
        ref.sample()
    scaled = [ref.scale(dt, t0, t1) for dt, (t0, t1) in zip(raw, windows)]
    return raw, scaled, outcomes, yes_attempted


def run_passes(cases, session, ref, seconds, passes):
    """At least `passes` passes, and more until `seconds` have elapsed."""
    raw, scaled, outcomes, yes_attempted = [], [], [], 0
    start = time.perf_counter()
    while len(raw) < passes or time.perf_counter() - start < seconds:
        r, s, o, y = run_pass(cases, session, ref)
        raw.append(r)
        scaled.append(s)
        outcomes += o
        yes_attempted += y
    return raw, scaled, outcomes, yes_attempted


def tail(latencies):
    """Highest ladder percentile with at least ten cases beyond it."""
    n = len(latencies)
    best = LADDER[0]
    for p in LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best, float(np.percentile(latencies, best))


def setup_probe(args) -> list[float]:
    """One set-up in a child process: [rescaled, as measured] seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--setup-probe"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def machine_facts(seed: int) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "penlq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "PENLQ_THREADS": os.environ.get("PENLQ_THREADS"),
    }


def best_latencies(per_pass):
    """Each case's fastest latency over the passes."""
    return [min(runs) for runs in zip(*per_pass)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timings(per_pass) -> dict:
    latencies = best_latencies(per_pass)
    pct, tail_s = tail(latencies)
    return {
        "cases_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "tail_percentile": pct,
    }


def end_to_end(raw, scaled, outcomes, yes_attempted, setup, ref, rss_kb):
    """setup holds (rescaled, as measured) set-up times."""
    runs = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    undecided = sum(o.undecided for o in outcomes)
    t = timings(scaled)
    metrics = {
        "setup_s": _metric(statistics.median(s for s, _ in setup), "s"),
        "cases_per_s": _metric(t["cases_per_s"], "1/s"),
        "latency_p50_ms": _metric(t["latency_p50_ms"], "ms"),
        "latency_tail_ms": _metric(t["latency_tail_ms"], "ms"),
        "passed_share": _metric(1.0 - failed / runs, "ratio"),
        "decided_share": _metric(1.0 - undecided / yes_attempted if yes_attempted else 1.0,
                                 "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }
    detail = {
        "tail_percentile": t["tail_percentile"],
        "passes": len(scaled),
        "cases_per_pass": len(scaled[0]),
        "failed_share": failed / runs,
        "undecided_share": undecided / yes_attempted if yes_attempted else 0.0,
        "undecided": undecided,
        "yes_attempted": yes_attempted,
        "setup_s_samples": [s for s, _ in setup],
        "unscaled_setup_s_samples": [r for _, r in setup],
    }
    if ref is not None:
        detail["unscaled"] = timings(raw)
        detail["reference_s"] = statistics.median(dt for _, dt in ref.samples)
    return metrics, detail


def per_layer(tracer, untraced_cps, traced_cps, process_start_ms):
    s = tracer.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)
    c = tracer.counters
    obj_calls, obj_ms = get("reduction.objective", "calls"), get("reduction.objective", "ms")
    descents = get("solver.local_descent", "calls")
    hybrid = c.get("solver.hybrid_solves", 0)
    ms, count = "ms", "count"
    metrics = {
        "penalties.analyze.calls": (get("penalties.analyze", "calls"), count),
        "penalties.analyze.ms": (get("penalties.analyze", "ms"), ms),
        "penalties.p_eval.calls": (get("penalties.p_eval", "calls"), count),
        "penalties.p_eval.elems": (int(c.get("penalties.p_eval.elems", 0)), count),
        "conditions.check_conditions.ms": (get("conditions.check_conditions", "ms"), ms),
        "conditions.fuzz_subadditivity.ms": (get("conditions.fuzz_subadditivity", "ms"), ms),
        "conditions.fuzz_concentration.ms": (get("conditions.fuzz_concentration", "ms"), ms),
        "conditions.classify_split.calls": (get("conditions.classify_split", "calls"), count),
        "gfun.full_analysis.calls": (get("gfun.full_analysis", "calls"), count),
        "gfun.full_analysis.ms": (get("gfun.full_analysis", "ms"), ms),
        "gfun.minimize_g.ms": (get("gfun.minimize_g", "ms"), ms),
        "gfun.g_eval.calls": (get("gfun.g_eval", "calls"), count),
        "reduction.build.calls": (get("reduction.build", "calls"), count),
        "reduction.build.self_ms": (get("reduction.build", "self_ms"), ms),
        "reduction.objective.calls": (obj_calls, count),
        "reduction.objective.ms": (obj_ms, ms),
        "reduction.objective.us_per_call": (obj_ms * 1e3 / obj_calls if obj_calls else 0.0, "us"),
        "solver.minimize_structured.ms": (get("solver.minimize_structured", "ms"), ms),
        "solver.assignments_explored": (int(c.get("solver.assignments_explored", 0)), count),
        "solver.local_descent.calls": (descents, count),
        "solver.local_descent.self_ms": (get("solver.local_descent", "self_ms"), ms),
        "solver.objective_calls_per_descent": (
            tracer.count_children("reduction.objective", "solver.local_descent") / descents
            if descents else 0.0, "ratio"),
        "solver.hybrid_improved_share": (
            c.get("solver.hybrid_improved", 0) / hybrid if hybrid else 0.0, "ratio"),
        "decode.decide.calls": (get("decode.decide", "calls"), count),
        "decode.decide.ms": (get("decode.decide", "ms"), ms),
        "decode.round_solution.calls": (get("decode.round_solution", "calls"), count),
        "serde.save_instance.ms": (get("serde.save_instance", "ms"), ms),
        "serde.load_instance.ms": (get("serde.load_instance", "ms"), ms),
        "serde.save_solution.ms": (get("serde.save_solution", "ms"), ms),
        "serde.bytes_written": (int(c.get("serde.bytes_written", 0)), "bytes"),
        "cli.process_start_ms": (process_start_ms, ms),
    }
    for verb in CLI_VERBS:
        metrics[f"cli.main.{verb}.ms"] = (get(f"cli.main.{verb}", "ms"), ms)
    metrics["trace.overhead_share"] = ((untraced_cps - traced_cps) / untraced_cps, "ratio")
    return {k: _metric(v, u) for k, (v, u) in metrics.items()}


def process_start_ms(session) -> float:
    samples = []
    for _ in range(PROCESS_START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import penlq"], cwd=session.workdir,
                       env=session.env, check=True, timeout=120)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/penlq/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a penlq checkout",
              file=sys.stderr)
        return 2

    wl, cases, comp, session, warm = setup(args)
    setup_raw = time.perf_counter() - T0
    start_ref = speed.Reference("spawn", session)
    for _ in range(2):
        start_ref.sample()
    setup_s = start_ref.scale(setup_raw, T0, T0 + setup_raw)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": [setup_s, setup_raw]}))
            return 0
        failures = [] if warm.ok else [f"warm-up: {warm.reason}"]
        if args.trace:
            if session is not None:
                session.in_process = True
            lat_u, _, out_u, _ = run_pass(cases, session)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                lat_t, _, out_t, _ = run_pass(cases, session, tracer=tracer)
            start_ms = process_start_ms(session) if session is not None else 0.0
            outcomes = out_u + out_t
            metrics = per_layer(tracer, len(lat_u) / sum(lat_u), len(lat_t) / sum(lat_t),
                                start_ms)
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(span_file)
            detail = {"spans": len(tracer.start), "span_file": str(span_file.relative_to(ROOT))}
        else:
            kind = REFERENCE[args.workload]
            ref = speed.Reference(kind, session) if kind else None
            raw, scaled, outcomes, yes_attempted = run_passes(
                cases, session, ref, args.seconds, MIN_PASSES[args.workload])
            who = resource.RUSAGE_CHILDREN if session is not None else resource.RUSAGE_SELF
            rss_kb = resource.getrusage(who).ru_maxrss
            probes = [setup_probe(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
            metrics, detail = end_to_end(raw, scaled, outcomes, yes_attempted,
                                         [(setup_s, setup_raw)] + probes, ref, rss_kb)
            if args.workload in ("hybrid", "cli"):
                by_label: dict[str, list[float]] = {}
                for case, dt in zip(cases, best_latencies(scaled)):
                    by_label.setdefault(case.label, []).append(dt * 1e3)
                detail["p50_ms_by_case"] = {k: statistics.median(v) for k, v in by_label.items()}
        if not wl.determinism_ok(args.seed):
            failures.append("two hybrid solves with one seed returned different x")
    finally:
        if session is not None:
            session.close()

    failed = sum(not o.ok for o in outcomes)
    failures += sorted({o.reason for o in outcomes if not o.ok})[:20]
    detail.update(workload=args.workload, composition=comp, machine=machine_facts(args.seed),
                  failures=failures)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
