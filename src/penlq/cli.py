"""Command-line front end.

Exit codes: 0 success, 1 usage or malformed input, 2 penalty condition
violation, 3 unknown verdict (solution not provably decodable / certificate
not optimal), 4 reduction-invariant violation, 5 size guard or MemoryError.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import conditions, decode, gfun, serde, solver
from .errors import ConditionViolationError, PenlqError, ReductionInvariantError, SizeGuardError
from .penalties import mcp, spec_to_dict
from .reduction import ThreePartitionInstance, build, objective, optimal_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITION = 2
EXIT_UNKNOWN = 3
EXIT_INVARIANT = 4
EXIT_SIZE = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    print(serde.dumps(obj))


def _emit_verdict(partition) -> int:
    """Print the decode verdict for ``partition`` (None: unknown) and return its exit code."""
    if partition is None:
        _emit({"verdict": "unknown", "partition": None, "sums": None})
        return EXIT_UNKNOWN
    _emit({"verdict": "yes", "partition": [list(s) for s in partition.subsets],
           "sums": list(partition.subset_sums)})
    return EXIT_OK


def cmd_penalty_check(args) -> int:
    spec = serde.load_penalty(args.spec)
    report = conditions.check_conditions(spec, grid_n=args.grid)
    _emit(
        {
            "family": spec.family,
            "monotone": report.monotone_ok,
            "concave_on_0_tau": report.concave_ok,
            "not_linear": report.not_linear_ok,
            "c1": report.c1,
            "smooth_near_tau": report.smooth_ok,
            "grid_n": report.grid_n,
            "overall": report.overall,
        }
    )
    return EXIT_OK if report.overall else EXIT_CONDITION


def cmd_penalty_fuzz(args) -> int:
    spec = serde.load_penalty(args.spec)
    # first: it raises ConditionViolationError for a rejected penalty
    conc = conditions.fuzz_concentration(spec, trials=args.trials, seed=args.seed)
    sub = conditions.fuzz_subadditivity(spec, trials=args.trials, seed=args.seed)
    _emit(
        {
            "family": spec.family,
            "trials": args.trials,
            "seed": args.seed,
            "subadditivity_violations": sub.violations,
            "concentration_counterexamples": conc.violations,
            "concentration_hypothesis_fails": conc.hypothesis_fails,
            "concentration_concentrated": conc.concentrated,
            "ok": sub.ok and conc.ok,
        }
    )
    return EXIT_OK if sub.ok and conc.ok else EXIT_INVARIANT


def cmd_gfun_analyze(args) -> int:
    spec = serde.load_penalty(args.spec)
    _, params, ga = gfun.full_analysis(spec, q=args.q, lam=args.lam)
    _emit(
        {
            "theta": params.theta,
            "mu": params.mu,
            "tau_hat": params.tau_hat,
            "t_star": ga.t_star,
            "h": ga.h,
            "delta_bar": ga.delta_bar,
            "theta_lower": ga.theta_lower,
            "mu_lower": ga.mu_lower,
        }
    )
    return EXIT_OK


def cmd_reduce_build(args) -> int:
    tp = serde.load_tp(args.infile)
    spec = serde.load_penalty(args.spec)
    red = build(tp, spec, q=args.q, lam=args.lam)
    serde.save_instance(args.out, red)
    _emit(
        {
            "out": str(args.out),
            "rows": red.problem.rows,
            "cols": red.problem.cols,
            "delta": red.delta,
            "epsilon": red.epsilon,
            "bound": optimal_bound(red),
        }
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    red = serde.load_instance(args.infile)
    raw = args.partition  # isfile: False, not an error, for a name too long to be a path
    subsets = serde.read_json(raw) if os.path.isfile(raw) else serde.loads(raw, "--partition")
    cert = decode.encode_certificate(red, subsets)
    optimal = decode.decide(red, cert) is not None  # cert rounds back to subsets
    value = objective(red, cert)
    bound = optimal_bound(red)
    _emit({"objective": value, "bound": bound, "gap": value - bound, "optimal": optimal})
    return EXIT_OK if optimal else EXIT_UNKNOWN


def cmd_solve(args) -> int:
    data = serde.read_json(args.infile)
    tp = serde.instance_tp(data, args.infile)
    solver.require_desk_scale(tp.m, tp.n)  # before the build: it needs m and n alone
    red = serde.instance_from_dict(data, args.infile)
    result = solver.solve(red)
    serde.save_solution(args.out, result)
    _emit(
        {
            "out": str(args.out),
            "value": result.value,
            "gap": result.gap,
            "assignments_explored": result.assignments_explored,
        }
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    red = serde.load_instance(args.infile)
    x = serde.load_solution_matrix(args.sol, red)
    return _emit_verdict(decode.decide(red, x))


def cmd_demo(args) -> int:
    spec = mcp(gamma=1.0, b=1.0)
    tp = ThreePartitionInstance(m=2, b=(1, 2, 3, 1, 2, 3))
    q, lam = 2.0, 1.0
    red = build(tp, spec, q=q, lam=lam)
    an, gp, ga = red.analysis, red.gparams, red.ganalysis

    def line(name, value, formula):
        print(f"{name:<12}= {format(float(value), '.17g'):<22} {formula}")

    print(f"penalty {serde.dumps(spec_to_dict(spec))}, q = {q:g}, lambda = {lam:g}")
    print(f"items b = {list(tp.b)}, m = {tp.m}, B = {tp.target_sum}")
    line("tau", an.tau, "concavity horizon (family default)")
    line("tau0", an.tau0, "0.75*tau; p smooth on [tau0, tau]")
    line("tau_hat", an.tau_hat, "(tau0 + tau)/2")
    line("c1", an.c1, "(p(tau0/3) + p(2*tau0/3) - p(tau0)) / (tau0/3)")
    line("k_bound", an.k_bound, "max of -p'' on [tau0, tau]")
    line("theta_lower", ga.theta_lower, "(1 + k_bound)/(q*(q-1)*min(tau0^(q-2), tau^(q-2)))")
    line(
        "mu_lower",
        ga.mu_lower,
        "(p(tau_hat) + theta_lower*tau_hat^q + 1)/(theta_lower*|tau0 - tau_hat|^q)",
    )
    line("theta", gp.theta, "smallest dyadic-rooted coefficient >= theta_lower")
    line("mu", gp.mu, "smallest dyadic-rooted coefficient >= mu_lower*theta")
    line("t_star", ga.t_star, "argmin of g(t) = p(|t|) + theta*|t|^q + mu*|t - tau_hat|^q")
    line("h", ga.h, "g(t_star)")
    line("delta_bar", ga.delta_bar, "min(tau0/3, (t*-tau0)/2, (tau-t*)/2, 1, c1)")
    line("delta", red.delta, "min(tau0/(8*sum(b)), delta_bar)")
    line("epsilon", red.epsilon, "min(lambda*delta^2, (tau0/2)^q)")
    line("bound", optimal_bound(red), "n*lambda*h")

    cert_value = objective(red, decode.encode_certificate(red, [[1, 2, 3], [4, 5, 6]]))
    print(f"certificate objective = {cert_value:.17g} "
          f"(gap {cert_value - optimal_bound(red):.3g})")
    result = solver.solve(red)
    print(f"structured solve: value = {result.value:.17g}, gap = {result.gap:.3g}, "
          f"assignments = {result.assignments_explored}")
    return _emit_verdict(decode.decide(red, result.x))


def build_parser() -> _Parser:
    parser = _Parser(prog="penlq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    penalty = sub.add_parser("penalty", help="penalty condition checks and fuzzers")
    psub = penalty.add_subparsers(dest="subcommand", required=True)

    check = psub.add_parser("check", help="verify admissibility conditions on a grid")
    check.add_argument("--spec", required=True, help="penalty spec JSON file")
    check.add_argument("--grid", type=int, default=1000, help="grid points (default 1000)")
    check.set_defaults(func=cmd_penalty_check)

    fuzz = psub.add_parser("fuzz", help="randomized subadditivity/concentration checks")
    fuzz.add_argument("--spec", required=True)
    fuzz.add_argument("--trials", type=int, default=10_000)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.set_defaults(func=cmd_penalty_fuzz)

    gfun_p = sub.add_parser("gfun", help="surrogate-function analysis")
    gsub = gfun_p.add_subparsers(dest="subcommand", required=True)
    ganalyze = gsub.add_parser("analyze", help="coefficients, minimizer and radii as JSON")
    ganalyze.add_argument("--spec", required=True)
    ganalyze.add_argument("--q", type=float, required=True)
    ganalyze.add_argument("--lambda", dest="lam", type=float, required=True)
    ganalyze.set_defaults(func=cmd_gfun_analyze)

    reduce_p = sub.add_parser("reduce", help="build reduction instances")
    rsub = reduce_p.add_subparsers(dest="subcommand", required=True)
    rbuild = rsub.add_parser("build", help="materialize an instance from a 3-partition input")
    rbuild.add_argument("--in", dest="infile", required=True, help="3-partition JSON file")
    rbuild.add_argument("--spec", required=True)
    rbuild.add_argument("--q", type=float, required=True)
    rbuild.add_argument("--lambda", dest="lam", type=float, required=True)
    rbuild.add_argument("--out", required=True)
    rbuild.set_defaults(func=cmd_reduce_build)

    certify = sub.add_parser("certify", help="encode a partition and compare against the bound")
    certify.add_argument("--in", dest="infile", required=True, help="instance JSON file")
    certify.add_argument("--partition", required=True, help="JSON list of subsets, or a file")
    certify.set_defaults(func=cmd_certify)

    solve_p = sub.add_parser("solve", help="desk-scale exact/structured solve")
    solve_p.add_argument("--in", dest="infile", required=True)
    solve_p.add_argument("--out", required=True)
    solve_p.set_defaults(func=cmd_solve)

    decode_p = sub.add_parser("decode", help="decode a solution into a partition")
    decode_p.add_argument("--in", dest="infile", required=True)
    decode_p.add_argument("--sol", required=True, help="solution JSON file")
    decode_p.set_defaults(func=cmd_decode)

    demo = sub.add_parser("demo", help="run the worked mcp example end to end")
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help or usage error
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except ConditionViolationError as exc:
        print(f"penlq: condition violation: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (SizeGuardError, MemoryError) as exc:  # MemoryError: numpy could not allocate A
        print(f"penlq: size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ReductionInvariantError as exc:
        print(f"penlq: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PenlqError, ValueError, OSError) as exc:
        print(f"penlq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
