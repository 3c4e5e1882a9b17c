import json
import time
from pathlib import Path

import pytest

from penlq import ReductionInvariantError, cli, conditions, decode, gfun, serde


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mcp_file(tmp_path):
    path = tmp_path / "mcp.json"
    path.write_text('{"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}')
    return str(path)


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text('{"family": "linear", "params": {"k": 1.0}}')
    return str(path)


@pytest.fixture()
def tp_file(tmp_path):
    path = tmp_path / "tp.json"
    path.write_text('{"m": 2, "b": [1, 2, 3, 1, 2, 3]}')
    return str(path)


def test_penalty_check_accepts_mcp(capsys, mcp_file):
    code, out, _ = run(capsys, "penalty", "check", "--spec", mcp_file, "--grid", "1000")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True and report["family"] == "mcp"


def test_penalty_check_rejects_linear(capsys, linear_file):
    code, out, _ = run(capsys, "penalty", "check", "--spec", linear_file)
    assert code == 2
    assert json.loads(out)["c1"] == 0.0


def test_penalty_fuzz(capsys, mcp_file):
    code, out, _ = run(capsys, "penalty", "fuzz", "--spec", mcp_file, "--trials", "500",
                       "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["subadditivity_violations"] == 0
    assert report["concentration_counterexamples"] == 0


def _refuse_fuzzing(*args, **kwargs):
    raise AssertionError("fuzzed a rejected penalty")


def test_penalty_fuzz_rejects_linear(capsys, monkeypatch, linear_file):
    # the rejection comes before any fuzzing
    monkeypatch.setattr("penlq.conditions.fuzz_subadditivity", _refuse_fuzzing)
    code, _, err = run(capsys, "penalty", "fuzz", "--spec", linear_file, "--trials", "10")
    assert code == 2 and "condition violation" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_penalty_fuzz_requires_positive_trials(capsys, mcp_file, trials):
    code, out, err = run(capsys, "penalty", "fuzz", "--spec", mcp_file, "--trials", trials)
    assert code == 1 and out == "" and "trials must be an integer >= 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [(("check", "--grid"), "grid_n must be at most 1000000"),
     (("fuzz", "--trials"), "trials must be at most 1000000")],
)
def test_penalty_sizes_above_the_cap_are_usage_errors(capsys, mcp_file, argv, message):
    code, out, err = run(capsys, "penalty", argv[0], "--spec", mcp_file, argv[1], "1000001")
    assert code == 1 and out == "" and message in err and "Traceback" not in err


def test_gfun_analyze_contract_keys(capsys, mcp_file):
    code, out, _ = run(capsys, "gfun", "analyze", "--spec", mcp_file, "--q", "2",
                       "--lambda", "1")
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "theta", "mu", "tau_hat", "t_star", "h", "delta_bar", "theta_lower", "mu_lower",
    ]
    assert record["theta"] == 1.0 and record["mu"] == 196.0
    assert abs(record["t_star"] - 273.4 / 393) < 1e-8


def test_gfun_analyze_byte_reproducible(capsys, mcp_file):
    _, out1, _ = run(capsys, "gfun", "analyze", "--spec", mcp_file, "--q", "2", "--lambda", "1")
    _, out2, _ = run(capsys, "gfun", "analyze", "--spec", mcp_file, "--q", "2", "--lambda", "1")
    assert out1 == out2


def test_full_pipeline_yes(capsys, tmp_path, mcp_file):
    for b, rows, sums in (([1, 2, 3, 1, 2, 3], 13, [6, 6]),
                          ([4, 5, 6, 5, 5, 5, 6, 4, 5], 20, [15, 15, 15])):
        tp = tmp_path / "tp.json"
        tp.write_text(json.dumps({"m": len(b) // 3, "b": b}))
        inst = str(tmp_path / "inst.json")
        sol = str(tmp_path / "sol.json")
        code, out, _ = run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
                           "--q", "2", "--lambda", "1", "--out", inst)
        assert code == 0
        assert json.loads(out)["rows"] == rows

        code, out, _ = run(capsys, "solve", "--in", inst, "--out", sol)
        assert code == 0
        assert json.loads(out)["gap"] <= 1e-9

        code, out, _ = run(capsys, "decode", "--in", inst, "--sol", sol)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["verdict"] == "yes" and verdict["sums"] == sums


def test_full_pipeline_no_instance(capsys, tmp_path, mcp_file):
    for b in ([3, 3, 3, 3, 3, 5], [2, 2, 2, 4, 4, 4, 6, 6, 15]):
        inst = _build_instance(capsys, tmp_path, mcp_file, b)
        sol = str(tmp_path / "sol.json")
        assert run(capsys, "solve", "--in", str(inst), "--out", sol)[0] == 0
        code, out, err = run(capsys, "decode", "--in", str(inst), "--sol", sol)
        assert (code, err) == (3, "")
        assert json.loads(out)["verdict"] == "unknown"


def test_certify(capsys, monkeypatch, tmp_path, mcp_file, tp_file):
    inst = str(tmp_path / "inst.json")
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", inst)
    checks = []  # the partition is checked once per certify, by encode_certificate
    checked_subsets = decode._checked_subsets
    monkeypatch.setattr(decode, "_checked_subsets",
                        lambda *args: checks.append(args) or checked_subsets(*args))
    code, out, _ = run(capsys, "certify", "--in", inst, "--partition", "[[1,2,3],[4,5,6]]")
    assert code == 0 and len(checks) == 1
    report = json.loads(out)
    assert report["optimal"] is True and report["gap"] <= 1e-9

    code, out, _ = run(capsys, "certify", "--in", inst, "--partition", "[[1,2,4],[3,5,6]]")
    assert code == 3 and len(checks) == 2
    assert json.loads(out)["optimal"] is False


def test_malformed_tp_is_usage_error(capsys, tmp_path, mcp_file):
    tp = tmp_path / "bad.json"
    tp.write_text('{"m": 2, "b": [1, 2, 3, 1, 2, 4]}')  # sum not divisible by m
    code, _, err = run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
                       "--q", "2", "--lambda", "1", "--out", str(tmp_path / "x.json"))
    assert code == 1 and "divisible" in err


_NON_INTEGER_TPS = {  # input -> the error it gets, stated by ThreePartitionInstance alone
    '{"m": 2, "b": [1.5, 2, 3, 1, 2, 3.7]}': "b must be an iterable of integers",
    '{"m": 2, "b": [true, true, 1, 1, 1, 1]}': "b must be an iterable of integers",
    '{"m": 2.9, "b": [1, 2, 3, 1, 2, 3]}': "m must be an integer >= 1, got 2.9",
    '{"m": 2, "b": 5}': "b must be an iterable of integers",
    '{"m": 2, "b": "123456"}': "b must be an iterable of integers",
}


@pytest.mark.parametrize("tp", _NON_INTEGER_TPS)
def test_non_integer_tp_is_usage_error(capsys, tmp_path, mcp_file, tp):
    path = tmp_path / "bad.json"
    path.write_text(tp)
    out_file = tmp_path / "x.json"
    code, out, err = run(capsys, "reduce", "build", "--in", str(path), "--spec", mcp_file,
                         "--q", "2", "--lambda", "1", "--out", str(out_file))
    assert code == 1 and out == "" and f"penlq: error: {_NON_INTEGER_TPS[tp]}" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flag, value", [("--lambda", "inf"), ("--q", "nan")])
def test_out_of_range_numbers_are_usage_errors(capsys, mcp_file, flag, value):
    args = {"--q": "2", "--lambda": "1", flag: value}
    code, out, err = run(capsys, "gfun", "analyze", "--spec", mcp_file,
                         *[word for pair in args.items() for word in pair])
    assert code == 1 and out == "" and "penlq: error" in err
    assert "Traceback" not in err and "NaN to integer" not in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and err


def _planted_items(m):
    """Items 1e5..1e6 in m triples (3j + 1, 3j + 2, 3j + 3) that each sum to 1,400,000."""
    return [v for j in range(m) for v in (100000 + 7 * j, 300000 + 5 * j, 1000000 - 12 * j)]


def _build_instance(capsys, tmp_path, spec_file, b):
    """``reduce build`` of items b at q = 2, lambda = 1; returns the instance path."""
    tp, inst = tmp_path / "tp.json", tmp_path / "inst.json"
    tp.write_text(json.dumps({"m": len(b) // 3, "b": b}))
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", spec_file, "--q", "2",
               "--lambda", "1", "--out", str(inst))[0] == 0
    return inst


def _refuse_building(*args, **kwargs):
    raise AssertionError("built an instance that the size guard refuses")


def test_size_guard_exit_code(capsys, tmp_path, monkeypatch, mcp_file):
    # the guard reads m and n from the file's tp: solve refuses before any build
    for b in ([1] * 12, _planted_items(100)):
        m, n = len(b) // 3, len(b)
        inst, sol = _build_instance(capsys, tmp_path, mcp_file, b), tmp_path / "s.json"
        with monkeypatch.context() as patch:
            patch.setattr("penlq.serde.build", _refuse_building)
            code, out, err = run(capsys, "solve", "--in", str(inst), "--out", str(sol))
        assert code == 5 and out == "" and "size guard" in err and "Traceback" not in err
        assert f"m**n = {m}**{n} assignments" in err
        assert not sol.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 156. GiB for an array with shape (6999, 3000000)")


def test_memory_error_is_a_size_guard_exit(capsys, tmp_path, monkeypatch, mcp_file):
    # at m = 1000 numpy cannot allocate the dense A; fake it rather than ask for 156 GiB
    inst, tp = _build_instance(capsys, tmp_path, mcp_file, [1] * 6), tmp_path / "tp.json"
    sol, out_file = tmp_path / "s.json", tmp_path / "out.json"
    sol.write_text(json.dumps({"x": [0.0] * 12}))
    monkeypatch.setattr("penlq.cli.build", _out_of_memory)
    monkeypatch.setattr("penlq.serde.build", _out_of_memory)
    for argv in (("reduce", "build", "--in", str(tp), "--spec", mcp_file, "--q", "2",
                  "--lambda", "1", "--out", str(out_file)),
                 ("certify", "--in", str(inst), "--partition", "[[1, 2, 3], [4, 5, 6]]"),
                 ("decode", "--in", str(inst), "--sol", str(sol))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, ""), argv
        assert err.startswith("penlq: size guard: Unable to allocate 156. GiB")
        assert "Traceback" not in err
    assert not out_file.exists()


def test_planted_m100_round_trip(capsys, tmp_path, mcp_file):
    inst = _build_instance(capsys, tmp_path, mcp_file, _planted_items(100))
    assert inst.stat().st_size < 16384  # the file holds the recipe, not A
    partition = tmp_path / "part100.json"
    partition.write_text(json.dumps([[3 * j + 1, 3 * j + 2, 3 * j + 3] for j in range(100)]))
    code, out, err = run(capsys, "certify", "--in", str(inst), "--partition",
                         str(partition))  # a file name, not inline JSON
    assert (code, err) == (0, "") and _strict_loads(out)["optimal"] is True

    t_star = _strict_loads(inst.read_text())["meta"]["t_star"]
    x = [0.0] * (300 * 100)
    for i in range(300):
        x[i * 100 + i // 3] = t_star  # item i + 1 in subset i // 3 + 1
    sol = tmp_path / "sol100.json"
    sol.write_text(json.dumps({"x": x}))
    code, out, err = run(capsys, "decode", "--in", str(inst), "--sol", str(sol))
    assert (code, err) == (0, "") and _strict_loads(out)["verdict"] == "yes"


def test_demo(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "theta_lower = 1 " in out.replace("  ", " ") or "theta_lower" in out
    assert '"verdict": "yes"' in out
    for token in ("196", "0.69567430", "0.94132315", "0.00625", "3.90625"):
        assert token in out, f"missing {token} in demo output"


def test_instance_file_round_trip(tmp_path, demo_instance):
    path = tmp_path / "inst.json"
    serde.save_instance(path, demo_instance)
    again = serde.load_instance(path)
    assert again.delta == demo_instance.delta
    assert again.epsilon == demo_instance.epsilon
    assert (again.problem.a_matrix == demo_instance.problem.a_matrix).all()


def test_instance_file_tamper_detection(tmp_path, demo_instance):
    path = tmp_path / "inst.json"
    serde.save_instance(path, demo_instance)
    data = json.loads(path.read_text())
    data["meta"]["mu_root"] *= 2.0
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"keys \['meta'\] differ"):
        serde.load_instance(path)


def test_dumps_shortest_round_trip():
    values = [0.00625, 3.90625e-05, 273.4 / 393, 0.9413231552162851, 1.0, -0.0]
    text = serde.dumps({"values": values})
    assert json.loads(text)["values"] == values
    assert "0.00625," in text and "-0.0]" in text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_non_finite(value):
    with pytest.raises(ValueError):
        serde.dumps({"x": [1.0, value]})


def _strict_loads(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_every_verb_writes_strict_json(capsys, tmp_path, mcp_file, linear_file, tp_file):
    inst, sol = str(tmp_path / "i.json"), str(tmp_path / "s.json")
    runs = [
        (0, "penalty", "check", "--spec", mcp_file, "--grid", "200"),
        (2, "penalty", "check", "--spec", linear_file, "--grid", "200"),
        (0, "penalty", "fuzz", "--spec", mcp_file, "--trials", "50"),
        (0, "gfun", "analyze", "--spec", mcp_file, "--q", "2", "--lambda", "1"),
        (0, "reduce", "build", "--in", tp_file, "--spec", mcp_file, "--q", "2",
         "--lambda", "1", "--out", inst),
        (0, "certify", "--in", inst, "--partition", "[[1,2,3],[4,5,6]]"),
        (0, "solve", "--in", inst, "--out", sol),
        (0, "decode", "--in", inst, "--sol", sol),
        (0, "demo"),
    ]
    for expected, *argv in runs:
        code, out, _ = run(capsys, *argv)
        assert code == expected, argv
        _strict_loads(out.splitlines()[-1])
    for path in (inst, sol):
        _strict_loads(Path(path).read_text())


_OVERFLOWING_INPUTS = {
    # (10**15)**30 alone passes 2**1023
    "mcp": ('{"family": "mcp", "params": {"gamma": 1.0, "b": 1.0}}', [10**15, 1, 1, 1, 1, 2]),
    # 30*log2(sum(b)) = 1019.5, but scad's t* = 1.55 > 1 lifts the bound past 1023
    "scad": ('{"family": "scad", "params": {"gamma": 1.0, "a": 3.0}}', [17 * 10**9, 1, 1, 1, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING_INPUTS))
def test_overflowing_instance_is_rejected_at_build(capsys, tmp_path, name):
    spec_text, b = _OVERFLOWING_INPUTS[name]
    spec, tp, inst = tmp_path / "spec.json", tmp_path / "tp.json", tmp_path / "inst.json"
    spec.write_text(spec_text)
    tp.write_text(json.dumps({"m": 2, "b": b}))
    code, out, err = run(capsys, "reduce", "build", "--in", str(tp), "--spec", str(spec),
                         "--q", "30", "--lambda", "1", "--out", str(inst))
    assert code == 1 and out == "" and "would overflow" in err and "Traceback" not in err
    assert not inst.exists()


def test_overflowing_solve_is_usage_error(capsys, tmp_path, mcp_file):
    # an instance file naming an input that build now rejects, as an older
    # build wrote it: loading rebuilds the instance, which refuses it
    tp = tmp_path / "tp.json"
    tp.write_text(json.dumps({"m": 2, "b": [1, 1, 1, 1, 1, 1]}))
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file, "--q", "30",
               "--lambda", "1", "--out", str(inst))[0] == 0
    data = json.loads(inst.read_text())
    data["tp"]["b"] = [10**15, 1, 1, 1, 1, 2]
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", "--in", str(inst), "--out", str(sol))
    assert code == 1 and out == "" and "would overflow" in err and "Traceback" not in err
    assert not sol.exists()


_REQUIRED_ARGS = {
    "solve": ["solve", "--in", "i.json", "--out", "out.json"],
    "gfun": ["gfun", "analyze", "--spec", "p.json", "--q", "2", "--lambda", "1"],
    "reduce": ["reduce", "build", "--in", "tp.json", "--spec", "p.json", "--q", "2",
               "--lambda", "1", "--out", "out.json"],
}


@pytest.mark.parametrize(
    "flag",
    [["solve", "--mode", "hybrid"], ["solve", "--restarts", "1"], ["solve", "--seed", "0"],
     ["gfun", "--grid-exp", "20"], ["reduce", "--grid-exp", "20"]],
)
def test_solve_has_no_hybrid_flags(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    verb, *extra = flag
    code, out, err = run(capsys, *_REQUIRED_ARGS[verb], *extra)
    assert code == 1 and out == "" and "unrecognized arguments" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


def test_solution_file_has_no_seed_and_reads_the_older_format(capsys, tmp_path, mcp_file,
                                                              tp_file):
    inst, sol = str(tmp_path / "inst.json"), tmp_path / "sol.json"
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file, "--q", "2",
        "--lambda", "1", "--out", inst)
    assert run(capsys, "solve", "--in", inst, "--out", str(sol))[0] == 0
    data = json.loads(sol.read_text())
    assert list(data) == ["x", "value", "gap", "assignments_explored"]
    sol.write_text(json.dumps({**data, "seed": 0}))  # as older versions wrote it
    code, out, _ = run(capsys, "decode", "--in", inst, "--sol", str(sol))
    assert code == 0 and json.loads(out)["verdict"] == "yes"


_BIG_MCP = {"gamma": 1e100, "b": 1.0}
_UNIT_MCP = {"gamma": 1.0, "b": 1.0}
_G_OVERFLOWS = "mcp: q = {}, lambda = {}: g overflows a float on [-2*tau, 3*tau]"
_OVERFLOWING_G = {  # id -> (verb, mcp params, q, lambda, message)
    # before the float rule for g: h = inf, then "not JSON compliant"
    "analyze-q3-tiny-lambda": ("gfun", _BIG_MCP, "3", "1e-100",
                               _G_OVERFLOWS.format(3.0, 1e-100)),
    "build-q3-tiny-lambda": ("reduce", _BIG_MCP, "3", "1e-100", _G_OVERFLOWS.format(3.0, 1e-100)),
    # before: g' overflowed to NaN, and t_star "must lie in (6e+99, 8e+99)"
    "analyze-q2-tiny-lambda": ("gfun", _BIG_MCP, "2", "1e-250",
                               _G_OVERFLOWS.format(2.0, 1e-250)),
    # before: exit 0, with numpy overflow warnings on stderr
    "build-q1-tiny-lambda": ("reduce", _BIG_MCP, "1", "1e-300", _G_OVERFLOWS.format(1.0, 1e-300)),
    # finite thresholds whose product mu_lower * theta is not
    "analyze-q300": ("gfun", _UNIT_MCP, "300", "1", _G_OVERFLOWS.format(300.0, 1.0)),
    # the q-th root of lambda * mu overflows the dyadic grid
    "analyze-q292-lambda1000": ("gfun", _UNIT_MCP, "292", "1000",
                                _G_OVERFLOWS.format(292.0, 1000.0)),
    # the shape thresholds themselves are not finite: refused on q alone
    "analyze-q1500": ("gfun", _UNIT_MCP, "1500", "1",
                      "q = 1500.0 too large: the shape thresholds are not finite"),
}


@pytest.mark.parametrize("verb, params, q, lam, message", _OVERFLOWING_G.values(),
                         ids=_OVERFLOWING_G)
def test_overflowing_g_is_usage_error(capsys, tmp_path, tp_file, verb, params, q, lam, message):
    # one message on stderr and nothing else: numpy warnings are errors here
    out_file = tmp_path / "inst.json"
    argv = {"gfun": ["gfun", "analyze"],
            "reduce": ["reduce", "build", "--in", tp_file, "--out", str(out_file)]}[verb]
    code, out, err = run(capsys, *argv, "--spec", _spec_file(tmp_path, "mcp", **params),
                         "--q", q, "--lambda", lam)
    assert (code, out, err) == (1, "", f"penlq: error: {message}\n")
    assert not out_file.exists()


def test_gfun_analyze_at_huge_lambda_terminates(capsys, mcp_file):
    # the coefficient roots lie beyond integer resolution on the dyadic grid
    gfun._full_analysis.cache_clear()  # time the analysis, not a cache hit
    start = time.perf_counter()
    code, out, err = run(capsys, "gfun", "analyze", "--spec", mcp_file, "--q", "2",
                         "--lambda", "1e60")
    assert time.perf_counter() - start < 60
    assert (code, err) == (0, "") and _strict_loads(out)["mu"] > 0


def test_written_files_are_byte_reproducible(capsys, tmp_path, mcp_file, tp_file):
    inst_a, inst_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    sol_a, sol_b = str(tmp_path / "sa.json"), str(tmp_path / "sb.json")
    for inst, sol in ((inst_a, sol_a), (inst_b, sol_b)):
        run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
            "--q", "2", "--lambda", "1", "--out", inst)
        run(capsys, "solve", "--in", inst, "--out", sol)
    assert Path(inst_a).read_bytes() == Path(inst_b).read_bytes()
    assert Path(sol_a).read_bytes() == Path(sol_b).read_bytes()


def test_tp_file_wrapped_form(capsys, tmp_path, mcp_file):
    tp = tmp_path / "wrapped.json"
    tp.write_text('{"tp": {"m": 2, "b": [1, 2, 3, 1, 2, 3]}, "q": 2, "lambda": 1.0}')
    code, out, _ = run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
                       "--q", "2", "--lambda", "1", "--out", str(tmp_path / "i.json"))
    assert code == 0 and json.loads(out)["cols"] == 12


def test_instance_meta_contract(tmp_path, demo_instance):
    path = tmp_path / "inst.json"
    serde.save_instance(path, demo_instance)
    data = json.loads(path.read_text())
    assert list(data) == ["lambda", "q", "meta", "tp", "penalty"]
    assert list(data["meta"]) == [
        "theta", "mu", "tau_hat", "theta_root", "mu_root", "t_star", "h", "delta", "epsilon",
        "bound",
    ]


@pytest.mark.parametrize(
    "x",
    [
        [float("nan")] + [0.0] * 11,
        [0.0] * 11 + [float("inf")],
        [0.0] * 11,
        [0.0] * 13,
        [[0.0] * 6, [0.0] * 6],
        [None] * 12,
        ["a"] * 12,
        ["0.5"] * 12,
        [True] * 12,
        [10**400] + [0.0] * 11,
    ],
)
def test_load_solution_matrix_rejects_bad_x(tmp_path, demo_instance, x):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"x": x}))  # json writes NaN/Infinity literals
    with pytest.raises(ValueError):
        serde.load_solution_matrix(path, demo_instance)


def test_load_solution_matrix_rejects_missing_x(tmp_path, demo_instance):
    path = tmp_path / "sol.json"
    path.write_text('[0, 0]')
    with pytest.raises(ValueError, match="'x'"):
        serde.load_solution_matrix(path, demo_instance)


@pytest.mark.parametrize(
    "x",
    [
        "[NaN, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
        "[0, 0, 0]",
        pytest.param(json.dumps(["0.5"] * 12), id="strings"),
        pytest.param(json.dumps([10**400] + [0] * 11), id="401-digit-integer"),
    ],
)
def test_decode_bad_solution_is_usage_error(capsys, tmp_path, mcp_file, tp_file, x):
    inst = str(tmp_path / "inst.json")
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", inst)
    sol = tmp_path / "sol.json"
    sol.write_text('{"x": ' + x + "}")
    code, out, err = run(capsys, "decode", "--in", inst, "--sol", str(sol))
    assert code == 1 and out == "" and "penlq: error" in err


def test_certify_rejects_unequal_partition_below_float_gap(capsys, tmp_path):
    # with gamma = 1e-6 the objective gap of the lopsided certificate is
    # ~2e-12, below any fixed tolerance; the verdict must come from the sums
    spec, tp = tmp_path / "mcp.json", tmp_path / "tp.json"
    spec.write_text('{"family": "mcp", "params": {"gamma": 1e-6, "b": 1.0}}')
    tp.write_text('{"m": 2, "b": [1, 2, 3, 1, 2, 5]}')
    inst = str(tmp_path / "inst.json")
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", str(spec),
               "--q", "2", "--lambda", "1", "--out", inst)[0] == 0
    code, out, _ = run(capsys, "certify", "--in", inst, "--partition", "[[1,2,3],[4,5,6]]")
    assert code == 3 and json.loads(out)["optimal"] is False


@pytest.mark.parametrize(
    "partition",
    ["[[1.9,2,3],[4,5,6]]", "[[true,2,3],[4,5,6]]", "[1,2]", "[[1,2,3],4]", "5"],
)
def test_certify_non_integer_indices_are_usage_errors(capsys, tmp_path, mcp_file, tp_file,
                                                       partition):
    inst = str(tmp_path / "inst.json")
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", inst)
    code, out, err = run(capsys, "certify", "--in", inst, "--partition", partition)
    assert code == 1 and out == "" and "penlq: error" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"family": "mcp", "params": [1, 2]}',
        '{"family": "mcp", "params": {"gamma": true, "b": 1.0}}',
        '{"family": "mcp", "params": {"gamma": 1.0, "b": "1.5"}}',
        pytest.param(
            '{"family": "mcp", "params": {"gamma": 1.0, "b": 1' + "0" * 400 + "}}",
            id="401-digit-b",
        ),
    ],
)
def test_malformed_penalty_params_are_usage_errors(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run(capsys, "penalty", "check", "--spec", str(path))
    assert code == 1 and out == "" and "penlq: error" in err


def test_sum_above_2_53_is_usage_error(capsys, tmp_path, mcp_file):
    tp = tmp_path / "big.json"
    tp.write_text(json.dumps({"m": 2, "b": [10**19] * 6}))
    out_file = tmp_path / "x.json"
    code, out, err = run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
                         "--q", "2", "--lambda", "1", "--out", str(out_file))
    assert code == 1 and out == "" and "2**53" in err
    assert not out_file.exists()


def test_invariant_violation_exit_code(capsys, tmp_path, monkeypatch, mcp_file, tp_file):
    inst, sol = str(tmp_path / "inst.json"), str(tmp_path / "sol.json")
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", inst)
    run(capsys, "solve", "--in", inst, "--out", sol)

    def broken(red, x):
        raise ReductionInvariantError("decoded to unequal subset sums")

    monkeypatch.setattr(cli.decode, "decide", broken)
    code, out, err = run(capsys, "decode", "--in", inst, "--sol", sol)
    assert code == 4 and out == "" and "invariant violation" in err


def test_decode_calls_a_float_tie_unknown(capsys, tmp_path, mcp_file):
    # subsets summing to B + 1 and B - 1 hold spikes t*B/(B+1) and t*B/(B-1):
    # both subset sums C_j are t*B, so F lands two ulps below the bound
    s = 10**9
    tp, inst, sol = tmp_path / "tp.json", str(tmp_path / "inst.json"), tmp_path / "sol.json"
    tp.write_text(json.dumps({"m": 2, "b": [s, s, s, s, s + 1, s - 1]}))
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
               "--q", "3", "--lambda", "1", "--out", inst)[0] == 0
    t_star = json.loads(Path(inst).read_text())["meta"]["t_star"]
    low, high = t_star * (3 * s) / (3 * s + 1), t_star * (3 * s) / (3 * s - 1)
    sol.write_text(json.dumps({"x": [low, 0, low, 0, 0, high, 0, high, low, 0, 0, high]}))
    code, out, err = run(capsys, "decode", "--in", inst, "--sol", str(sol))
    assert (code, err) == (3, "") and json.loads(out)["verdict"] == "unknown"


@pytest.mark.parametrize("scale", [10**11, 5 * 10**14])
def test_decode_reads_the_l0_closed_form_root_at_large_items(capsys, tmp_path, scale):
    # for l0 at q = 2, g' = 2*theta*t + 2*mu*(t - tau_hat) has the root
    # mu*tau_hat/(theta + mu), which does not depend on b: spikes there decode
    # at sum(b) = 1.2e12 and at 6e15, below build's 2**53 cap
    spec, sol = tmp_path / "l0.json", tmp_path / "sol.json"
    spec.write_text('{"family": "l0", "params": {}}')
    code, out, _ = run(capsys, "gfun", "analyze", "--spec", str(spec), "--q", "2",
                       "--lambda", "1")
    g = _strict_loads(out)
    t = g["mu"] * g["tau_hat"] / (g["theta"] + g["mu"])
    sol.write_text(json.dumps({"x": [t, 0.0] * 3 + [0.0, t] * 3}))
    inst = _build_instance(capsys, tmp_path, str(spec), [scale * v for v in (1, 2, 3, 1, 2, 3)])
    code, out, err = run(capsys, "decode", "--in", str(inst), "--sol", str(sol))
    assert (code, err) == (0, "") and _strict_loads(out)["verdict"] == "yes"


def _edit_meta(data):
    data["meta"]["delta"] *= 2


def _edit_theta_root(data):
    data["meta"]["theta_root"] += 1.0


def _extra_key(data):
    data["note"] = "edited"


def _null_q(data):
    data["q"] = None


def _huge_q(data):
    data["q"] = 10**400


def _string_tp(data):
    data["tp"] = "tp"


@pytest.mark.parametrize(
    "edit",
    [
        _edit_meta, _edit_theta_root, _extra_key, _null_q, _huge_q, _string_tp,
    ],
)
def test_edited_instance_file_is_usage_error(capsys, tmp_path, mcp_file, tp_file, edit):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", str(inst))
    data = json.loads(inst.read_text())
    edit(data)
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", "--in", str(inst), "--out", str(sol))
    assert code == 1 and out == "" and "penlq: error" in err
    assert not sol.exists()


def test_instance_file_with_a_grid_exp_key_is_usage_error(capsys, tmp_path, mcp_file, tp_file):
    # files written while the grid exponent was an option carry "grid_exp"
    inst, sol, again = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "again.json"
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", str(inst))
    assert run(capsys, "solve", "--in", str(inst), "--out", str(sol))[0] == 0
    data = json.loads(inst.read_text())
    inst.write_text(json.dumps({**data, "grid_exp": 20}))
    for argv in (["solve", "--in", str(inst), "--out", str(again)],
                 ["decode", "--in", str(inst), "--sol", str(sol)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "'grid_exp'" in err and "Traceback" not in err
    assert not again.exists()


def test_instance_file_that_stores_a_is_usage_error(capsys, tmp_path, mcp_file, tp_file,
                                                    demo_instance):
    # files written while A was stored carry rows, cols, A, target and
    # layout, and lack the two roots in meta
    inst, sol, again = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "again.json"
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", str(inst))
    assert run(capsys, "solve", "--in", str(inst), "--out", str(sol))[0] == 0
    data = json.loads(inst.read_text())
    del data["meta"]["theta_root"], data["meta"]["mu_root"]
    problem = demo_instance.problem
    data.update(rows=problem.rows, cols=problem.cols, A=problem.a_matrix.reshape(-1).tolist(),
                target=problem.target.tolist(),
                layout="row-major by item: column (i-1)*m + j holds x_ij (i, j 1-based)")
    inst.write_text(json.dumps(data))
    for argv in (["solve", "--in", str(inst), "--out", str(again)],
                 ["decode", "--in", str(inst), "--sol", str(sol)],
                 ["certify", "--in", str(inst), "--partition", "[[1, 2, 3], [4, 5, 6]]"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "keys ['A', 'cols', 'layout', 'meta', 'rows', 'target'] differ" in err
    assert not again.exists()


@pytest.mark.filterwarnings("error")
def test_decode_of_an_x_whose_objective_overflows_is_unknown_and_quiet(capsys, tmp_path,
                                                                       mcp_file, tp_file):
    # sums 9 and 3; F overflows a float, and decode warns of nothing
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", str(inst))
    t = 1e300
    sol.write_text(json.dumps({"x": [t, 0, t, 0, t, 0, 0, t, 0, t, t, 0]}))
    code, out, err = run(capsys, "decode", "--in", str(inst), "--sol", str(sol))
    assert (code, err) == (3, "") and json.loads(out)["verdict"] == "unknown"


@pytest.mark.parametrize("text", [
    "[1]", "null", '"tp"',
    # no penalty key: refused before the size guard, which m = 5 would trip
    pytest.param('{"tp": {"m": 5, "b": [' + ", ".join(["1"] * 15) + ']}, "q": 2, "lambda": 1}',
                 id="missing-penalty"),
])
def test_non_object_instance_file_is_usage_error(capsys, tmp_path, text):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(text)
    code, out, err = run(capsys, "solve", "--in", str(inst), "--out", str(sol))
    assert code == 1 and out == "" and "penlq: error" in err
    assert not sol.exists()


def test_certify_reads_a_long_inline_partition(capsys, tmp_path, mcp_file):
    # the inline JSON is longer than a file name may be; it must not be
    # taken for a path
    tp = tmp_path / "tp30.json"
    tp.write_text(json.dumps({"m": 30, "b": [1, 2, 3] * 30}))
    inst = str(tmp_path / "inst30.json")
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
               "--q", "2", "--lambda", "1", "--out", inst)[0] == 0
    partition = json.dumps([[3 * j + 1, 3 * j + 2, 3 * j + 3] for j in range(30)])
    assert len(partition) > 255
    code, out, err = run(capsys, "certify", "--in", inst, "--partition", partition)
    assert (code, err) == (0, "") and json.loads(out)["optimal"] is True


def _spec_file(tmp_path, family, **params):
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps({"family": family, "params": params}))
    return str(path)


def test_penalty_check_accepts_a_wide_scad(capsys, tmp_path):
    # rounding on values of about 1e4 leaves concavity gaps of about -1.8e-12
    spec = _spec_file(tmp_path, "scad", gamma=100.0, a=3.0)
    code, out, _ = run(capsys, "penalty", "check", "--spec", spec)
    assert code == 0 and json.loads(out)["concave_on_0_tau"] is True


_SMOOTH_SPECS = {
    "l0": {}, "bridge": {"p": 0.5}, "hard_threshold": {"gamma": 1.0},
    "scad": {"gamma": 1.0, "a": 3.0}, "mcp": {"gamma": 1.0, "b": 1.0},
    "mcp-b2": {"gamma": 1.0, "b": 2.0}, "piecewise_linear": {"k1": 2.0, "k2": 0.5, "a": 1.0},
    "fraction": {"gamma": 1.0}, "fraction-0.1": {"gamma": 0.1},
    "log": {"gamma": 1.0}, "log-10": {"gamma": 10.0},
}
_GRIDS = ("100", "150", "1000", "10000", "100000", "300000", "1000000")


@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("name", sorted(_SMOOTH_SPECS))
def test_penalty_check_keeps_smooth_bands_smooth_at_fine_grids(capsys, tmp_path, name, grid):
    # the band holds no kink of p, so it is smooth at every grid, the
    # coarse ones included
    spec = _spec_file(tmp_path, name.split("-")[0], **_SMOOTH_SPECS[name])
    code, out, err = run(capsys, "penalty", "check", "--spec", spec, "--grid", grid)
    assert (code, err) == (0, "") and json.loads(out)["smooth_near_tau"] is True


_KINKED_BANDS = {  # family -> (params, a band (tau, tau0, tau_hat) across p's kink at 1)
    "mcp": ({"gamma": 1.0, "b": 1.0}, (1.2, 0.9, 1.05)),  # p'' jumps from -1 to 0
    "scad": ({"gamma": 1.0, "a": 3.0}, (1.3, 0.7, 1.0)),  # from 0 to -1/2
    # p' drops by 1e-9 of itself
    "piecewise_linear": ({"k1": 1.0, "k2": 1 - 1e-9, "a": 1.0}, (1.2, 0.9, 1.05)),
}


@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("family", sorted(_KINKED_BANDS))
def test_penalty_check_fails_a_band_across_a_kink_at_every_grid(capsys, tmp_path, monkeypatch,
                                                                family, grid):
    params, kinked_band = _KINKED_BANDS[family]
    monkeypatch.setattr(conditions, "band", lambda spec: kinked_band)
    spec = _spec_file(tmp_path, family, **params)
    code, out, _ = run(capsys, "penalty", "check", "--spec", spec, "--grid", grid)
    assert code == 2 and json.loads(out)["smooth_near_tau"] is False
    assert conditions.check_conditions(serde.load_penalty(spec), int(grid)).smooth_witness == 1.0


def test_penalty_fuzz_finds_no_rounding_violations_on_a_wide_scad(capsys, tmp_path):
    spec = _spec_file(tmp_path, "scad", gamma=1000.0, a=3.0)
    code, out, _ = run(capsys, "penalty", "fuzz", "--spec", spec)
    assert code == 0 and json.loads(out)["subadditivity_violations"] == 0


def test_full_pipeline_yes_with_a_narrow_mcp(capsys, tmp_path):
    spec = _spec_file(tmp_path, "mcp", gamma=1e-13, b=1.0)
    inst, sol = _build_instance(capsys, tmp_path, spec, [1, 2, 3, 1, 2, 3]), tmp_path / "sol.json"
    assert run(capsys, "solve", "--in", str(inst), "--out", str(sol))[0] == 0
    code, out, _ = run(capsys, "decode", "--in", str(inst), "--sol", str(sol))
    assert code == 0 and json.loads(out)["verdict"] == "yes"


def test_gfun_analyze_at_a_breakpoint_of_1e_13(capsys, tmp_path):
    # the band point tau0 = 1.5e-13 sits 5e-14 from the kink, far outside a
    # slack relative to the kink
    spec = _spec_file(tmp_path, "piecewise_linear", k1=1.0, k2=0.0, a=1e-13)
    code, _, err = run(capsys, "gfun", "analyze", "--spec", spec, "--q", "1", "--lambda", "1")
    assert (code, err) == (0, "")


_SCALE_PARAMS = {
    "bridge": {"p": 0.5},
    "hard_threshold": {"gamma": 1.0},
    "scad": {"gamma": 1.0, "a": 3.0},
    "mcp": {"gamma": 1.0, "b": 1.0},
    "piecewise_linear": {"k1": 2.0, "k2": 0.5, "a": 1.0},
    "fraction": {"gamma": 1.0},
    "log": {"gamma": 1.0},
    "linear": {"k": 1.0},
}
_VERBS = {
    "check": ("penalty", "check"),
    "fuzz": ("penalty", "fuzz"),
    "analyze-q1": ("gfun", "analyze", "--q", "1", "--lambda", "1"),
    "analyze-q2": ("gfun", "analyze", "--q", "2", "--lambda", "1"),
    "build": ("reduce", "build", "--q", "2", "--lambda", "1"),
}


def _run_verb(capsys, tmp_path, tp_file, verb, family, params):
    argv = [*_VERBS[verb], "--spec", _spec_file(tmp_path, family, **params)]
    if verb == "build":
        argv += ["--in", tp_file, "--out", str(tmp_path / "inst.json")]
    return run(capsys, *argv)


def _one_changed(values):
    """(family, params, name) with one parameter set to each of ``values``."""
    return [(family, {**params, name: value}, name)
            for family, params in _SCALE_PARAMS.items() for name in params for value in values]


_EDGE_SPECS = _one_changed((1e-100, 1e100))  # the ends of the parameter range
# Outside the range.  Before the range rule each of these six ended, on some
# verb, in a traceback, an exit 0 with "ok": true and numpy overflow warnings,
# an exit 4, or exit codes that disagreed between verbs.
_NAMED_REFUSALS = {
    "hard_threshold(5e-324)": ("hard_threshold", {"gamma": 5e-324}, "gamma"),
    "mcp(5e-324, 1)": ("mcp", {"gamma": 5e-324, "b": 1.0}, "gamma"),
    "hard_threshold(1e-320)": ("hard_threshold", {"gamma": 1e-320}, "gamma"),
    "piecewise_linear(2, 0.5, 5e-324)": ("piecewise_linear", {"k1": 2.0, "k2": 0.5, "a": 5e-324},
                                         "a"),
    "piecewise_linear(1e308, 0.5, 1)": ("piecewise_linear", {"k1": 1e308, "k2": 0.5, "a": 1.0},
                                        "k1"),
    "log(1e308)": ("log", {"gamma": 1e308}, "gamma"),
}
_REFUSED_SPECS = {
    **_NAMED_REFUSALS,
    **{f"{family}-{name}={params[name]!r}": (family, params, name)
       for family, params, name in _one_changed((5e-324, 1e-320, 9e-101, 1.1e100, 1e300, 1e308))
       if (family, params, name) not in _NAMED_REFUSALS.values()},
}


@pytest.mark.parametrize("verb", sorted(_VERBS))
@pytest.mark.parametrize("family, params, name", _EDGE_SPECS,
                         ids=[f"{f}-{n}={p[n]!r}" for f, p, n in _EDGE_SPECS])
def test_extreme_parameters_exit_cleanly(capsys, tmp_path, tp_file, family, params, name, verb):
    # in range: a verdict or a q- or lambda-dependent refusal, and no numpy
    # warning (warnings are errors here)
    code, _, err = _run_verb(capsys, tmp_path, tp_file, verb, family, params)
    assert code in (0, 1, 2) and "Traceback" not in err


@pytest.mark.parametrize("verb", sorted(_VERBS))
@pytest.mark.parametrize("family, params, name", _REFUSED_SPECS.values(), ids=_REFUSED_SPECS)
def test_parameters_out_of_range_exit_1_on_every_verb(capsys, tmp_path, tp_file, family, params,
                                                      name, verb):
    code, out, err = _run_verb(capsys, tmp_path, tp_file, verb, family, params)
    assert (code, out) == (1, "")
    assert err == f"penlq: error: {family}: parameter {name}={params[name]!r} out of range\n"
