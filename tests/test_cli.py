import json

import pytest

from penlq import ReductionInvariantError, cli, serde


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


def test_penalty_fuzz_rejects_linear(capsys, linear_file):
    code, _, err = run(capsys, "penalty", "fuzz", "--spec", linear_file, "--trials", "10")
    assert code == 2 and "condition violation" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_penalty_fuzz_requires_positive_trials(capsys, mcp_file, trials):
    code, out, err = run(capsys, "penalty", "fuzz", "--spec", mcp_file, "--trials", trials)
    assert code == 1 and out == "" and "trials must be an integer >= 1" in err


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


def test_full_pipeline_yes(capsys, tmp_path, mcp_file, tp_file):
    inst = str(tmp_path / "inst.json")
    sol = str(tmp_path / "sol.json")
    code, out, _ = run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
                       "--q", "2", "--lambda", "1", "--out", inst)
    assert code == 0
    assert json.loads(out)["rows"] == 13

    code, out, _ = run(capsys, "solve", "--in", inst, "--mode", "structured", "--out", sol)
    assert code == 0
    assert json.loads(out)["gap"] <= 1e-9

    code, out, _ = run(capsys, "decode", "--in", inst, "--sol", sol)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "yes" and verdict["sums"] == [6, 6]


def test_full_pipeline_no_instance(capsys, tmp_path, mcp_file):
    tp = tmp_path / "tp_no.json"
    tp.write_text('{"m": 2, "b": [3, 3, 3, 3, 3, 5]}')
    inst = str(tmp_path / "inst.json")
    sol = str(tmp_path / "sol.json")
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
               "--q", "2", "--lambda", "1", "--out", inst)[0] == 0
    assert run(capsys, "solve", "--in", inst, "--mode", "hybrid", "--restarts", "1",
               "--seed", "0", "--out", sol)[0] == 0
    code, out, _ = run(capsys, "decode", "--in", inst, "--sol", sol)
    assert code == 3
    assert json.loads(out)["verdict"] == "unknown"


def test_certify(capsys, tmp_path, mcp_file, tp_file):
    inst = str(tmp_path / "inst.json")
    run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
        "--q", "2", "--lambda", "1", "--out", inst)
    code, out, _ = run(capsys, "certify", "--in", inst, "--partition", "[[1,2,3],[4,5,6]]")
    assert code == 0
    report = json.loads(out)
    assert report["optimal"] is True and report["gap"] <= 1e-9

    code, out, _ = run(capsys, "certify", "--in", inst, "--partition", "[[1,2,4],[3,5,6]]")
    assert code == 3
    assert json.loads(out)["optimal"] is False


def test_malformed_tp_is_usage_error(capsys, tmp_path, mcp_file):
    tp = tmp_path / "bad.json"
    tp.write_text('{"m": 2, "b": [1, 2, 3, 1, 2, 4]}')  # sum not divisible by m
    code, _, err = run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
                       "--q", "2", "--lambda", "1", "--out", str(tmp_path / "x.json"))
    assert code == 1 and "divisible" in err


@pytest.mark.parametrize(
    "tp",
    [
        '{"m": 2, "b": [1.5, 2, 3, 1, 2, 3.7]}',
        '{"m": 2, "b": [true, true, 1, 1, 1, 1]}',
        '{"m": 2.9, "b": [1, 2, 3, 1, 2, 3]}',
        '{"m": 2, "b": 5}',
    ],
)
def test_non_integer_tp_is_usage_error(capsys, tmp_path, mcp_file, tp):
    path = tmp_path / "bad.json"
    path.write_text(tp)
    out_file = tmp_path / "x.json"
    code, out, err = run(capsys, "reduce", "build", "--in", str(path), "--spec", mcp_file,
                         "--q", "2", "--lambda", "1", "--out", str(out_file))
    assert code == 1 and out == "" and "penlq: error" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "flag, value", [("--grid-exp", "2000"), ("--lambda", "inf"), ("--q", "nan")]
)
def test_out_of_range_numbers_are_usage_errors(capsys, mcp_file, flag, value):
    args = {"--q": "2", "--lambda": "1", "--grid-exp": "20", flag: value}
    code, out, err = run(capsys, "gfun", "analyze", "--spec", mcp_file,
                         *[word for pair in args.items() for word in pair])
    assert code == 1 and out == "" and "penlq: error" in err
    assert "Traceback" not in err and "NaN to integer" not in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and err


def test_size_guard_exit_code(capsys, tmp_path, mcp_file):
    tp = tmp_path / "big.json"
    tp.write_text(json.dumps({"m": 4, "b": [1] * 12}))
    inst = str(tmp_path / "inst.json")
    assert run(capsys, "reduce", "build", "--in", str(tp), "--spec", mcp_file,
               "--q", "2", "--lambda", "1", "--out", inst)[0] == 0
    code, _, err = run(capsys, "solve", "--in", inst, "--mode", "structured",
                       "--out", str(tmp_path / "s.json"))
    assert code == 5 and "size guard" in err


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
    data["A"][0] = 99.0
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="stored matrix"):
        serde.load_instance(path)


def test_dumps_17_digit_round_trip():
    values = [0.00625, 3.90625e-05, 273.4 / 393, 0.9413231552162851, 1.0, -0.0]
    text = serde.dumps({"values": values})
    assert json.loads(text)["values"] == values


def test_written_files_are_byte_reproducible(capsys, tmp_path, mcp_file, tp_file):
    inst_a, inst_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    sol_a, sol_b = str(tmp_path / "sa.json"), str(tmp_path / "sb.json")
    for inst, sol in ((inst_a, sol_a), (inst_b, sol_b)):
        run(capsys, "reduce", "build", "--in", tp_file, "--spec", mcp_file,
            "--q", "2", "--lambda", "1", "--out", inst)
        run(capsys, "solve", "--in", inst, "--mode", "hybrid", "--restarts", "2",
            "--seed", "5", "--out", sol)
    from pathlib import Path
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
    assert list(data["meta"]) == [
        "theta", "mu", "tau_hat", "t_star", "h", "delta", "epsilon", "bound",
    ]
    for key in ("rows", "cols", "A", "target", "lambda", "q", "tp", "penalty", "layout"):
        assert key in data


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


def _edit_meta(data):
    data["meta"]["delta"] *= 2


def _edit_target(data):
    data["target"][-1] += 1.0


def _drop_grid_exp(data):
    del data["grid_exp"]


def _fractional_grid_exp(data):
    data["grid_exp"] = 20.9


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
        _edit_meta, _edit_target, _drop_grid_exp, _fractional_grid_exp, _extra_key,
        _null_q, _huge_q, _string_tp,
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


@pytest.mark.parametrize("text", ["[1]", "null", '"tp"'])
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
