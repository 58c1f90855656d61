import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import expm_characteristic
from fredholm_bvp import cli
from fredholm_bvp.cli import emit_json, main
from fredholm_bvp.document import document_problem, load_document

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"
ONE_POINT = str(SAMPLES / "one-point-first-order.json")
TWO_POINT = str(SAMPLES / "two-point-damped.json")
SPLITTING = str(SAMPLES / "splitting-family.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_well_posed_exit_zero(capsys):
    code, out, _ = run(capsys, "analyze", ONE_POINT, "--nodes", "201")
    assert code == 0
    assert "well posed: yes" in out


def test_analyze_machine_output_is_json(capsys):
    code, out, _ = run(capsys, "analyze", ONE_POINT, "--nodes", "201",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["report"]["well_posed"] is True
    assert doc["numerical_rank"] == 2


def test_analyze_not_well_posed_exit_two(tmp_path, capsys):
    raw = json.loads(Path(ONE_POINT).read_text())
    raw["boundary"]["conditions"] = 1
    for point in raw["boundary"]["points"]:
        point["matrix"] = [point["matrix"][0]]
    raw["rhs"]["c"] = [raw["rhs"]["c"][0]]
    path = tmp_path / "underdetermined.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "analyze", str(path), "--nodes", "201")
    assert code == 2
    assert "well posed: no" in out
    assert "underdetermined" in out


def test_solve_writes_report(tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve", TWO_POINT, "--nodes", "201",
                     "--format", "machine", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "solve"
    assert doc["residuals"]["equation_max"] < 1e-8
    assert len(doc["nodes"]) == 201
    assert len(doc["samples"]) == 4  # orders 0..n+r


def test_solve_not_well_posed_exit_two(tmp_path, capsys):
    raw = json.loads(Path(ONE_POINT).read_text())
    raw["boundary"]["points"][0]["matrix"] = [[0, 0], [0, 0]]
    raw["boundary"]["points"][1]["matrix"] = [[0, 0], [0, 0]]
    raw["boundary"]["points"][2]["matrix"] = [[0, 0], [0, 0]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "solve", str(path), "--nodes", "201")
    assert code == 2
    assert "not well posed" in err


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", SPLITTING, "--nodes", "201")
    assert code == 0
    assert "condition (0): pass" in out
    assert "semicontinuity: pass" in out
    assert "multipoint assumptions" in out
    assert "pass" in out


def test_family_machine_output(capsys):
    code, out, _ = run(capsys, "family", SPLITTING, "--nodes", "201",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["condition_0"] is True
    assert doc["semicontinuity"] == {"threshold": doc["epsilons"][0], "violations": [],
                                     "passed": True}
    assert list(doc).index("semicontinuity") == list(doc).index("solution_convergence") - 1
    assert doc["multipoint_assumptions"]["passed"] is True
    assert doc["solution_convergence"] is True


def test_family_eps_schedule_flag(capsys):
    code, out, _ = run(capsys, "family", SPLITTING, "--nodes", "201",
                       "--eps-schedule", "1e-2,1e-3", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilons"] == [1e-2, 1e-3]


def test_family_eps_schedule_keeps_series_tags(capsys):
    code, out, _ = run(capsys, "family", SPLITTING, "--nodes", "201",
                       "--eps-schedule", "1e-2,1e-4", "--format", "machine")
    assert code == 0
    alpha = json.loads(out)["multipoint_assumptions"]["tables"]["alpha"]["rows"]
    assert alpha["series 1"] == pytest.approx([1e-2, 1e-4])


def test_family_rows_use_series_numbers(capsys):
    code, out, _ = run(capsys, "family", SPLITTING, "--nodes", "201", "--format", "machine")
    assert code == 0
    tables = json.loads(out)["multipoint_assumptions"]["tables"]
    assert list(tables["alpha"]["rows"]) == ["series 1", "series 2"]
    assert list(tables["beta"]["rows"]) == ["series 1 order 0", "series 1 order 1",
                                            "series 2 order 0", "series 2 order 1"]
    assert tables["delta"] == {"kind": "vanish", "rows": {}, "passed": True}


def test_family_requires_family_section(capsys):
    code, _, err = run(capsys, "family", ONE_POINT)
    assert code == 1
    assert "family" in err


def test_family_division_by_zero_at_eps_is_an_error(tmp_path, capsys):
    doc = json.loads(Path(SPLITTING).read_text())
    doc["family"]["coefficients"] = [
        {"kind": "expression", "entries": [["1/eps", "0"], ["0", "0.3"]]}]
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "family", str(path), "--nodes", "201")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "eps=0.0" in err


def test_family_division_by_zero_in_t_names_entry_eps_and_t(tmp_path, capsys):
    doc = json.loads(Path(SPLITTING).read_text())
    doc["family"]["coefficients"] = [
        {"kind": "expression", "entries": [["1/(eps*t + eps)", "0"], ["0", "0.3"]]}]
    path = tmp_path / "divergent-in-t.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning would fail here
        code, _, err = run(capsys, "family", str(path), "--nodes", "201")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == ("error: $.family.coefficients[0].entries[0][0] (derivative order 0)"
                   " is not finite at eps=0.0, t=0.0\n")


@pytest.mark.parametrize("section, payload, kind", [
    ("coefficients", ["0.3", "0", "0", "1/eps"], "divides by zero at eps=0.0"),
    ("rhs", ["1", "1/(t - 0.5*eps - 0.5)"], "(derivative order 0) is not finite at eps=0.0, t=0.5"),
    ("kernel", ["1", "0", "0", "1/(eps*t)"], "(derivative order 0) is not finite at eps=0.0, t=0.0"),
], ids=["coefficient", "forcing", "kernel"])
def test_family_expression_errors_name_the_payload_path(tmp_path, capsys, section, payload, kind):
    doc = json.loads(Path(SPLITTING).read_text())
    doc["family"].pop("boundary")
    if section == "coefficients":
        doc["family"]["coefficients"] = [
            {"kind": "expression", "entries": [payload[:2], payload[2:]]}]
        path = "$.family.coefficients[0].entries[1][1]"
    elif section == "rhs":
        doc["family"]["rhs"] = {"f": {"kind": "expression", "entries": payload}, "c": [1, 1]}
        path = "$.family.rhs.f.entries[1]"
    else:
        doc["family"]["boundary"] = dict(doc["boundary"], integral={
            "kernel": {"kind": "expression", "entries": [payload[:2], payload[2:]]}})
        path = "$.family.boundary.integral.kernel.entries[1][1]"
    document = tmp_path / "divergent.json"
    document.write_text(json.dumps(doc))
    code, _, err = run(capsys, "family", str(document), "--nodes", "201")
    assert code == 1
    assert err == f"error: {path} {kind}\n"


BUILTIN_EXAMPLES = {
    "ex1": "one-point-first-order",
    "ex2": "multipoint-zero-coefficient",
    "ex3": "two-point-damped",
    "ex4": "two-point-oscillatory",
    "ex5": "canonical-first-order",
}


@pytest.mark.parametrize("name", list(BUILTIN_EXAMPLES))
def test_oracle_check_builtins(name, capsys):
    code, out, _ = run(capsys, "oracle-check", name, "--nodes", "501",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    example = BUILTIN_EXAMPLES[name]
    assert doc["example"] == example
    assert doc["relative_deviation"] <= 1e-6
    # the long name is the same builtin
    assert run(capsys, "oracle-check", example, "--nodes", "501", "--format", "machine")[1] == out


def test_oracle_check_on_document(capsys):
    code, out, _ = run(capsys, "oracle-check", ONE_POINT, "--nodes", "501",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["example"] == "constant-coefficient"
    assert doc["relative_deviation"] <= 1e-6


def interior_point_document():
    """Constant r = 3, m = 2, n = 1 problem, points inside [-0.5, 1] and a constant kernel."""
    rng = np.random.default_rng(19)

    def values(*shape):
        return np.round(rng.normal(size=shape) * 0.4, 3).tolist()

    points = [(-0.5, 0), (-0.1, 3), (0.3, 1), (0.55, 2), (0.8, 0), (1.0, 1)]
    return {
        "interval": {"a": -0.5, "b": 1.0},
        "orders": {"r": 3, "m": 2, "n": 1},
        "exponent": 2,
        "coefficients": [{"kind": "constant", "values": values(2, 2)} for _ in range(3)],
        "boundary": {
            "conditions": 6,
            "points": [{"t": t, "order": d, "matrix": values(6, 2)} for t, d in points],
            "integral": {"kernel": {"kind": "constant", "values": values(6, 2)}},
        },
    }


def test_oracle_check_on_interior_points_and_a_constant_kernel(tmp_path, capsys):
    path = tmp_path / "interior.json"
    path.write_text(json.dumps(interior_point_document()))
    code, out, err = run(capsys, "oracle-check", str(path), "--format", "machine")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["example"] == "constant-coefficient"
    closed = np.asarray(doc["closed_form"])
    closed = closed[..., 0] + 1j * closed[..., 1]
    reference = expm_characteristic(document_problem(load_document(str(path))))
    assert np.abs(closed - reference).max() <= 1e-12 * np.abs(reference).max()
    # the integral term's trapezoid rule leaves an O(h^2) deviation at 1001 nodes
    assert 1e-9 <= doc["relative_deviation"] <= 1e-5


@pytest.mark.parametrize("section, message", [
    ("coefficients", "coefficient A_1 varies with t"),
    ("kernel", "the integral kernel varies with t"),
])
def test_oracle_check_rejects_a_varying_coefficient_or_kernel(tmp_path, capsys, section, message):
    raw = interior_point_document()
    varying = {"kind": "expression", "entries": [["t", "0"], ["0", "1"]]}
    if section == "coefficients":
        raw["coefficients"][1] = varying
    else:
        raw["boundary"]["integral"]["kernel"] = {
            "kind": "expression", "entries": [["t", "0"]] + [["0", "1"]] * 5}
    path = tmp_path / "varying.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "oracle-check", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_oracle_check_reports_an_overflowing_exponential(tmp_path, capsys):
    # exp(1000) at the point b overflows before any integration runs
    raw = json.loads(Path(ONE_POINT).read_text())
    raw["coefficients"][0]["values"] = [[-1000, 0], [0, 0]]
    raw["boundary"]["points"] = [dict(raw["boundary"]["points"][0], t=1.0)]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "oracle-check", str(path))
    assert (code, out, err) == (1, "", "error: matrix exponential overflowed during squaring\n")


def test_solve_without_rhs_exit_one(tmp_path, capsys):
    raw = json.loads(Path(ONE_POINT).read_text())
    del raw["rhs"]
    path = tmp_path / "no-rhs.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "solve", str(path), "--nodes", "201")
    assert code == 1
    assert "right-hand side" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.json")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1


def test_unknown_command_exit_one(capsys):
    code, _, err = run(capsys, "frobnicate", ONE_POINT)
    assert code == 1


def test_machine_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "analyze", ONE_POINT, "--nodes", "201",
                      "--format", "machine")
    _, second, _ = run(capsys, "analyze", ONE_POINT, "--nodes", "201",
                       "--format", "machine")
    assert first == second
    _, third, _ = run(capsys, "family", SPLITTING, "--nodes", "201",
                      "--format", "machine")
    _, fourth, _ = run(capsys, "family", SPLITTING, "--nodes", "201",
                       "--format", "machine")
    assert third == fourth


def test_emit_json_float_formatting():
    text = emit_json({"x": 0.1, "y": [1.0, float("inf")], "flag": True, "none": None})
    assert "0.10000000000000001" in text
    assert '"inf"' in text
    assert "true" in text
    assert "null" in text
    parsed = json.loads(text)
    assert parsed["x"] == 0.1


def nested_lists(array: np.ndarray):
    """The form reports used to be built in: floats, complex as [re, im]."""
    if array.ndim > 0:
        return [nested_lists(sub) for sub in array]
    if np.iscomplexobj(array):
        z = array.item()
        return [float(z.real), float(z.imag)]
    return float(array)


SPECIAL = [0.1, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324, -2.5, 1 / 3]


@pytest.mark.parametrize("shape", [(), (0,), (4,), (3, 0), (0, 2), (2, 3), (0, 2, 2), (2, 2, 3)])
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
def test_emit_json_encodes_arrays_as_nested_lists(shape, complex_valued):
    # the entries (real and imaginary parts) cycle through SPECIAL
    values = np.resize(np.roll(SPECIAL, len(shape)), (2, *shape))
    array = values[0, ...]  # a 0-d array, not a scalar, when shape is ()
    if complex_valued:  # set the parts directly: 1j * inf would put a nan in the real part
        array = np.empty(shape, dtype=complex)
        array.real, array.imag = values
    assert emit_json(array) == emit_json(nested_lists(array))
    assert emit_json({"x": [array]}, 1) == emit_json({"x": [nested_lists(array)]}, 1)


FINITE = [0.1, -0.0, 0.0, 1e300, 5e-324, -2.5, 1 / 3, -1e-300]
SHAPES = [(), (0,), (4,), (3, 0), (0, 2), (2, 3), (0, 2, 2), (2, 2, 3), (4, 7, 2), (3, 1, 5)]


def _finite_array(shape, complex_valued):
    values = np.resize(np.roll(FINITE, len(shape)), (2, *shape))
    if not complex_valued:
        return values[0]
    array = np.empty(shape, dtype=complex)  # 1j * -0.0 would lose the sign
    array.real, array.imag = values
    return array


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
def test_emit_json_writes_finite_arrays_as_nested_lists(shape, complex_valued):
    array = _finite_array(shape, complex_valued)
    assert np.isfinite(array).all()
    assert emit_json(array) == emit_json(nested_lists(array))
    assert emit_json({"x": [array]}, 1) == emit_json({"x": [nested_lists(array)]}, 1)


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
def test_emit_json_one_nan_among_finite_values(complex_valued):
    array = _finite_array((4, 7, 2), complex_valued)
    array[2, 3, 1] = np.nan
    text = emit_json(array)
    assert text == emit_json(nested_lists(array))
    assert text.count("null") == 1
    assert emit_json({"x": [array]}, 1) == emit_json({"x": [nested_lists(array)]}, 1)


def _as_nested_lists(obj):
    """A report document with every array and complex value in list form."""
    if isinstance(obj, (np.ndarray, complex)):
        return nested_lists(np.asarray(obj))
    if isinstance(obj, dict):
        return {k: _as_nested_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_nested_lists(v) for v in obj]
    return obj


REPORT_COMMANDS = (
    [(command, doc, "201") for doc in (ONE_POINT, TWO_POINT, SPLITTING)
     for command in ("analyze", "solve")]
    + [("oracle-check", doc, "201") for doc in (ONE_POINT, TWO_POINT)]
    + [("family", SPLITTING, "201")]
    + [("oracle-check", name, "201") for name in ("ex1", "ex2", "ex3", "ex4", "ex5")]
    + [("solve", TWO_POINT, "20001")]
)


@pytest.mark.parametrize("command, document, nodes", REPORT_COMMANDS,
                         ids=lambda value: Path(value).stem)
def test_machine_report_equals_nested_list_encoding(monkeypatch, capsys, command, document,
                                                    nodes):
    encode = cli.emit_json
    reports = []

    def checked(obj, indent=0):
        text = encode(obj, indent)
        if indent == 0:  # the handler's call, not a recursive one
            expected = encode(_as_nested_lists(obj)).splitlines()
            # compare line by line: pytest's diff of two whole reports takes minutes
            for number, (line, want) in enumerate(zip(text.splitlines(), expected)):
                assert line == want, f"report line {number}"
            assert text.count("\n") + 1 == len(expected)
            reports.append(text)
        return text

    monkeypatch.setattr(cli, "emit_json", checked)
    code, out, err = run(capsys, command, document, "--nodes", nodes, "--format", "machine")
    assert code == 0, err
    assert reports == [out.rstrip("\n")]
    json.loads(out)


def test_emit_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        emit_json({"x": object()})


def test_solve_at_twenty_thousand_nodes(capsys):
    code, out, err = run(capsys, "solve", TWO_POINT, "--nodes", "20001")
    assert code == 0, err
    assert "20001" in out


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_rank_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, tolerance):
    # every boundary matrix zero: the characteristic matrix is exactly 0
    raw = json.loads(Path(TWO_POINT).read_text())
    for point in raw["boundary"]["points"]:
        point["matrix"] = [[0, 0]] * 4
    path = tmp_path / "zero-boundary.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "analyze", str(path), "--nodes", "201",
                         "--rank-tol", tolerance)
    assert code == 1
    assert out == ""
    assert "rank tolerance must be finite and non-negative" in err
    code, out, _ = run(capsys, "analyze", str(path), "--nodes", "201", "--rank-tol", "0")
    assert code == 2
    assert "numerical rank: 0" in out


def test_family_eps_schedule_nan_exit_one(capsys):
    code, _, err = run(capsys, "family", SPLITTING, "--nodes", "201", "--eps-schedule", "nan")
    assert code == 1
    assert "finite and positive" in err


def test_import_loads_no_scipy():
    code = "import sys, fredholm_bvp, fredholm_bvp.cli; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["analyze"]) == 1
        assert main(["analyze", ONE_POINT, "--nodes", "51"]) == 0
        assert main(["oracle-check", "ex1", "--nodes", "51", "--format", "machine"]) == 0
    finally:
        cli._parser.cache_clear()  # later calls build a parser without the counter
    assert builds == [1]


def test_repeated_commands_in_one_process_match_fresh_processes(capsys):
    # one process serves every command, as the benchmark calls it: the one
    # parser keeps no state from a call, and neither does anything else
    commands = [
        ["family"],
        ["family", SPLITTING, "--nodes", "101", "--format", "machine", "--eps-schedule", "1e-2,1e-4"],
        ["family", SPLITTING, "--nodes", "101", "--format", "machine"],
        ["solve", TWO_POINT, "--nodes", "101", "--format", "machine"],
        ["analyze", ONE_POINT, "--nodes", "101", "--format", "machine"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = [run(capsys, *argv) for argv in commands]
    for argv, result in zip(commands, results):
        fresh = subprocess.run([sys.executable, "-m", "fredholm_bvp.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr)
    # the usage error exits 1 with one error line
    code, _, err = results[0]
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
