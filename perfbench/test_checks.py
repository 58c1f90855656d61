"""The benchmark's own test: its checks accept right results and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py
"""

import copy

import numpy as np
import pytest

import checks
import inputs
import reference as ref
import tracing

NODES = 1001


def _pairs(values):
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _analyze_report(model, expected, matrix):
    """An `analyze` machine report as the program would write it for ``matrix``."""
    q, size = matrix.shape
    _, sv, vh = np.linalg.svd(matrix)
    cutoff = sv[0] * max(q, size) * 1e-10
    rank = int(np.sum(sv > cutoff))
    return {
        "grid_nodes": NODES,
        "characteristic_matrix": _pairs(matrix),
        "singular_values": sv.tolist(),
        "rank_tolerance": cutoff,
        "numerical_rank": rank,
        "report": {k: expected[k] for k in ("index", "dim_kernel", "dim_cokernel", "well_posed")},
        "kernel_directions": [_pairs(vh[i].conj()) for i in range(rank, size)],
    }


@pytest.fixture(scope="module")
def singular():
    slot = inputs.Slot(2, 2, 1, "constant", "two", False, 0, 1, 0)
    model, _, expected = inputs.make_problem(np.random.default_rng(7), slot, NODES, False)
    matrix = ref.characteristic(model, NODES)
    return model, expected, matrix


def test_correct_analysis_passes(singular):
    model, expected, matrix = singular
    errors, deviation = checks.check_analyze(_analyze_report(model, expected, matrix),
                                             model, expected, NODES)
    assert errors == []
    assert deviation < 1e-12


def test_matrix_off_by_1e6_is_rejected(singular):
    model, expected, matrix = singular
    wrong = matrix.copy()
    wrong[0, 0] += 1e-6
    errors, _ = checks.check_analyze(_analyze_report(model, expected, wrong), model, expected, NODES)
    assert any("characteristic matrix" in e for e in errors)


def test_wrong_kernel_dimension_is_rejected(singular):
    model, expected, matrix = singular
    report = _analyze_report(model, expected, matrix)
    report["report"]["dim_kernel"] += 1
    report["report"]["dim_cokernel"] += 1
    errors, _ = checks.check_analyze(report, model, expected, NODES)
    assert any("dim_kernel" in e for e in errors)


def test_missing_kernel_direction_is_rejected(singular):
    model, expected, matrix = singular
    report = _analyze_report(model, expected, matrix)
    report["kernel_directions"] = []
    errors, _ = checks.check_analyze(report, model, expected, NODES)
    assert any("kernel directions" in e for e in errors)


def test_wrong_direction_with_inflated_rank_tolerance_is_rejected(singular):
    model, expected, matrix = singular
    report = _analyze_report(model, expected, matrix)
    _, sv, vh = np.linalg.svd(matrix)
    report["rank_tolerance"] = 1e6 * sv[0]  # rank unchanged, tolerance blown up
    report["kernel_directions"] = [_pairs(vh[0].conj())]  # |M v| = sigma_0
    errors, _ = checks.check_analyze(report, model, expected, NODES)
    assert any("kernel direction 0" in e for e in errors)


def _family_report(expected):
    verdicts = expected["verdicts"]
    alpha = {f"series {j}": [max(abs((tau + d * eps) - tau) for d in deltas)
                             for eps in expected["schedule"]]
             for j, (tau, deltas) in enumerate(zip(expected["limits"], expected["offsets"]), 1)}
    return {
        "epsilons": list(expected["schedule"]),
        "rows": [{} for _ in expected["schedule"]],
        "condition_0": True,
        "condition_I": {"passed": verdicts["condition_I"]},
        "condition_II": {"passed": verdicts["condition_II"]},
        "characteristic_convergence": {"passed": verdicts["characteristic"]},
        "solution_convergence": verdicts["solution"],
        "multipoint_assumptions": {"passed": verdicts["multipoint"],
                                   "tables": {"alpha": {"rows": alpha},
                                              "delta": {"passed": verdicts.get("delta", True)}}},
    }


def test_family_verdicts_as_built_pass_and_a_flipped_one_fails():
    slot = inputs.FAMILY_SLOTS[0]
    _, expected = inputs.family_document(np.random.default_rng(3), slot)
    report = _family_report(expected)
    assert checks.check_family(report, expected) == []
    flipped = copy.deepcopy(report)
    flipped["characteristic_convergence"]["passed"] = not report["characteristic_convergence"]["passed"]
    assert any("verdict characteristic" in e for e in checks.check_family(flipped, expected))


def test_self_time_subtracts_children():
    spans = [
        (-1, "op.analyze", 0.0, 10.0, None),
        (0, "ode.fundamental_set", 1.0, 5.0, None),
        (1, "functions.ConstantFunction.eval", 1.0, 2.0, None),
        (0, "ode.particular_solution", 6.0, 8.0, None),
    ]
    summary = tracing.summarize(spans)
    assert summary["self"]["ode"] == pytest.approx(3.0 + 2.0)
    assert summary["inclusive"]["ode"] == pytest.approx(6.0)
    assert summary["self"]["op"] == pytest.approx(4.0)
