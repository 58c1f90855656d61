import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from fredholm_bvp import boundary, document
from fredholm_bvp.cli import main
from fredholm_bvp.document import (
    DocumentError,
    document_family,
    document_problem,
    load_document,
)

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def minimal_document(**overrides):
    doc = {
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"r": 1, "m": 2, "n": 1},
        "exponent": 2,
        "coefficients": [
            {"kind": "constant", "values": [[0, 0], [0, 0]]}
        ],
        "boundary": {
            "conditions": 2,
            "points": [
                {"t": 0.0, "order": 0, "matrix": [[1, 0], [0, 1]]}
            ],
        },
        "rhs": {
            "f": {"kind": "constant", "values": [1, 0]},
            "c": [[1, 0], [0, 0]],
        },
    }
    doc.update(overrides)
    return doc


def test_load_minimal_document():
    doc = load_document(minimal_document())
    problem = document_problem(doc)
    assert (problem.r, problem.m, problem.n, problem.q) == (1, 2, 1, 2)
    assert problem.rhs is not None
    np.testing.assert_array_equal(problem.rhs.c, [1.0, 0.0])


def test_sample_files_load_and_build():
    for name in ("one-point-first-order.json", "two-point-damped.json",
                 "splitting-family.json"):
        doc = load_document(SAMPLES / name)
        problem = document_problem(doc)
        assert problem.q == problem.state_size


def test_exponent_inf():
    doc = load_document(minimal_document(exponent="inf"))
    assert document_problem(doc).exponent.is_infinite


def test_expression_coefficients():
    raw = minimal_document(coefficients=[
        {"kind": "expression",
         "entries": [["t^2", "sin(t)"], ["0", "exp(-t)"]]}
    ])
    problem = document_problem(load_document(raw))
    values = problem.coefficients.by_order[0].eval(np.array([0.5]))
    np.testing.assert_allclose(values[0], [[0.25, np.sin(0.5)], [0.0, np.exp(-0.5)]],
                               atol=1e-14)


def test_polynomial_alias():
    raw = minimal_document(coefficients=[
        {"kind": "polynomial", "entries": [["t", "0"], ["0", "t"]]}
    ])
    problem = document_problem(load_document(raw))
    values = problem.coefficients.by_order[0].eval(np.array([0.3]))
    np.testing.assert_allclose(values[0], 0.3 * np.eye(2), atol=1e-15)


def test_missing_field_path():
    raw = minimal_document()
    del raw["orders"]
    with pytest.raises(DocumentError, match="orders"):
        load_document(raw)


@pytest.mark.parametrize("section", ["coefficients", "boundary"])
def test_null_required_section_is_an_error_at_its_path(section):
    # null is not absence at the root: the section is required
    with pytest.raises(DocumentError, match=rf"^\$\.{section}: "):
        load_document(minimal_document(**{section: None}))


def test_wrong_coefficient_count():
    raw = minimal_document()
    raw["orders"]["r"] = 2
    with pytest.raises(DocumentError, match="coefficient"):
        load_document(raw)


def test_family_sections_are_checked_as_the_root_is():
    raw = minimal_document(family={"coefficients": minimal_document()["coefficients"] * 2})
    with pytest.raises(DocumentError, match=r"^\$\.family\.coefficients: expected 1 coefficient "
                       r"functions \(index d multiplies the order-d derivative\)"):
        load_document(raw)
    boundary = dict(minimal_document()["boundary"], conditions=1)
    boundary["points"] = [dict(boundary["points"][0], matrix=[[1, 0]])]
    with pytest.raises(DocumentError, match=r"^\$\.family\.boundary\.conditions: .*same"):
        load_document(minimal_document(family={"boundary": boundary}))


def test_bad_kind():
    raw = minimal_document(coefficients=[{"kind": "spline", "values": []}])
    with pytest.raises(DocumentError, match="kind"):
        load_document(raw)


def test_eps_outside_family_rejected():
    raw = minimal_document()
    raw["boundary"]["points"][0]["t"] = "eps"
    with pytest.raises(DocumentError, match="family"):
        load_document(raw)


def test_fractional_order_rejected():
    raw = minimal_document()
    raw["boundary"]["points"][0]["order"] = 0.5
    with pytest.raises(DocumentError, match="fractional"):
        load_document(raw)


def test_out_of_range_order_rejected():
    raw = minimal_document()
    raw["boundary"]["points"][0]["order"] = 2  # top order is n + r = 2
    with pytest.raises(DocumentError, match="range"):
        load_document(raw)


def test_bad_expression_reports_path():
    raw = minimal_document(coefficients=[
        {"kind": "expression", "entries": [["t +", "0"], ["0", "0"]]}
    ])
    with pytest.raises(DocumentError, match=r"coefficients\[0\]"):
        load_document(raw)


def test_complex_pairs():
    raw = minimal_document()
    raw["rhs"]["c"] = [[1.0, 2.0], [0.0, -1.0]]
    problem = document_problem(load_document(raw))
    np.testing.assert_array_equal(problem.rhs.c, [1.0 + 2.0j, -1.0j])


def test_bad_complex_pair():
    raw = minimal_document()
    raw["rhs"]["c"] = [[1.0, 2.0, 3.0], [0.0, 0.0]]
    with pytest.raises(DocumentError, match=r"\[re, im\]"):
        load_document(raw)


def test_family_building():
    doc = load_document(SAMPLES / "splitting-family.json")
    family = document_family(doc)
    zero = family.at(0.0)
    member = family.at(0.01)
    assert len(zero.boundary.point_terms) == 6
    assert len(member.boundary.point_terms) == 6
    points_zero = sorted({t.point for t in zero.boundary.point_terms})
    assert points_zero == [0.25, 0.75]
    points_member = sorted({t.point for t in member.boundary.point_terms})
    assert points_member == [0.24, 0.26, 0.74, 0.76]


def test_multipoint_extraction():
    doc = load_document(SAMPLES / "splitting-family.json")
    family = document_family(doc)
    assert family.series == (1, 1, 1, 1, 2, 2)
    assert 0 not in family.series  # two converging series, no zero series
    member = family.at(0.01)
    assert member.boundary.codomain == 2
    np.testing.assert_array_equal(member.rhs.c, [1.0, 1.0])


def test_multipoint_requires_tags():
    doc = load_document(minimal_document(family={"schedule": [0.1, 0.01]}))
    assert document_family(doc).series is None


def tagged_family_document(*series, points=(0.25, 0.25)):
    return minimal_document(family={"schedule": [0.1, 0.01], "boundary": {
        "conditions": 2,
        "points": [dict({"t": t, "order": 0, "matrix": [[0.5, 0], [0, 0.5]]},
                        **({} if tag is None else {"series": tag}))
                   for t, tag in zip(points, series)],
    }})


def test_series_tags_are_all_or_none():
    assert document_family(load_document(tagged_family_document(1, 1))).series == (1, 1)
    for series in ((1, None), (None, 1)):
        with pytest.raises(DocumentError, match="all or none") as err:
            load_document(tagged_family_document(*series))
        assert err.value.path == "$.family.boundary.points[1]"


def test_series_tags_belong_to_the_family_boundary():
    raw = minimal_document()
    raw["boundary"]["points"][0]["series"] = 1
    with pytest.raises(DocumentError, match="family boundary only") as err:
        load_document(raw)
    assert err.value.path == "$.boundary.points[0].series"


def test_converging_series_needs_a_common_limit_point():
    doc = load_document(tagged_family_document(1, 1, points=("0.25 + eps", "0.5 - eps")))
    with pytest.raises(DocumentError, match="share the eps = 0 limit") as err:
        document_family(doc)
    assert err.value.path == "$.family.boundary.points[1].t"
    # the zero series has no limit point to share
    assert document_family(load_document(
        tagged_family_document(0, 0, points=(0.25, 0.5)))).series == (0, 0)


def test_divergent_generator_rejected_at_limit():
    raw = minimal_document(family={
        "schedule": [0.1, 0.01],
        "rhs": {
            "f": {"kind": "constant", "values": [1, 0]},
            "c": ["1 / eps", [0, 0]],
        },
    })
    doc = load_document(raw)
    with pytest.raises(DocumentError, match="finite"):
        document_problem(doc, eps=0.0)


@pytest.mark.parametrize("family, eps, path", [
    ({"boundary": {"conditions": 2, "points": [
        {"t": "0.25 - 1/eps", "order": 0, "matrix": [[1, 0], [0, 1]]}]}},
     0.0, "$.family.boundary.points[0].t"),
    ({"boundary": {"conditions": 2, "points": [
        {"t": 0.25, "order": 0, "matrix": [[1, 0], [0, "1/eps"]]}]}},
     0.0, "$.family.boundary.points[0].matrix[1][1]"),
    ({"rhs": {"f": {"kind": "constant", "values": [1, 0]}, "c": [1, "1/eps"]}},
     0.0, "$.family.rhs.c[1]"),
    ({"boundary": {"conditions": 2, "points": [
        {"t": "0.25 - 100*eps", "order": 0, "matrix": [[1, 0], [0, 1]]}]}},
     1e-2, "$.family.boundary.points[0].t"),
    ({"boundary": {"conditions": 2, "points": [
        {"t": 0.25, "order": 0, "matrix": [[1, 0], [0, "(1e200/eps)^2"]]}]}},
     0.1, "$.family.boundary.points[0].matrix[1][1]"),
], ids=["location", "matrix", "rhs-c", "outside-interval", "overflow"])
def test_member_build_errors_name_the_slot(family, eps, path):
    doc = load_document(minimal_document(family={"schedule": [0.1, 0.01], **family}))
    with pytest.raises(DocumentError, match=rf"eps={eps}|outside the interval") as err:
        document_problem(doc, eps=eps)
    assert err.value.path == path


def test_complex_boundary_location_names_its_path():
    raw = minimal_document()
    raw["boundary"]["points"][0]["t"] = [0.25, 0.1]
    with pytest.raises(DocumentError, match="must be real") as err:
        document_problem(load_document(raw))
    assert err.value.path == "$.boundary.points[0].t"


def test_expression_entry_errors_name_the_entry():
    for entries, path, message in (
        ([["t", "0"], ["0"]], "$.coefficients[0].entries[1]", "expected a list of length 2"),
        ([["t", ["0"]], ["0", "t"]], "$.coefficients[0].entries[0][1]", "entries are strings"),
    ):
        raw = minimal_document(coefficients=[{"kind": "expression", "entries": entries}])
        with pytest.raises(DocumentError, match=message) as err:
            load_document(raw)
        assert err.value.path == path


def test_table_coefficient_must_span_interval():
    raw = minimal_document(coefficients=[
        {"kind": "table", "nodes": [0.0, 0.125, 0.25, 0.375, 0.5],
         "samples": [[[[0, 0], [0, 0]]] * 5]}
    ])
    doc = load_document(raw)
    with pytest.raises(DocumentError, match="span"):
        document_problem(doc)


def test_non_finite_scalar_rejected_with_path():
    # JSON parsing accepts the NaN and Infinity tokens; the document must not
    text = json.dumps(minimal_document())
    nan_coefficient = text.replace('"values": [[0, 0], [0, 0]]', '"values": [[0, NaN], [0, 0]]')
    with pytest.raises(DocumentError, match=r"\$\.coefficients\[0\]\.values\[0\]\[1\]: .*finite"):
        load_document(nan_coefficient)
    raw = minimal_document()
    raw["rhs"]["c"] = [[1.0, float("inf")], [0.0, 0.0]]
    with pytest.raises(DocumentError, match=r"\$\.rhs\.c\[0\]: .*finite"):
        load_document(json.dumps(raw))
    raw["rhs"]["c"] = [[1.0, 0.0], [10**400, 0.0]]
    with pytest.raises(DocumentError, match=r"\$\.rhs\.c\[1\]: .*range"):
        load_document(json.dumps(raw))


def test_non_finite_table_sample_rejected_with_path():
    raw = minimal_document(coefficients=[
        {"kind": "table", "nodes": [0.0, 0.25, 0.5, 0.75, 1.0],
         "samples": [[[[0, 0], [0, 0]]] * 2 + [[[0, 0], [0, float("-inf")]]] + [[[0, 0], [0, 0]]] * 2]}
    ])
    with pytest.raises(DocumentError,
                       match=r"\$\.coefficients\[0\]\.samples\[0\]\[2\]\[1\]\[1\]: .*finite"):
        load_document(json.dumps(raw))
    raw["coefficients"][0]["samples"][0][2][1][1] = 0
    raw["coefficients"][0]["nodes"][2] = float("nan")
    with pytest.raises(DocumentError, match=r"\$\.coefficients\[0\]\.nodes\[2\]: .*finite"):
        load_document(json.dumps(raw))
    for bad_node in ("0.5", True):
        raw["coefficients"][0]["nodes"][2] = bad_node
        with pytest.raises(DocumentError, match=r"\$\.coefficients\[0\]\.nodes: .*numbers"):
            load_document(json.dumps(raw))


@pytest.mark.parametrize("entry,message", [
    (None, "numbers"), ("0.1", "numbers"), (True, "numbers"),
    (float("nan"), "finite"), (float("inf"), "finite"),
])
def test_schedule_entry_rejected_with_path(entry, message):
    raw = minimal_document(family={"schedule": [0.5, entry]})
    with pytest.raises(DocumentError, match=rf"\$\.family\.schedule\[1\]: .*{message}"):
        load_document(json.dumps(raw))


@pytest.mark.parametrize("schedule", [[0.01, 0.1], [0.1, 0.1], [0.1, -0.01], [0]])
def test_schedule_order_rejected_with_path(schedule):
    with pytest.raises(DocumentError, match=r"\$\.family\.schedule: .*epsilon schedule"):
        load_document(minimal_document(family={"schedule": schedule}))


@pytest.mark.parametrize("field,value,path", [
    ("exponent", True, r"\$\.exponent"),
    ("exponent", "2", r"\$\.exponent"),
    ("exponent", "infinity", r"\$\.exponent"),
    ("exponent", None, r"\$\.exponent"),
    ("a", "0.0", r"\$\.interval\.a"),
    ("b", False, r"\$\.interval\.b"),
])
def test_non_number_endpoint_or_exponent_rejected_with_path(field, value, path):
    # only the string "inf" stands for a number, and only as the exponent
    raw = minimal_document()
    if field == "exponent":
        raw["exponent"] = value
    else:
        raw["interval"][field] = value
    with pytest.raises(DocumentError, match=rf"^{path}: .*not numbers"):
        load_document(raw)


def test_non_finite_exponent_rejected_with_path():
    text = json.dumps(minimal_document(exponent=2)).replace('"exponent": 2', '"exponent": Infinity')
    with pytest.raises(DocumentError, match=r"^\$\.exponent: .*finite"):
        load_document(text)


@pytest.mark.parametrize("order", [True, "0", "x", None, float("nan"), [0]])
def test_non_integer_point_order_rejected_with_path(order):
    raw = minimal_document()
    raw["boundary"]["points"][0]["order"] = order
    with pytest.raises(DocumentError, match=r"^\$\.boundary\.points\[0\]\.order: expected an integer"):
        load_document(json.dumps(raw))


def test_integral_valued_float_order_still_loads():
    raw = minimal_document()
    raw["boundary"]["points"][0]["order"] = 0.0
    assert load_document(raw).boundary.orders.tolist() == [0]


def one_point_document():
    return json.loads((SAMPLES / "one-point-first-order.json").read_text())


def table(nodes, value):
    """A table payload holding ``value`` at every node, order 0 only."""
    return {"kind": "table", "nodes": nodes, "samples": [[value] * len(nodes)]}


A0 = [[[0.4, 0.1], [-0.3, 0.0]], [[0.2, 0.0], [0.1, -0.2]]]  # the sample's coefficient


def _bool_in_c(raw):
    raw["rhs"]["c"][0] = [True, 0]


def _bool_in_coefficient(raw):
    raw["coefficients"][0]["values"][1][0] = [0.2, False]


def _bool_in_point_matrix(raw):
    raw["boundary"]["points"][1]["matrix"][0][0] = [True, 0]


def _bool_in_table_sample(raw):
    raw["coefficients"][0] = table([0.0, 0.25, 0.5, 0.75, 1.0], A0)
    raw["coefficients"][0]["samples"][0][1] = [[[0.4, 0.1], [True, 0.0]], A0[1]]


@pytest.mark.parametrize("mutate,path", [
    (_bool_in_c, r"\$\.rhs\.c\[0\]"),
    (_bool_in_coefficient, r"\$\.coefficients\[0\]\.values\[1\]\[0\]"),
    (_bool_in_point_matrix, r"\$\.boundary\.points\[1\]\.matrix\[0\]\[0\]"),
    (_bool_in_table_sample, r"\$\.coefficients\[0\]\.samples\[0\]\[1\]\[0\]\[1\]"),
], ids=["rhs.c", "coefficient", "point-matrix", "table-samples"])
def test_boolean_in_complex_pair_rejected_with_path(mutate, path):
    # a JSON boolean is a Python int: [true, 0] must not load as 1
    raw = one_point_document()
    mutate(raw)
    with pytest.raises(DocumentError, match=rf"^{path}: .*\[re, im\] pairs"):
        load_document(json.dumps(raw))


KERNEL = [[[0.1, 0], [0, 0]], [[0, 0], [0.1, 0]]]
F_VALUE = [[1.0, 0], [0.5, 0]]


def _rhs_table(nodes):
    def mutate(raw):
        raw["rhs"]["f"] = table(nodes, F_VALUE)
    return mutate


def _kernel_table(raw):
    raw["boundary"]["integral"] = {"kernel": table([0.0, 0.25, 0.5, 0.75], KERNEL)}


def _family_coefficient_table(raw):
    raw["family"] = {"schedule": [0.1, 0.01], "coefficients": [table([0.0, 0.125, 0.25, 0.375, 0.5], A0)]}


def _family_rhs_table(raw):
    raw["family"] = {"schedule": [0.1, 0.01],
                     "rhs": {"f": table([0.0, 0.5, 1.0, 1.5, 2.0], F_VALUE), "c": raw["rhs"]["c"]}}


def _family_kernel_table(raw):
    boundary = dict(raw["boundary"], integral={"kernel": table([-1.0, -0.5, 0.0, 0.5, 1.0], KERNEL)})
    raw["family"] = {"schedule": [0.1, 0.01], "boundary": boundary}


@pytest.mark.parametrize("mutate,path", [
    (_rhs_table([0.0, 0.125, 0.25, 0.375, 0.5]), r"\$\.rhs\.f"),
    (_rhs_table([-1.0, 0.0, 1.0, 2.0]), r"\$\.rhs\.f"),
    (_kernel_table, r"\$\.boundary\.integral\.kernel"),
    (_family_coefficient_table, r"\$\.family\.coefficients\[0\]"),
    (_family_rhs_table, r"\$\.family\.rhs\.f"),
    (_family_kernel_table, r"\$\.family\.boundary\.integral\.kernel"),
], ids=["rhs.f-short", "rhs.f-wide", "kernel", "family-coefficient", "family-rhs.f", "family-kernel"])
def test_every_table_must_span_interval(mutate, path):
    raw = one_point_document()
    mutate(raw)
    doc = load_document(raw)
    build = document_family if doc.family is not None else document_problem
    with pytest.raises(DocumentError, match=rf"^{path}: table nodes must span the problem interval"):
        build(doc)


def test_spanning_tables_still_build():
    raw = one_point_document()
    _rhs_table([0.0, 0.25, 0.5, 0.75, 1.0])(raw)
    raw["boundary"]["integral"] = {"kernel": table([0.0, 0.25, 0.5, 0.75, 1.0], KERNEL)}
    problem = document_problem(load_document(raw))
    np.testing.assert_allclose(problem.rhs.f.eval(np.array([0.3])), [[1.0, 0.5]])


FOUR = [0.0, 1 / 3, 2 / 3, 1.0]


def _family_four_node_tables(raw):
    raw["family"] = {"coefficients": [table(FOUR, A0)]}


@pytest.mark.parametrize("mutate,path", [
    (lambda raw: raw["coefficients"].__setitem__(0, table(FOUR, A0)), r"\$\.coefficients\[0\]"),
    (_rhs_table(FOUR), r"\$\.rhs\.f"),
    (_family_four_node_tables, r"\$\.family\.coefficients\[0\]"),
], ids=["coefficient", "rhs.f", "family-coefficient"])
def test_four_node_tables_must_supply_every_order_up_to_n(mutate, path):
    # n = 2: orders the table lacks would be differenced, which needs five nodes
    raw = one_point_document()
    mutate(raw)
    doc = load_document(raw)
    build = document_family if doc.family is not None else document_problem
    with pytest.raises(DocumentError, match=rf"^{path}\.nodes: a table of 4 nodes must supply "
                                            r"the orders 0\.\.2"):
        build(doc)


def test_four_node_tables_with_every_order_and_four_node_kernels_build(tmp_path, capsys):
    raw = one_point_document()
    raw["coefficients"][0] = dict(table(FOUR, A0), samples=[[A0] * 4, [A0] * 4, [A0] * 4])
    raw["boundary"]["integral"] = {"kernel": table(FOUR, KERNEL)}
    doc = tmp_path / "four.json"
    doc.write_text(json.dumps(raw))
    assert main(["analyze", str(doc)]) == 0
    # the sample with n = 1 and an order-0 table: one error line naming the table's nodes
    raw = json.loads((SAMPLES / "two-point-damped.json").read_text())
    raw["coefficients"][0] = table(FOUR, [[0, 0], [0, 0]])
    doc.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["solve", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: $.coefficients[0].nodes: a table of 4 nodes")


def test_table_nodes_checked_at_parse_time():
    # the table's grid is built once, when the document is read
    raw = one_point_document()
    _rhs_table([0.0, 0.25, 0.5, 0.75, 1.0])(raw)
    doc = load_document(raw)
    assert doc.rhs.f.grid.count == 5
    problem = document_problem(doc)
    assert problem.rhs.f.grid is doc.rhs.f.grid


@pytest.mark.parametrize("nodes,message", [
    ([0.0, 0.1, 1.0, 1.5], "not a uniform grid: grid must be uniform"),
    ([0.0, 0.1, 0.5, 1.0], "not a uniform grid: grid must be uniform"),
    ([0.0, 0.5, 0.25, 1.0], "not a uniform grid: grid nodes must be strictly increasing"),
    ([1.0, 0.75, 0.5, 0.25, 0.0], r"not a uniform grid: interval requires a < b"),
    ([0.0, 1.0], "at least four numbers"),
    ([0.0, 0.5, 1.0], "at least four numbers"),
], ids=["non-uniform-wide", "non-uniform", "unsorted", "decreasing", "two-nodes", "three-nodes"])
def test_bad_table_nodes_rejected_with_path(nodes, message):
    raw = one_point_document()
    _rhs_table(nodes)(raw)
    with pytest.raises(DocumentError, match=rf"^\$\.rhs\.f\.nodes: table nodes .*{message}"):
        load_document(raw)
    family = one_point_document()
    family["family"] = {"schedule": [0.1, 0.01], "coefficients": [table(nodes, A0)]}
    with pytest.raises(DocumentError, match=rf"^\$\.family\.coefficients\[0\]\.nodes: .*{message}"):
        load_document(family)


# ---------------------------------------------------------------------------
# number payloads: one conversion, the same arrays and errors as the walk


def _reference_walk(raw, path, shape, eps_ok):
    """The walk that read every nested payload slot by slot, kept as the reference."""
    out = np.empty(shape, dtype=object)

    def walk(item, path, index):
        if len(index) == len(shape):
            out[index] = document._parse_scalar_slot(item, path, eps_ok)
            return
        length = shape[len(index)]
        if not isinstance(item, list) or len(item) != length:
            raise DocumentError(f"expected a list of length {length}", path)
        for i, sub in enumerate(item):
            walk(sub, f"{path}[{i}]", (*index, i))

    walk(raw, path, ())
    return out


def _outcome(read):
    try:
        return read()
    except DocumentError as err:
        return str(err)


def _same_slots(found, expected) -> bool:
    """Numbers bit for bit, signed zeros included, and expression trees equal."""
    if isinstance(found, str) or isinstance(expected, str):
        return isinstance(found, str) and found == expected
    if found.shape != expected.shape:
        return False
    for a, b in zip(found.ravel().tolist(), expected.ravel().tolist()):
        if isinstance(a, complex) and isinstance(b, complex):
            if np.array([a]).view(np.uint64).tolist() != np.array([b]).view(np.uint64).tolist():
                return False
        elif a != b:
            return False
    return True


def _slots_as_objects(slots) -> np.ndarray:
    out = slots.values.astype(object)
    flat = out.reshape(-1)
    for i, tree in slots.expressions:
        flat[i] = tree
    return out


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 2**53 + 1, -(2**53) - 1, 2**63, -(2**63) - 1, 2**64 + 1,
                     10**308, -(10**308)]),
)
# leaves that no payload of numbers may hold
BAD = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**309, -(2**1100)]),
    st.booleans(), st.none(),
    st.sampled_from(["eps", "0.5*eps", "1 + eps^2", "t", "1/", "1.5", "x"]),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.just("re"), NUMBERS, max_size=1),
)


@st.composite
def payloads(draw):
    """A declared shape and a nested payload: mostly numbers or pairs, sometimes
    bad leaves, ragged lists or a payload of another shape than declared."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    built = list(shape)
    if draw(st.integers(0, 4)) == 0:  # a payload of another shape than declared
        built[draw(st.integers(0, len(built) - 1))] += draw(st.sampled_from([-1, 1]))
    kind = draw(st.sampled_from(["real", "pair", "mixed"]))
    bad_rate = draw(st.sampled_from([0, 0, 3, 20]))

    def leaf():
        if bad_rate and draw(st.integers(0, bad_rate)) == 0:
            return draw(BAD)
        pair = kind == "pair" or (kind == "mixed" and draw(st.booleans()))
        return [draw(NUMBERS), draw(NUMBERS)] if pair else draw(NUMBERS)

    def build(depth):
        if depth == len(built):
            return leaf()
        items = [build(depth + 1) for _ in range(max(built[depth], 0))]
        if draw(st.integers(0, 30)) == 0:  # ragged
            items = items[:-1] if items and draw(st.booleans()) else items + [build(depth + 1)]
        return items

    return shape, build(0)


@settings(max_examples=400, deadline=None)
@given(payloads())
@example(((2,), [1.0, True]))  # numpy reads true as 1.0
@example(((2,), [1.0, None]))  # and null as NaN
@example(((2,), [1.0, "2.5"]))  # and a numeric string as a number
@example(((2,), [[1.0, 0], [2, False]]))
@example(((2,), [1.0, 10**309]))  # numpy raises OverflowError
@example(((2,), [1.0, float("nan")]))
@example(((2,), [[1.0, float("-inf")], [2, 0]]))
@example(((2, 1), [[[-0.0, -0.0]], [[0.0, -0.0]]]))  # re + 1j*im loses -0.0
@example(((2,), [2**53 + 1, -(2**64) - 1]))
@example(((2,), [1.0, [2.0]]))  # ragged
@example(((3,), [1.0, 2.0]))  # shorter than declared
def test_number_payloads_read_as_the_walk_reads_them(case):
    shape, raw = case
    expected = _outcome(lambda: _reference_walk(raw, "$.x", shape, eps_ok=False))
    found = _outcome(lambda: document._parse_numbers(raw, "$.x", shape).astype(object))
    assert _same_slots(found, expected), (found, expected)
    # a slot array, where eps expressions are allowed as well
    expected = _outcome(lambda: _reference_walk(raw, "$.x", shape, eps_ok=True))
    found = _outcome(lambda: _slots_as_objects(document._parse_slot_array(raw, "$.x", shape, True)))
    assert _same_slots(found, expected), (found, expected)


def test_fast_path_keeps_signed_zeros_and_rounds_big_integers():
    raw = [[-0.0, -0.0], [0.0, -0.0], [2**53 + 1, 0], [2**64 + 1, -(2**63) - 3]]
    values = document._parse_numbers(raw, "$.x", (4,))
    assert np.signbit(values.real).tolist() == [True, False, False, False]
    assert np.signbit(values.imag).tolist() == [True, True, False, True]
    assert values.tolist() == [complex(*pair) for pair in raw]


@pytest.mark.parametrize("mutate,path,length", [
    (lambda raw: raw["boundary"].update(conditions=10**12),
     "$.boundary.points[0].matrix", 10**12),
    (lambda raw: raw["orders"].update(m=100000), "$.coefficients[0].values", 100000),
], ids=["conditions", "m"])
def test_declared_sizes_are_checked_before_anything_is_allocated(tmp_path, capsys, mutate, path,
                                                                 length):
    # lengths are checked before anything of the declared size (14.6 TiB
    # and 149 GiB here) is allocated, so the usual error is one line
    raw = minimal_document()
    mutate(raw)
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(raw))
    assert main(["analyze", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {path}: expected a list of length {length}\n"


@pytest.mark.parametrize("section", [{"conditions": 10**12}, {"conditions": 2, "points": []}],
                         ids=["huge", "two"])
def test_a_boundary_section_without_terms_is_rejected(tmp_path, capsys, section):
    # B = 0 checks no length against `conditions`; 10^12 conditions used to
    # reach a 29 TiB allocation in the characteristic matrix
    raw = minimal_document(boundary=section)
    del raw["rhs"]
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps(raw))
    assert main(["analyze", str(doc)]) == 1
    assert capsys.readouterr().err == (
        "error: $.boundary: a boundary section needs a point or an integral term\n")


def test_family_members_build_no_point_terms(monkeypatch):
    # members are built from the boundary section's arrays, one
    # BoundaryOperator each, with no PointTerm per term
    doc = load_document(SAMPLES / "splitting-family.json")
    built = []
    init = boundary.PointTerm.__post_init__
    monkeypatch.setattr(boundary.PointTerm, "__post_init__",
                        lambda self: built.append(self) or init(self))
    family = document_family(doc)
    members = [family.at(eps) for eps in family.epsilons]
    assert built == []
    assert len(members) == len(family.epsilons)
    # point_terms is still there to read, built on demand
    assert [term.point for term in members[0].boundary.point_terms] == \
        members[0].boundary.points.tolist()
    assert len(built) == 6
