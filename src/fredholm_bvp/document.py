"""Problem documents: JSON ingestion, validation and model building.

A document describes one boundary-value problem and, optionally, an
eps-indexed family of perturbations of it.  Scalars are numbers or
``[re, im]`` pairs (never strings); the places where a *function* is
expected take one of three payload kinds:

* ``{"kind": "constant", "values": ...}`` — a number matrix/vector;
* ``{"kind": "expression", "entries": ...}`` — entrywise expression
  strings in ``t`` (``"polynomial"`` is accepted as an alias);
* ``{"kind": "table", "nodes": [...], "samples": ...}`` — samples per
  derivative order on a uniform grid of at least four nodes (off-node
  evaluation is cubic), checked when the document is parsed.

Inside the optional ``family`` section, expression strings may also use
``eps``, and additionally the boundary-point locations, boundary-point
matrices and the boundary data vector may be written as expression
strings in ``eps``.  The family's limit problem is the ``eps = 0``
evaluation of its generators, so generators must stay finite there.
Integer ``series`` tags on all of the family boundary's points, or on
none, make it a multipoint family (see ``limits.ProblemFamily``).

Nested lists are read against their declared shapes, lengths first, so
nothing of a declared size that the document does not hold is allocated.
A list of numbers, or of ``[re, im]`` pairs, becomes one read-only complex
array in one numpy conversion (``_number_array``); any other list is
walked entry by entry (``_parse_nested``), which also raises every error.

Member data that does not depend on eps is built once per document, not
once per member.  Scalar slots are held as a ``SlotArray``: the numbers
in one complex array, which every member uses as it is, and the
expressions in eps by index, which alone are evaluated per eps.  A
boundary section is held as arrays, its locations, orders and one
(T, q, m) matrix array, and each member's ``BoundaryOperator`` is built
straight from them, every term checked at once.  An expression payload
keeps the derivative trees of its entries, which every function built
from it shares, so each entry is differentiated once.

The full schema is documented in docs/problem-document.md with complete
sample files next to it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import expressions as ex
from .boundary import BoundaryOperator, IntegralTerm
from .characteristic import ProblemSpec
from .functions import ArrayFunction, ConstantFunction, ExpressionFunction, TabulatedFunction
from .grid import Grid, Interval, LebesgueExponent
from .limits import DEFAULT_EPSILONS, ProblemFamily
from .ode import CoefficientSet, RightHandSide


class DocumentError(ValueError):
    """Schema violation, with the JSON path of the offending element."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# scalar slots: a number now, or an expression in eps resolved later


def _finite(parts, path: str) -> complex:
    """complex(*parts), which must be finite.

    JSON parsing accepts NaN, Infinity and integers beyond the float range.
    """
    try:
        value = complex(*parts)
    except OverflowError:
        value = complex("inf")
    if not cmath.isfinite(value):
        raise DocumentError("numbers must be finite, not NaN, Infinity or out of range", path)
    return value


def _real(raw, path: str) -> float:
    """A finite real JSON number."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DocumentError("expected a number; strings, booleans and null are not numbers", path)
    return _finite((raw,), path).real


def _parse_scalar_slot(raw, path: str, eps_ok: bool):
    if isinstance(raw, bool):
        raise DocumentError("expected a number, got a boolean", path)
    if isinstance(raw, (int, float)):
        return _finite((raw,), path)
    if isinstance(raw, list):
        if len(raw) != 2 or not all(type(x) in (int, float) for x in raw):
            raise DocumentError("complex scalars are [re, im] pairs of numbers, not booleans", path)
        return _finite(raw, path)
    if isinstance(raw, str):
        if not eps_ok:
            raise DocumentError(
                "expression strings are only allowed inside the family section here", path
            )
        tree = _parse_tree(raw, path)
        if ex.uses_variable(tree, "t"):
            raise DocumentError("this slot is a number, not a function of t", path)
        return tree
    raise DocumentError(f"expected a scalar, got {type(raw).__name__}", path)


def _parse_tree(source: str, path: str):
    try:
        return ex.parse_expression(source)
    except ex.ExpressionError as err:
        raise DocumentError(f"bad expression: {err}", path) from None


def _number_array(raw, shape: tuple[int, ...]) -> np.ndarray | None:
    """Nested lists of ``shape`` whose leaves are all finite JSON numbers, or
    all ``[re, im]`` pairs of them, as one read-only complex array; else None.

    The lists are checked and flattened one level at a time, their lengths
    against ``shape`` before anything of that size is allocated, and every
    leaf must be an int or a float, the types JSON numbers have; numpy
    alone would also read booleans, numeric strings and null as floats.
    One numpy conversion then reads the numbers.  A view of the pairs as
    complex keeps the sign of a zero part, as ``complex(re, im)`` does and
    ``re + 1j * im`` does not.
    """
    level = [raw]
    for length in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {length}:
            return None
        level = list(chain.from_iterable(level))
    pairs = set(map(type, level)) == {list}
    if pairs:
        if set(map(len, level)) != {2}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        values = np.array(level, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    values = (values.view(complex) if pairs else values.astype(complex)).reshape(shape)
    values.flags.writeable = False
    return values


def _parse_nested(raw, path: str, shape: tuple[int, ...], leaf) -> list:
    """The leaves of nested lists of the given shape, in C order, each parsed
    by ``leaf(item, path)``.

    A list's length is checked before its items are read, so nothing of a
    declared size that the document does not hold is allocated.
    """
    leaves = []

    def walk(item, path: str, depth: int) -> None:
        if depth == len(shape):
            leaves.append(leaf(item, path))
            return
        length = shape[depth]
        if not isinstance(item, list) or len(item) != length:
            raise DocumentError(f"expected a list of length {length}", path)
        for i, sub in enumerate(item):
            walk(sub, f"{path}[{i}]", depth + 1)

    walk(raw, path, 0)
    return leaves


@dataclass(frozen=True)
class SlotArray:
    """Nested scalar slots: the numbers as one read-only complex array, zero
    where a slot holds an expression in eps, and those expressions with
    their flat indices."""

    values: np.ndarray
    expressions: tuple[tuple[int, object], ...] = ()

    @classmethod
    def of(cls, slots: list, shape: tuple[int, ...]) -> "SlotArray":
        """From slots in C order, each a complex number or an expression tree."""
        values = np.array([s if isinstance(s, complex) else 0j for s in slots],
                          dtype=complex).reshape(shape)
        values.flags.writeable = False
        return cls(values, tuple((i, s) for i, s in enumerate(slots) if not isinstance(s, complex)))

    @classmethod
    def stack(cls, arrays: list["SlotArray"], shape: tuple[int, ...]) -> "SlotArray":
        """Slot arrays of one ``shape``, stacked on a new first axis."""
        if not arrays:
            return cls(np.zeros((0, *shape), dtype=complex))
        values = np.stack([a.values for a in arrays])
        values.flags.writeable = False
        size = math.prod(shape)
        return cls(values, tuple((k * size + i, tree) for k, a in enumerate(arrays)
                                 for i, tree in a.expressions))

    def resolve(self, eps: float | None) -> np.ndarray:
        """The slots' values at eps, read-only, NaN or infinite where an
        expression is not finite; with no expressions, ``values`` itself."""
        if not self.expressions:
            return self.values
        out = self.values.copy()
        flat = out.reshape(-1)
        for i, tree in self.expressions:
            try:
                flat[i] = complex(ex.evaluate(tree, eps=eps))
            except (ZeroDivisionError, OverflowError):
                flat[i] = complex("nan")
        out.flags.writeable = False
        return out


def _not_finite(values: np.ndarray, eps: float | None, path: str) -> DocumentError:
    """The error for the first value that is not finite; ``path`` names the array."""
    index = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
    return DocumentError(f"expression is not finite at eps={eps}",
                         path + "".join(f"[{i}]" for i in index))


def _resolve_slots(slots: SlotArray, eps: float | None, path: str) -> np.ndarray:
    """The slots' values at eps, which must be finite."""
    values = slots.resolve(eps)
    if slots.expressions and not np.isfinite(values).all():
        raise _not_finite(values, eps, path)
    return values


def _parse_slot_array(raw, path: str, shape: tuple[int, ...], eps_ok: bool) -> SlotArray:
    """Nested scalar slots: numbers, and with ``eps_ok`` expressions in eps."""
    values = _number_array(raw, shape)
    if values is not None:
        return SlotArray(values)
    return SlotArray.of(_parse_nested(raw, path, shape, partial(_parse_scalar_slot, eps_ok=eps_ok)),
                        shape)


def _parse_numbers(raw, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Nested finite numbers, as one read-only complex array."""
    return _parse_slot_array(raw, path, shape, eps_ok=False).values


# ---------------------------------------------------------------------------
# function payloads

_FUNCTION_KINDS = ("constant", "expression", "table")


@dataclass(frozen=True)
class FunctionDoc:
    """A parsed function payload; ``build`` turns it into an ArrayFunction."""

    kind: str
    constant: np.ndarray | None = None
    entries: np.ndarray | None = None  # object array of Expression
    grid: Grid | None = None
    samples: np.ndarray | None = None
    # the entries' derivative trees by order, shared by every function built
    derivatives: dict = field(default_factory=dict, repr=False, compare=False)

    def build(self, eps: float | None, path: str) -> ArrayFunction:
        """The function at ``eps``; expression errors name ``path``, the payload's."""
        if self.kind == "constant":
            return ConstantFunction(self.constant)
        if self.kind == "expression":
            return ExpressionFunction(self.entries, eps=eps, path=f"{path}.entries",
                                      derivatives=self.derivatives)
        return TabulatedFunction(self.grid, self.samples)


def _parse_entry(source, path: str, eps_ok: bool):
    """One expression entry of a function payload."""
    if not isinstance(source, str):
        raise DocumentError("expression entries are strings", path)
    tree = _parse_tree(source, path)
    if not eps_ok and ex.uses_variable(tree, "eps"):
        raise DocumentError("eps is only allowed inside the family section", path)
    return tree


def _parse_function(raw, path: str, shape: tuple[int, ...], eps_ok: bool) -> FunctionDoc:
    if not isinstance(raw, dict):
        raise DocumentError("expected a function object with a 'kind' field", path)
    kind = raw.get("kind")
    if kind == "polynomial":
        kind = "expression"
    if kind not in _FUNCTION_KINDS:
        raise DocumentError(
            f"kind must be one of {', '.join(_FUNCTION_KINDS)} (or 'polynomial')", path
        )
    if kind == "constant":
        return FunctionDoc("constant", constant=_parse_numbers(
            _require(raw, "values", path), f"{path}.values", shape))
    if kind == "expression":
        entries = _parse_nested(_require(raw, "entries", path), f"{path}.entries", shape,
                                partial(_parse_entry, eps_ok=eps_ok))
        return FunctionDoc("expression", entries=np.array(entries, dtype=object).reshape(shape))
    nodes_raw = _require(raw, "nodes", path)
    if not isinstance(nodes_raw, list) or len(nodes_raw) < 4:
        raise DocumentError("table nodes must be a list of at least four numbers", f"{path}.nodes")
    if not all(type(t) in (int, float) for t in nodes_raw):
        raise DocumentError("table nodes must be numbers", f"{path}.nodes")
    values = _number_array(nodes_raw, (len(nodes_raw),))
    if values is None:  # a node that is not finite: the walk names it
        values = [_finite((t,), f"{path}.nodes[{i}]") for i, t in enumerate(nodes_raw)]
    nodes = np.real(values).tolist()
    try:
        grid = Grid(Interval(nodes[0], nodes[-1]), nodes)
    except ValueError as err:
        raise DocumentError(f"table nodes are not a uniform grid: {err}", f"{path}.nodes") from None
    samples_raw = _require(raw, "samples", path)
    if not isinstance(samples_raw, list) or not samples_raw:
        raise DocumentError("table samples must be a non-empty list (one entry per order)",
                            f"{path}.samples")
    orders = len(samples_raw)
    samples = _parse_numbers(samples_raw, f"{path}.samples", (orders, grid.count, *shape))
    return FunctionDoc("table", grid=grid, samples=samples)


# ---------------------------------------------------------------------------
# document sections


@dataclass(frozen=True)
class BoundaryDoc:
    """A boundary section, its T point terms held as arrays in term order."""

    conditions: int
    locations: SlotArray  # (T,)
    orders: np.ndarray  # (T,), read-only
    matrices: SlotArray  # (T, q, m)
    series: tuple[int, ...] | None = None
    integral: FunctionDoc | None = None


@dataclass(frozen=True)
class RhsDoc:
    f: FunctionDoc
    c: SlotArray  # (q,)


@dataclass(frozen=True)
class FamilyDoc:
    schedule: tuple[float, ...]
    coefficients: tuple[FunctionDoc, ...] | None = None
    boundary: BoundaryDoc | None = None
    rhs: RhsDoc | None = None


@dataclass(frozen=True)
class ProblemDocument:
    interval: Interval
    r: int
    m: int
    n: int
    exponent: LebesgueExponent
    coefficients: tuple[FunctionDoc, ...]
    boundary: BoundaryDoc
    rhs: RhsDoc | None = None
    family: FamilyDoc | None = None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise DocumentError(f"missing required field {key!r}", path)
    return mapping[key]


def _integer(raw, path: str, minimum: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentError("expected an integer", path)
    if raw < minimum:
        raise DocumentError(f"must be at least {minimum}", path)
    return raw


def _parse_boundary(raw, path: str, m: int, top_order: int,
                    eps_ok: bool) -> BoundaryDoc:
    if not isinstance(raw, dict):
        raise DocumentError("expected a boundary object", path)
    conditions = _integer(_require(raw, "conditions", path), f"{path}.conditions", 1)
    points_raw = raw.get("points", [])
    if not isinstance(points_raw, list):
        raise DocumentError("points must be a list", f"{path}.points")
    shape = (conditions, m)
    locations, orders, matrices, series_tags = [], [], [], []
    for i, item in enumerate(points_raw):
        ppath = f"{path}.points[{i}]"
        if not isinstance(item, dict):
            raise DocumentError("expected a point-term object", ppath)
        location = _parse_scalar_slot(_require(item, "t", ppath), f"{ppath}.t", eps_ok)
        order_raw = _require(item, "order", ppath)
        if isinstance(order_raw, float) and math.isfinite(order_raw):
            if not order_raw.is_integer():
                raise DocumentError(
                    f"fractional derivative order {order_raw} is not supported "
                    "(integer orders only)", f"{ppath}.order")
            order_raw = int(order_raw)
        order = _integer(order_raw, f"{ppath}.order", 0)
        if order > top_order - 1:
            raise DocumentError(
                f"order {order} out of range 0..{top_order - 1}", f"{ppath}.order")
        matrices.append(_parse_slot_array(_require(item, "matrix", ppath), f"{ppath}.matrix",
                                          shape, eps_ok))
        series = item.get("series")
        if series is not None:
            if not eps_ok:
                raise DocumentError("series tags belong to the family boundary only",
                                    f"{ppath}.series")
            series = _integer(series, f"{ppath}.series", 0)
        if series_tags and (series is None) != (series_tags[0] is None):
            raise DocumentError("series tags are all or none: tag every point or no point", ppath)
        locations.append(location)
        orders.append(order)
        series_tags.append(series)
    integral = None
    if "integral" in raw and raw["integral"] is not None:
        ipath = f"{path}.integral"
        if not isinstance(raw["integral"], dict):
            raise DocumentError("expected an integral-term object", ipath)
        integral = _parse_function(_require(raw["integral"], "kernel", ipath),
                                   f"{ipath}.kernel", (conditions, m), eps_ok)
    if not locations and integral is None:
        # B = 0, and no list of the declared length checks `conditions`
        raise DocumentError("a boundary section needs a point or an integral term", path)
    orders = np.array(orders, dtype=int)
    orders.flags.writeable = False
    tagged = bool(series_tags) and series_tags[0] is not None
    return BoundaryDoc(conditions, SlotArray.of(locations, (len(locations),)), orders,
                       SlotArray.stack(matrices, shape),
                       tuple(series_tags) if tagged else None, integral)


def _parse_rhs(raw, path: str, m: int, q: int, eps_ok: bool) -> RhsDoc:
    if not isinstance(raw, dict):
        raise DocumentError("expected an rhs object", path)
    f = _parse_function(_require(raw, "f", path), f"{path}.f", (m,), eps_ok)
    c = _parse_slot_array(_require(raw, "c", path), f"{path}.c", (q,), eps_ok)
    return RhsDoc(f, c)


def _parse_sections(raw: dict, path: str, r: int, m: int, n: int,
                    top: BoundaryDoc | None = None) -> tuple:
    """(coefficients, boundary, rhs) of the document root, or with ``top``,
    the root's boundary, of the family section at ``path``.

    At the root the coefficients and the boundary are required.  In the
    family section expressions may use eps, each section may be absent
    (None), and the boundary keeps the root's condition count.
    """
    family = top is not None
    coefficients = boundary = rhs = None
    if not family or raw.get("coefficients") is not None:
        items = _require(raw, "coefficients", path)
        if not isinstance(items, list) or len(items) != r:
            raise DocumentError(
                f"expected {r} coefficient functions (index d multiplies the order-d derivative)",
                f"{path}.coefficients")
        coefficients = tuple(_parse_function(item, f"{path}.coefficients[{d}]", (m, m), family)
                             for d, item in enumerate(items))
    if not family or raw.get("boundary") is not None:
        boundary = _parse_boundary(_require(raw, "boundary", path), f"{path}.boundary",
                                   m, n + r, family)
        if family and boundary.conditions != top.conditions:
            raise DocumentError("family boundary must keep the same condition count",
                                f"{path}.boundary.conditions")
    if raw.get("rhs") is not None:
        rhs = _parse_rhs(raw["rhs"], f"{path}.rhs", m, (top or boundary).conditions, family)
    return coefficients, boundary, rhs


def load_document(source) -> ProblemDocument:
    """Parse and validate a document from a dict, JSON text or file path."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as err:
            raise DocumentError(f"cannot read {source}: {err}") from None
        except json.JSONDecodeError as err:
            raise DocumentError(f"invalid JSON in {source}: {err}") from None
    elif isinstance(source, (str, Path)):
        try:
            raw = json.loads(str(source))
        except json.JSONDecodeError as err:
            raise DocumentError(f"invalid JSON: {err}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")

    interval_raw = _require(raw, "interval", "$")
    if not isinstance(interval_raw, dict):
        raise DocumentError("expected an object with 'a' and 'b'", "$.interval")
    a = _real(_require(interval_raw, "a", "$.interval"), "$.interval.a")
    b = _real(_require(interval_raw, "b", "$.interval"), "$.interval.b")
    try:
        interval = Interval(a, b)
    except ValueError as err:
        raise DocumentError(str(err), "$.interval") from None

    orders_raw = _require(raw, "orders", "$")
    if not isinstance(orders_raw, dict):
        raise DocumentError("expected an object with 'r', 'm' and 'n'", "$.orders")
    r = _integer(_require(orders_raw, "r", "$.orders"), "$.orders.r", 1)
    m = _integer(_require(orders_raw, "m", "$.orders"), "$.orders.m", 1)
    n = _integer(_require(orders_raw, "n", "$.orders"), "$.orders.n", 0)

    exponent_raw = _require(raw, "exponent", "$")
    # "inf" is the one string the schema allows
    exponent_value = math.inf if exponent_raw == "inf" else _real(exponent_raw, "$.exponent")
    try:
        exponent = LebesgueExponent(exponent_value)
    except ValueError as err:
        raise DocumentError(str(err), "$.exponent") from None

    coefficients, boundary, rhs = _parse_sections(raw, "$", r, m, n)

    family = None
    if raw.get("family") is not None:
        fam_raw = raw["family"]
        if not isinstance(fam_raw, dict):
            raise DocumentError("expected a family object", "$.family")
        schedule_raw = fam_raw.get("schedule", list(DEFAULT_EPSILONS))
        if not isinstance(schedule_raw, list) or not schedule_raw:
            raise DocumentError("schedule must be a non-empty list", "$.family.schedule")
        entries = [_real(e, f"$.family.schedule[{i}]") for i, e in enumerate(schedule_raw)]
        try:
            schedule = ProblemFamily.checked_schedule(entries)
        except ValueError as err:
            raise DocumentError(str(err), "$.family.schedule") from None
        family = FamilyDoc(schedule, *_parse_sections(fam_raw, "$.family", r, m, n, boundary))

    return ProblemDocument(interval, r, m, n, exponent, coefficients, boundary, rhs, family)


# ---------------------------------------------------------------------------
# model building


def _build_boundary(doc: BoundaryDoc, path: str, interval: Interval,
                    eps: float | None) -> BoundaryOperator:
    """The section's operator at eps, built from its arrays.

    Every check runs on all terms at once; an error names the first term
    that fails, and within it the first failing check in the order
    location, realness, interval, matrix.
    """
    locations = doc.locations.resolve(eps)
    matrices = doc.matrices.resolve(eps)
    points = locations.real
    inside = (interval.a <= points) & (points <= interval.b)
    matrix_ok = np.isfinite(matrices).all(axis=(1, 2))
    bad = ~(np.isfinite(locations) & (locations.imag == 0) & inside & matrix_ok)
    if bad.any():
        i = int(np.argmax(bad))
        ppath = f"{path}.points[{i}]"
        location = complex(locations[i])
        if not cmath.isfinite(location):
            raise DocumentError(f"expression is not finite at eps={eps}", f"{ppath}.t")
        if abs(location.imag) > 0:
            raise DocumentError("boundary point locations must be real", f"{ppath}.t")
        if not inside[i]:
            raise DocumentError(f"boundary point {location.real} outside the interval "
                                f"[{interval.a}, {interval.b}]", f"{ppath}.t")
        raise _not_finite(matrices[i], eps, f"{ppath}.matrix")
    integral = None
    if doc.integral is not None:
        integral = IntegralTerm(doc.integral.build(eps, f"{path}.integral.kernel"))
    return BoundaryOperator.from_arrays(doc.conditions, points, doc.orders, matrices, integral)


def document_problem(doc: ProblemDocument, eps: float | None = None) -> ProblemSpec:
    """Build the problem; with ``eps`` given, family overrides apply."""
    coeffs_docs, coeffs_path = doc.coefficients, "$.coefficients"
    boundary_doc, boundary_path = doc.boundary, "$.boundary"
    rhs_doc, rhs_path = doc.rhs, "$.rhs"
    if eps is not None and doc.family is not None:
        if doc.family.coefficients is not None:
            coeffs_docs, coeffs_path = doc.family.coefficients, "$.family.coefficients"
        if doc.family.boundary is not None:
            boundary_doc, boundary_path = doc.family.boundary, "$.family.boundary"
        if doc.family.rhs is not None:
            rhs_doc, rhs_path = doc.family.rhs, "$.family.rhs"
    payloads = [(f"{coeffs_path}[{d}]", fd) for d, fd in enumerate(coeffs_docs)]
    if boundary_doc.integral is not None:
        payloads.append((f"{boundary_path}.integral.kernel", boundary_doc.integral))
    if rhs_doc is not None:
        payloads.append((f"{rhs_path}.f", rhs_doc.f))
    for path, fd in payloads:
        if fd.kind != "table":
            continue
        if fd.grid.interval != doc.interval:
            raise DocumentError("table nodes must span the problem interval", path)
        # coefficients and f are read at orders 0..n, kernels at order 0 only
        if fd is not boundary_doc.integral and fd.grid.count < 5 and len(fd.samples) <= doc.n:
            raise DocumentError(f"a table of {fd.grid.count} nodes must supply the orders "
                                f"0..{doc.n}: differences need at least five nodes",
                                f"{path}.nodes")
    coefficients = CoefficientSet(
        doc.r, doc.m, doc.n, tuple(fd.build(eps, path) for path, fd in payloads[:doc.r])
    )
    boundary = _build_boundary(boundary_doc, boundary_path, doc.interval, eps)
    rhs = None
    if rhs_doc is not None:
        rhs = RightHandSide(rhs_doc.f.build(eps, f"{rhs_path}.f"),
                            _resolve_slots(rhs_doc.c, eps, f"{rhs_path}.c"))
    return ProblemSpec(doc.interval, coefficients, boundary, doc.exponent, rhs)


def document_family(doc: ProblemDocument) -> ProblemFamily:
    """The eps-indexed family declared by the document's family section."""
    if doc.family is None:
        raise DocumentError("document has no family section")
    series = doc.family.boundary.series if doc.family.boundary is not None else None
    family = ProblemFamily(
        at_zero=document_problem(doc, eps=0.0),
        generator=lambda eps: document_problem(doc, eps=eps),
        epsilons=doc.family.schedule,
        series=series,
    )
    stray = family.stray_limit_term() if series is not None else None
    if stray is not None:
        raise DocumentError("all points of a converging series must share the eps = 0 limit",
                            f"$.family.boundary.points[{stray}].t")
    return family
