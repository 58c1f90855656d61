"""Seeded inputs for the two workloads, with the outcome each is built to have.

Every workload is a fixed table of slots.  A slot fixes the shape of one
input: the orders r, m and n, the coefficient kind, the boundary shape,
whether there is an integral term, how singular the problem is, and the
stratum its grid size N is drawn from.  The seed draws everything else:
coefficient and boundary values, point locations, the interval, and N
within its stratum.  Fixed shapes keep the cost of one round nearly the
same for every seed, so runs with different seeds are comparable, while
N still covers its whole range rather than a few values.  Each workload
has an odd number of operations per round, so the median operation time
falls inside one operation's cluster of times, not between two.

The ``cli`` workload runs the commands on the documents (``CLI_SLOTS``)
and the ``family`` command on the families (``FAMILY_SLOTS``);
``analyze-scale`` runs the library analysis (``SCALE_SLOTS``).

The generator never imports fredholm_bvp.  Problems built singular get
their rank from the reference characteristic matrix: terms at the left
endpoint are added so that the matrix equals a chosen matrix of lower
rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from reference import Fn, Model, Smooth

TABLE_NODES = 401
CLI_NODES = (1001, 4001)
SCALE_NODES = (1001, 4001)
FAMILY_NODES = (51, 151)
INTERVALS = ((0.0, 1.0), (0.0, 2.0), (1.0, 2.0))
SAMPLES = ("one-point-first-order", "two-point-damped", "splitting-family")

# Expression strings the sample documents use, as functions with exact
# derivatives.  A sample with any other expression stops the benchmark.
SAMPLE_EXPRESSIONS = {
    "1": Smooth(c0=1.0),
    "t": Smooth(c1=1.0),
    "sin(t)": Smooth(s=1.0, w=1.0),
    "exp(-t)": Smooth(e=1.0, k=-1.0),
}


@dataclass(frozen=True)
class Slot:
    """One generated problem: its shape, and which N stratum it takes."""

    r: int
    m: int
    n: int
    kind: str  # constant | damped | oscillatory | zero | expression | table
    shape: str  # one | two | multi
    integral: bool
    q_delta: int  # q - r*m
    deficit: int  # min(q, r*m) - rank
    stratum: int


# cli: generated documents next to the three samples (strata 0..2).
CLI_SLOTS = (
    Slot(1, 3, 1, "constant", "one", False, 0, 0, 7),
    Slot(2, 2, 1, "damped", "two", False, 0, 0, 4),
    Slot(2, 1, 2, "oscillatory", "two", False, 0, 1, 9),
    Slot(1, 2, 0, "expression", "multi", True, 0, 0, 5),
    Slot(2, 2, 1, "table", "two", False, 0, 0, 0),
    Slot(3, 1, 1, "constant", "multi", True, -1, 0, 10),
    Slot(1, 2, 2, "zero", "multi", True, 0, 0, 6),
    Slot(2, 1, 0, "expression", "one", True, 0, 0, 8),
    Slot(1, 2, 1, "expression", "two", False, 1, 0, 11),
)
CLI_SAMPLE_STRATA = (2, 1, 3)

# analyze-scale: constant coefficients, r*m from 1 to 16.
SCALE_SLOTS = (
    Slot(1, 1, 0, "constant", "one", False, 0, 0, 11),
    Slot(2, 1, 1, "constant", "two", True, 0, 1, 3),
    Slot(1, 2, 2, "constant", "multi", False, 1, 0, 8),
    Slot(1, 4, 1, "constant", "multi", True, 0, 0, 1),
    Slot(2, 2, 1, "constant", "two", False, 0, 1, 10),
    Slot(4, 1, 0, "constant", "one", False, -1, 0, 6),
    Slot(3, 2, 0, "constant", "multi", False, 0, 0, 4),
    Slot(2, 4, 1, "constant", "two", True, 0, 2, 7),
    Slot(4, 2, 0, "constant", "multi", False, 0, 0, 2),
    Slot(2, 8, 0, "constant", "two", False, 0, 0, 5),
    Slot(4, 4, 1, "constant", "multi", True, 0, 1, 0),
    Slot(1, 16, 0, "constant", "one", False, 0, 0, 9),
    Slot(2, 3, 2, "constant", "multi", True, 0, 1, 12),
)


@dataclass(frozen=True)
class FamilySlot:
    r: int
    m: int
    n: int
    kind: str  # converging | zero-series-kept | jump-coefficient
    schedule: int  # number of eps values
    points: int  # points per converging series
    stratum: int


FAMILY_SLOTS = (
    FamilySlot(1, 2, 3, "zero-series-kept", 6, 48, 0),
    FamilySlot(2, 2, 2, "converging", 8, 24, 4),
    FamilySlot(2, 1, 2, "jump-coefficient", 5, 30, 1),
    FamilySlot(1, 3, 2, "converging", 7, 48, 3),
    FamilySlot(2, 1, 3, "zero-series-kept", 5, 36, 7),
    FamilySlot(1, 1, 2, "converging", 6, 42, 6),
    FamilySlot(1, 2, 2, "jump-coefficient", 4, 48, 2),
)
FAMILY_SAMPLE_STRATUM = 5

# The verdicts each family kind is built to produce.
FAMILY_VERDICTS = {
    "converging": dict(condition_I=True, condition_II=True, characteristic=True,
                       solution=True, multipoint=True),
    "zero-series-kept": dict(condition_I=True, condition_II=True, characteristic=True,
                             solution=True, multipoint=False, delta=False),
    "jump-coefficient": dict(condition_I=False, condition_II=True, characteristic=False,
                             solution=False, multipoint=True),
}


# ---------------------------------------------------------------------------
# helpers


def _crandn(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _cjson(values):
    values = np.asarray(values, dtype=complex)
    if values.ndim == 0:
        return [float(values.real), float(values.imag)]
    return [_cjson(v) for v in values]


def stratum_nodes(rng, bounds: tuple[int, int], strata: int, index: int) -> int:
    """A node count drawn uniformly from stratum ``index`` of ``strata``."""
    lo, hi = bounds
    width = (hi - lo + 1) / strata
    start = lo + math.floor(index * width)
    stop = lo + math.floor((index + 1) * width)
    return int(rng.integers(start, stop))


def _smooth(rng, template: int, amplitude: float) -> Smooth:
    base = float(rng.normal()) * amplitude
    if template == 0:
        return Smooth(c0=base, s=float(rng.normal()) * amplitude,
                      w=float(rng.uniform(0.5, 3.0)), p=float(rng.uniform(0.0, math.pi)))
    if template == 1:
        return Smooth(c0=base, c1=float(rng.normal()) * amplitude,
                      c2=float(rng.normal()) * amplitude)
    return Smooth(c0=base, e=float(rng.normal()) * amplitude, k=float(rng.uniform(-2.0, 1.0)))


def _smooth_fn(rng, shape, amplitude: float, complex_values: bool) -> Fn:
    count = int(np.prod(shape))
    re = tuple(_smooth(rng, int(rng.integers(3)), amplitude) for _ in range(count))
    im = tuple(_smooth(rng, 0, amplitude) for _ in range(count)) if complex_values else None
    return Fn(tuple(shape), re=re, im=im)


def _payload(fn: Fn, kind: str, interval) -> dict:
    """The function payload of a problem document."""
    if kind == "constant":
        return {"kind": "constant", "values": _cjson(fn.const)}
    if kind == "expression":
        entries = np.array([e.source() for e in fn.re], dtype=object).reshape(fn.shape)
        return {"kind": "expression", "entries": entries.tolist()}
    nodes = np.linspace(interval[0], interval[1], TABLE_NODES)
    return {"kind": "table", "nodes": [float(t) for t in nodes], "samples": [_cjson(fn(nodes))]}


def _document(model: Model, kinds: list[str]) -> dict:
    interval = (model.a, model.b)
    doc = {
        "interval": {"a": model.a, "b": model.b},
        "orders": {"r": model.r, "m": model.m, "n": model.n},
        "exponent": 2,
        "coefficients": [_payload(fn, kind, interval) for fn, kind in zip(model.coeffs, kinds)],
        "boundary": {
            "conditions": model.q,
            "points": [{"t": float(t), "order": int(d), "matrix": _cjson(w)}
                       for t, d, w in model.terms],
        },
    }
    if model.kernel is not None:
        doc["boundary"]["integral"] = {"kernel": {"kind": "constant",
                                                  "values": _cjson(model.kernel)}}
    if model.f is not None:
        doc["rhs"] = {"f": _payload(model.f, "expression", interval), "c": _cjson(model.c)}
    return doc


def has_closed_form(model: Model) -> bool:
    """Whether `oracle-check` knows a closed form for this configuration.

    These are the documented constant-coefficient configurations: first
    order with one-point conditions, first order with a zero coefficient,
    and second order two-point problems with A_0 = 0 or A_1 = 0.
    """
    if not model.constant:
        return False
    points = {t for t, _, _ in model.terms}
    if model.r == 1:
        if not np.any(model.coeffs[0].const):
            return True
        return points <= {model.a} and model.kernel is None
    if model.r == 2 and model.kernel is None and points <= {model.a, model.b}:
        return not np.any(model.coeffs[0].const) or not np.any(model.coeffs[1].const)
    return False


def expected_analysis(model: Model, rank: int) -> dict:
    size = model.r * model.m
    return {
        "index": size - model.q,
        "rank": rank,
        "dim_kernel": size - rank,
        "dim_cokernel": model.q - rank,
        "well_posed": model.q == size == rank,
    }


# ---------------------------------------------------------------------------
# one generated problem


def _coefficients(rng, slot: Slot) -> tuple[list[Fn], list[str]]:
    r, m = slot.r, slot.m
    shape = (m, m)
    if slot.kind in ("expression", "table"):
        fns = [_smooth_fn(rng, shape, 0.4 / m, slot.kind == "table") for _ in range(r)]
        return fns, [slot.kind] * r
    consts = [_crandn(rng, m, m) * (0.5 / m) for _ in range(r)]
    if slot.kind == "damped":
        consts[0] = np.zeros(shape, dtype=complex)
    elif slot.kind == "oscillatory":
        consts[1] = np.zeros(shape, dtype=complex)
    elif slot.kind == "zero":
        consts = [np.zeros(shape, dtype=complex)]
    return [Fn(shape, const=c) for c in consts], ["constant"] * r


def _boundary_terms(rng, slot: Slot, a: float, b: float, q: int, max_order: int):
    m = slot.m

    def matrix():
        return _crandn(rng, q, m) / math.sqrt(m)

    if slot.shape == "one":
        return [(a, d, matrix()) for d in range(max_order + 1)]
    if slot.shape == "two":
        return [(t, d, matrix()) for t in (a, b) for d in range(max_order + 1)]
    inner = np.sort(rng.uniform(0.05, 0.95, size=3))
    points = [a + (b - a) * float(u) for u in inner] + [b]
    return [(t, int(rng.integers(max_order + 1)), matrix()) for t in points]


def make_problem(rng, slot: Slot, nodes: int, with_rhs: bool) -> tuple[Model, list[str], dict]:
    """A problem of the slot's shape with the rank the slot asks for."""
    r, m = slot.r, slot.m
    size = r * m
    q = size + slot.q_delta
    rank = min(q, size) - slot.deficit
    variable = slot.kind in ("expression", "table")
    # The references cover, for variable coefficients, the orders that
    # integration gives (below r) and the order-r integral when n = 0.
    max_order = r - 1 if variable else slot.n + r - 1
    for _ in range(50):
        a, b = INTERVALS[int(rng.integers(len(INTERVALS)))]
        coeffs, kinds = _coefficients(rng, slot)
        model = Model(a, b, r, m, slot.n, coeffs, q,
                      terms=_boundary_terms(rng, slot, a, b, q, max_order),
                      kernel=_crandn(rng, q, m) * 0.3 if slot.integral else None,
                      table_nodes=TABLE_NODES if slot.kind == "table" else 0)
        matrix = ref.characteristic(model, nodes)
        if slot.deficit:
            target = _crandn(rng, q, rank) @ _crandn(rng, rank, size)
            target *= np.abs(matrix).max() / np.abs(target).max()
            correction = target - matrix
            model.terms += [(a, d, correction[:, d * m:(d + 1) * m]) for d in range(r)]
            matrix = ref.characteristic(model, nodes)
        sv = np.linalg.svd(matrix, compute_uv=False)
        separated = sv[rank - 1] > 1e-3 * sv[0]
        if separated and (rank == sv.size or sv[rank] < 1e-12 * sv[0]):
            break
    else:
        raise RuntimeError(f"no well-separated problem found for {slot}")
    if with_rhs:
        model.f = _smooth_fn(rng, (m,), 1.0, False)
        model.c = _crandn(rng, q)
    return model, kinds, expected_analysis(model, rank)


# ---------------------------------------------------------------------------
# sample documents


def _number(raw) -> complex:
    return complex(raw[0], raw[1]) if isinstance(raw, list) else complex(raw)


def _array(raw, shape: tuple[int, ...]) -> np.ndarray:
    """Scalars of a document (numbers or [re, im] pairs) in an array of ``shape``."""
    if not shape:
        return np.asarray(_number(raw))
    return np.array([_array(x, shape[1:]) for x in raw])


def _sample_fn(payload, shape) -> Fn:
    if payload["kind"] == "constant":
        return Fn(shape, const=_array(payload["values"], shape))
    entries = np.asarray(payload["entries"], dtype=object).reshape(-1)
    return Fn(shape, re=tuple(SAMPLE_EXPRESSIONS[e] for e in entries))


def sample_model(path: Path) -> Model:
    """The reference model of a sample document (its base problem)."""
    raw = json.loads(path.read_text())
    r, m, n = (raw["orders"][k] for k in ("r", "m", "n"))
    boundary = raw["boundary"]
    q = boundary["conditions"]
    model = Model(float(raw["interval"]["a"]), float(raw["interval"]["b"]), r, m, n,
                  [_sample_fn(p, (m, m)) for p in raw["coefficients"]], q)
    for point in boundary["points"]:
        matrix = _array(point["matrix"], (q, m))
        model.terms.append((float(point["t"]), int(point["order"]), matrix))
    if boundary.get("integral"):
        model.kernel = _array(boundary["integral"]["kernel"]["values"], (q, m))
    if raw.get("rhs"):
        model.f = _sample_fn(raw["rhs"]["f"], (m,))
        model.c = _array(raw["rhs"]["c"], (q,))
    return model


def _sample_expectation(model: Model) -> dict:
    sv = np.linalg.svd(ref.characteristic(model, CLI_NODES[0]), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return expected_analysis(model, rank)


# ---------------------------------------------------------------------------
# workloads


def _machine_argv(command: str, document: str, nodes: int) -> list[str]:
    return [command, document, "--nodes", str(nodes), "--format", "machine", "--out", "{out}"]


def cli_docs(seed: int, work: Path, root: Path) -> dict:
    """Documents and the commands run on each; see the module docstring."""
    rng = np.random.default_rng([seed, 1])
    strata = len(CLI_SLOTS) + len(SAMPLES)
    docs = []
    for name, stratum in zip(SAMPLES, CLI_SAMPLE_STRATA):
        path = f"docs/samples/{name}.json"
        model = sample_model(root / path)
        docs.append((name, path, model, _sample_expectation(model),
                     stratum_nodes(rng, CLI_NODES, strata, stratum)))
    for i, slot in enumerate(CLI_SLOTS):
        nodes = stratum_nodes(rng, CLI_NODES, strata, slot.stratum)
        model, kinds, expected = make_problem(rng, slot, nodes, with_rhs=True)
        path = work / f"doc{i}.json"
        path.write_text(json.dumps(_document(model, kinds), indent=1))
        docs.append((f"generated-{i}", str(path), model, expected, nodes))
    ops = []
    for name, path, model, expected, nodes in docs:
        ops.append({"kind": "analyze", "doc": name, "nodes": nodes,
                    "argv": _machine_argv("analyze", path, nodes),
                    "expect_rc": 0 if expected["well_posed"] else 2, "problems": 1})
        if expected["well_posed"] and model.f is not None:
            ops.append({"kind": "solve", "doc": name, "nodes": nodes,
                        "argv": _machine_argv("solve", path, nodes), "expect_rc": 0,
                        "problems": 1})
        if has_closed_form(model):
            ops.append({"kind": "oracle-check", "doc": name, "nodes": nodes,
                        "argv": _machine_argv("oracle-check", path, nodes), "expect_rc": 0,
                        "problems": 1})
    models = {name: (model, expected) for name, _, model, expected, _ in docs}
    return {"ops": ops, "models": models}


def analyze_scale(seed: int, work: Path, root: Path) -> dict:
    """Constant-coefficient problems for the library analysis path."""
    rng = np.random.default_rng([seed, 2])
    ops, models = [], {}
    for i, slot in enumerate(SCALE_SLOTS):
        nodes = stratum_nodes(rng, SCALE_NODES, len(SCALE_SLOTS), slot.stratum)
        model, _, expected = make_problem(rng, slot, nodes, with_rhs=False)
        name = f"problem-{i}"
        models[name] = (model, expected)
        ops.append({
            "kind": "analyze-lib", "doc": name, "nodes": nodes, "problems": 1,
            "problem": {
                "a": model.a, "b": model.b, "r": model.r, "m": model.m, "n": model.n,
                "q": model.q,
                "coefficients": [_cjson(fn.const) for fn in model.coeffs],
                "terms": [[t, d, _cjson(w)] for t, d, w in model.terms],
                "kernel": None if model.kernel is None else _cjson(model.kernel),
            },
        })
    return {"ops": ops, "models": models}


def family_document(rng, slot: FamilySlot) -> tuple[dict, dict]:
    """A multipoint splitting family and what it is built to show."""
    r, m, n = slot.r, slot.m, slot.n
    size = r * m
    a, b = 0.0, 1.0
    schedule = [float(x) for x in np.logspace(-1, -10, slot.schedule)]
    for _ in range(50):
        base = [_crandn(rng, m, m).real * (0.5 / m) for _ in range(r)]
        waves = [[_smooth(rng, 0, 0.5) for _ in range(m * m)] for _ in range(r)]
        limits = [float(x) for x in np.sort(rng.uniform(0.15, 0.85, size=2))]
        limit_matrices = [[_crandn(rng, size, m) / math.sqrt(m) for _ in range(r)] for _ in limits]
        zero_points = [float(x) for x in rng.uniform(0.1, 0.9, size=2)]
        zero_matrices = [_crandn(rng, size, m) * 0.3 for _ in zero_points]
        kept = slot.kind == "zero-series-kept"
        limit_terms = [(t, d, mats[d]) for t, mats in zip(limits, limit_matrices) for d in range(r)]
        if kept:
            limit_terms += [(t, 0, w) for t, w in zip(zero_points, zero_matrices)]
        model = Model(a, b, r, m, n, [Fn((m, m), const=c.astype(complex)) for c in base], size,
                      terms=limit_terms)
        sv = np.linalg.svd(ref.characteristic(model, FAMILY_NODES[0]), compute_uv=False)
        if sv[-1] > 1e-2 * sv[0]:
            break
    else:
        raise RuntimeError(f"no well-posed limit problem found for {slot}")

    factor = "eps/(eps + 1e-12)" if slot.kind == "jump-coefficient" else "eps"

    def coefficient_entries(d):
        entries = [f"({float(base[d].flat[i])!r}) + {factor}*({waves[d][i].source()})"
                   for i in range(m * m)]
        return np.array(entries, dtype=object).reshape(m, m).tolist()

    offsets = []
    family_points = []
    for j, (tau, mats) in enumerate(zip(limits, limit_matrices), start=1):
        deltas = rng.uniform(-1.0, 1.0, size=slot.points)
        weights = rng.uniform(0.5, 1.5, size=slot.points)
        weights /= weights.sum()
        offsets.append([float(x) for x in deltas])
        for delta, weight in zip(deltas, weights):
            for d in range(r):
                family_points.append({"t": f"{tau!r} + ({float(delta)!r})*eps", "order": d,
                                      "matrix": _cjson(mats[d] * weight), "series": j})
    for t, w in zip(zero_points, zero_matrices):
        matrix = _cjson(w) if kept else [[f"eps*({float(z.real)!r})" for z in row] for row in w]
        family_points.append({"t": t, "order": 0, "matrix": matrix, "series": 0})

    doc = {
        "interval": {"a": a, "b": b},
        "orders": {"r": r, "m": m, "n": n},
        "exponent": 2,
        "coefficients": [{"kind": "constant", "values": _cjson(c)} for c in base],
        "boundary": {"conditions": size,
                     "points": [{"t": t, "order": d, "matrix": _cjson(w)} for t, d, w in limit_terms]},
        "rhs": {"f": {"kind": "expression",
                      "entries": [_smooth(rng, 1, 1.0).source() for _ in range(m)]},
                "c": _cjson(_crandn(rng, size))},
        "family": {
            "schedule": schedule,
            "coefficients": [{"kind": "expression", "entries": coefficient_entries(d)}
                             for d in range(r)],
            "boundary": {"conditions": size, "points": family_points},
        },
    }
    expected = {"kind": slot.kind, "schedule": schedule, "limits": limits, "offsets": offsets,
                "verdicts": FAMILY_VERDICTS[slot.kind]}
    return doc, expected


def family_sweep(seed: int, work: Path, root: Path) -> dict:
    """The splitting-family sample and generated multipoint families."""
    rng = np.random.default_rng([seed, 3])
    strata = len(FAMILY_SLOTS) + 1
    sample = json.loads((root / "docs/samples/splitting-family.json").read_text())
    entries = [("splitting-family", "docs/samples/splitting-family.json",
                {"kind": "converging", "schedule": sample["family"]["schedule"],
                 "verdicts": FAMILY_VERDICTS["converging"]},
                stratum_nodes(rng, FAMILY_NODES, strata, FAMILY_SAMPLE_STRATUM))]
    for i, slot in enumerate(FAMILY_SLOTS):
        nodes = stratum_nodes(rng, FAMILY_NODES, strata, slot.stratum)
        doc, expected = family_document(rng, slot)
        path = work / f"family{i}.json"
        path.write_text(json.dumps(doc, indent=1))
        entries.append((f"family-{i}", str(path), expected, nodes))
    ops = [{"kind": "family", "doc": name, "nodes": nodes, "expect_rc": 0,
            "argv": _machine_argv("family", path, nodes),
            "problems": 1 + len(expected["schedule"]), "eps": len(expected["schedule"])}
           for name, path, expected, nodes in entries]
    return {"ops": ops, "families": {name: expected for name, _, expected, _ in entries}}


def cli(seed: int, work: Path, root: Path) -> dict:
    """Every command of the command-line interface: documents, then families."""
    docs = cli_docs(seed, work, root)
    families = family_sweep(seed, work, root)
    return {"ops": docs["ops"] + families["ops"], "models": docs["models"],
            "families": families["families"]}


WORKLOADS = {"cli": cli, "analyze-scale": analyze_scale}
