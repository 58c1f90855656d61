"""Spans around calls into fredholm_bvp's modules, recorded from outside the program.

``Tracer.install`` wraps every public function and every public method
of the public classes of the modules in ``LAYERS``, in every namespace
of the package that holds them, so calls from one module into another
are recorded too.  A span is ``(parent, name, start, end, tag)`` and its
identifier is its position in ``Tracer.spans``; a parent always comes
before its children.  Spans stay in memory until the run ends.

``grid`` and ``expressions`` are not wrapped: they are called once per
node or per expression-tree node, and a wrapper there would cost more
than the work it measures.  Their time is self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("document", "functions", "ode", "boundary", "characteristic", "solver",
          "closed_forms", "limits", "cli")
# recursive functions: only the outermost call gets a span
RECURSIVE = {("cli", "emit_json")}
# what a span remembers about its arguments
TAGS = {
    "ode.fundamental_set": lambda args: [args[0].r * args[0].m, args[1].count],
    "limits.ProblemFamily.at": lambda args: float(args[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, name, start, end, tag(args) if tag else None)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (parent, name, start, end, None)

    def _replace(self, namespace, attr: str, value) -> None:
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _outermost(self, name: str, module, attr: str, fn):
        traced = self._wrap(name, fn)

        def entry(*args, **kwargs):
            setattr(module, attr, fn)  # recursive calls go straight to fn
            try:
                return traced(*args, **kwargs)
            finally:
                setattr(module, attr, entry)

        return entry

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"fredholm_bvp.{layer}") for layer in LAYERS}
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name == "fredholm_bvp" or name.startswith("fredholm_bvp.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if (layer, attr) in RECURSIVE:
                        wrapper = self._outermost(name, module, attr, obj)
                    else:
                        wrapper = self._wrap(name, obj)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._replace(namespace, key, wrapper)
                elif inspect.isclass(obj):
                    for method, member in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(member):
                            self._replace(obj, method, self._wrap(f"{layer}.{attr}.{method}", member))
        self._replace(np.linalg, "svd", self._wrap("numpy.linalg.svd", np.linalg.svd))

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)


def summarize(spans) -> dict:
    """Per-name counts and times, and per-layer inclusive and self times.

    A layer's inclusive time counts only its outermost spans, so nested
    calls within a layer are not counted twice.  Self time is a span's
    duration minus its children's.
    """
    children = [0.0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    ancestors: list[frozenset] = [frozenset()] * len(spans)
    count: dict = defaultdict(int)
    total: dict = defaultdict(float)
    inclusive: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    merged: dict = {}
    for i, (parent, name, start, end, _) in enumerate(spans):
        layer = name.split(".")[0]
        if parent >= 0:
            key = (ancestors[parent], spans[parent][1].split(".")[0])
            if key not in merged:
                merged[key] = key[0] | {key[1]}
            ancestors[i] = merged[key]
        duration = end - start
        count[name] += 1
        total[name] += duration
        self_time[layer] += duration - children[i]
        if layer not in ancestors[i]:
            inclusive[layer] += duration
    svd_in_characteristic = sum(
        1 for i, span in enumerate(spans)
        if span[1] == "numpy.linalg.svd" and "characteristic" in ancestors[i]
    )
    return {"count": dict(count), "total": dict(total), "inclusive": dict(inclusive),
            "self": dict(self_time), "svd_in_characteristic": svd_in_characteristic}


def _per_step(spans, size: int) -> float:
    """Mean microseconds per grid step of fundamental_set at r*m = size."""
    rates = [(end - start) / (tag[1] - 1) * 1e6 for _, name, start, end, tag in spans
             if name == "ode.fundamental_set" and tag[0] == size]
    return float(np.mean(rates)) if rates else 0.0


def layer_metrics(spans, operations: int, rounds: int, problems: int, scheduled_eps: int) -> dict:
    """The per-layer metrics of one traced run.

    Times are seconds per operation; counts are per round (one pass over
    the workload's fixed mix); ratios name their base.
    """
    s = summarize(spans)
    count, total = s["count"], s["total"]

    def per_op(value: float) -> float:
        return value / operations

    matrices = count.get("characteristic.characteristic_from_blocks", 0)
    member_builds = sum(1 for _, name, _, _, tag in spans
                        if name == "limits.ProblemFamily.at" and tag != 0.0)
    return {
        "document.load_s": per_op(total.get("document.load_document", 0.0)),
        "functions.eval_s": per_op(s["inclusive"].get("functions", 0.0)),
        "ode.fundamental_set_s": per_op(total.get("ode.fundamental_set", 0.0)),
        "ode.particular_solution_s": per_op(total.get("ode.particular_solution", 0.0)),
        "ode.us_per_step.rm1": _per_step(spans, 1),
        "ode.us_per_step.rm4": _per_step(spans, 4),
        "ode.us_per_step.rm16": _per_step(spans, 16),
        "ode.integrations_per_problem": (count.get("ode.fundamental_set", 0)
                                         + count.get("ode.particular_solution", 0)) / problems,
        "boundary.apply_s": per_op(s["inclusive"].get("boundary", 0.0)),
        "boundary.apply_calls": count.get("boundary.BoundaryOperator.apply", 0) / rounds,
        "characteristic.assemble_s": per_op(total.get("characteristic.characteristic_from_fundamental", 0.0)),
        "characteristic.directions_s": per_op(total.get("characteristic.kernel_directions", 0.0)
                                              + total.get("characteristic.cokernel_directions", 0.0)),
        "characteristic.svd_per_matrix": s["svd_in_characteristic"] / matrices if matrices else 0.0,
        "solver.self_s": per_op(s["self"].get("solver", 0.0)),
        "closed_forms.oracle_s": per_op(s["inclusive"].get("closed_forms", 0.0)),
        "limits.self_s": per_op(s["self"].get("limits", 0.0)),
        "limits.member_builds_per_eps": member_builds / scheduled_eps if scheduled_eps else 0.0,
        "limits.coefficient_distance_calls": count.get("limits.coefficient_distances", 0) / rounds,
        "cli.emit_s": per_op(total.get("cli.emit_json", 0.0)),
    }
