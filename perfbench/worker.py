"""One workload process: set up, run whole rounds of operations, record outputs.

``run.py`` starts this script; it is not meant to be run by hand.  It
prints ``READY <import seconds>`` once fredholm_bvp is imported and the
inputs are loaded, which is where set-up time ends.  With
``--setup-only`` it stops there.  Otherwise it runs the manifest's
operations in order, one round after another, for the whole number of
rounds whose time comes closest to ``--seconds`` (at least
``MIN_ROUNDS``) or for exactly ``--rounds`` rounds, and writes a JSON
result.  Outputs of the first round are kept for checking; later rounds
keep only a digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# Later rounds are compared with the first, so every run has at least two.
MIN_ROUNDS = 2


def _complex_json(values):
    import numpy as np

    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _library_problem(fb, raw: dict, nodes: int):
    import numpy as np

    def matrix(entries):
        arr = np.asarray(entries, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    coefficients = fb.CoefficientSet(raw["r"], raw["m"], raw["n"],
                                     tuple(matrix(c) for c in raw["coefficients"]))
    terms = tuple(fb.PointTerm(t, d, matrix(w)) for t, d, w in raw["terms"])
    integral = None
    if raw["kernel"] is not None:
        integral = fb.IntegralTerm(fb.ConstantFunction(matrix(raw["kernel"])))
    boundary = fb.BoundaryOperator(raw["q"], terms, integral)
    interval = fb.Interval(raw["a"], raw["b"])
    problem = fb.ProblemSpec(interval, coefficients, boundary, fb.LebesgueExponent(2.0))
    return problem, fb.Grid.uniform(interval, nodes)


def _analyze_library(fb, problem, grid) -> dict:
    """One analyze-scale operation: the four library calls, nothing else."""
    matrix = fb.build_characteristic_matrix(problem, grid)
    report = fb.solvability_report(matrix, problem)
    kernel = fb.kernel_directions(matrix)
    cokernel = fb.cokernel_directions(matrix)
    return {"matrix": matrix, "report": report, "kernel": kernel, "cokernel": cokernel}


def _library_output(result: dict) -> bytes:
    matrix, report = result["matrix"], result["report"]
    doc = {
        "entries": _complex_json(matrix.entries),
        "singular_values": [float(s) for s in matrix.singular_values],
        "rank_tolerance": matrix.rank_tolerance,
        "rank": matrix.numerical_rank,
        "report": {"index": report.index, "dim_kernel": report.dim_kernel,
                   "dim_cokernel": report.dim_cokernel, "well_posed": report.well_posed},
        "kernel": [_complex_json(v) for v in result["kernel"]],
        "cokernel": [_complex_json(v) for v in result["cokernel"]],
    }
    return json.dumps(doc).encode()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write spans here and trace the run")
    parser.add_argument("--result", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    import fredholm_bvp as fb
    from fredholm_bvp import cli

    import_s = time.perf_counter() - start
    if not Path(fb.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"fredholm_bvp was imported from {fb.__file__}, not from {args.src}", file=sys.stderr)
        return 1
    manifest = json.loads(Path(args.manifest).read_text())
    ops = manifest["ops"]
    problems = [_library_problem(fb, op["problem"], op["nodes"]) if "problem" in op else None
                for op in ops]
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    work = Path(args.work)
    tracer = None
    if args.trace:
        import tracing  # only traced runs load the tracer

        tracer = tracing.Tracer()
        tracer.install()
    records = []
    busy = 0.0
    rounds = 0
    while True:
        rounds += 1
        for index, op in enumerate(ops):
            out = work / (f"op{index}.json" if rounds == 1 else f"r{rounds}-op{index}.json")
            argv = [str(out) if arg == "{out}" else arg for arg in op.get("argv", ())]
            error = None
            span = tracer.span(f"op.{op['kind']}") if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    if problems[index] is None:
                        result = cli.main(argv)
                    else:
                        result = _analyze_library(fb, *problems[index])
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
                result = None
            seconds = time.perf_counter() - t0
            busy += seconds
            if problems[index] is None:
                rc = result if error is None else "exception"
                data = out.read_bytes() if out.exists() else b""
                if rounds > 1 and out.exists():
                    out.unlink()
            else:
                rc = 0 if error is None else "exception"
                data = _library_output(result) if error is None else b""
                if rounds == 1:
                    out.write_bytes(data)
            if error:
                print(f"operation {index} ({op['doc']}) raised:\n{error}", file=sys.stderr)
            records.append([rounds, index, rc, seconds, hashlib.sha256(data).hexdigest()])
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif rounds >= MIN_ROUNDS and busy * (1.0 + 0.5 / rounds) >= args.seconds:
            break  # the whole number of rounds closest to --seconds

    result = {
        "import_s": import_s,
        "rounds": rounds,
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(
            tracer.spans, operations=len(records), rounds=rounds,
            problems=rounds * sum(op["problems"] for op in ops),
            scheduled_eps=rounds * sum(op.get("eps", 0) for op in ops))
        Path(args.trace).write_text(json.dumps({
            "fields": ["parent", "name", "start", "end", "tag"],
            "spans": tracer.spans,
        }))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
