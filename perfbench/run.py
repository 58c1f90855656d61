"""Benchmark of fredholm-bvp: two seeded in-process workloads.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout.  It generates the workload's inputs
from the seed, starts the workload process (``worker.py``) several times
to time set-up, runs the operations in one process for ``--seconds``,
checks every output against the references in ``reference.py`` and the
properties in ``checks.py``, and prints one JSON object as its last line
of output.  With ``--trace 1`` it runs the same rounds a second time with
spans around the program's public functions and prints the per-layer
metrics instead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
SCIPY_PROBES = 3
SETUP_TIMEOUT = 60.0
RUN_TIMEOUT = 150.0


class BenchmarkError(Exception):
    pass


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(root: Path, work: Path, manifest: Path, extra: list[str],
                 importtime: bool = False) -> tuple[float, float, str]:
    """Run one workload process; returns set-up seconds, import seconds and its stderr.

    Set-up is the time from spawning the process to its READY line.
    """
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--work", str(work), "--src", str(root / "src"), *extra]
    stderr_path = work / f"worker-{time.monotonic_ns()}.stderr"
    with open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=_environment(root), stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            if line.startswith("READY "):
                proc.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            _stop(proc)
    log = stderr_path.read_text()
    if not line.startswith("READY ") or proc.returncode != 0:
        raise BenchmarkError(f"workload process failed (exit status {proc.returncode}):\n"
                             + log[-3000:])
    return setup, float(line.split()[1]), log


def scipy_import_seconds(importtime_log: str) -> float:
    """Sum of the self times of scipy's modules in ``-X importtime`` output."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if (name == "scipy" or name.startswith("scipy.")) and fields[0].strip().isdigit():
            total_us += int(fields[0])
    return total_us / 1e6


# ---------------------------------------------------------------------------
# checking


def check_outputs(spec: dict, work: Path) -> tuple[dict, float]:
    """Errors per operation index (round-one outputs) and the largest matrix deviation."""
    errors: dict[int, list[str]] = {}
    worst = 0.0
    for index, op in enumerate(spec["ops"]):
        path = work / f"op{index}.json"
        if not path.exists() or path.stat().st_size == 0:
            if op.get("expect_rc", 0) != 1:
                errors[index] = ["no output"]
            continue
        out = json.loads(path.read_text())
        kind = op["kind"]
        if kind == "family":
            found = checks.check_family(out, spec["families"][op["doc"]])
        else:
            model, expected = spec["models"][op["doc"]]
            deviation = 0.0
            if kind == "analyze":
                found, deviation = checks.check_analyze(out, model, expected, op["nodes"])
            elif kind == "analyze-lib":
                found, deviation = checks.check_library(out, model, expected, op["nodes"])
            elif kind == "oracle-check":
                found, deviation = checks.check_oracle(out, model, op["nodes"])
            else:
                found = checks.check_solve(out, model, op["nodes"])
            worst = max(worst, deviation)
        if found:
            errors[index] = found
    return errors, worst


def failed_records(records, ops, errors, reference_digests) -> list[str]:
    """Every operation run that failed, with the reason."""
    failures = []
    for rnd, index, rc, _, digest in records:
        op = ops[index]
        reason = None
        if rc != op.get("expect_rc", 0):
            reason = f"exit status {rc}, expected {op.get('expect_rc', 0)}"
        elif index in errors:
            reason = "; ".join(errors[index])
        elif digest != reference_digests[index]:
            reason = "output differs from the first round's"
        if reason:
            failures.append(f"round {rnd} op {index} {op['kind']} {op['doc']}: {reason}")
    return failures


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fredholm_bvp" / "__init__.py").is_file() or \
            not (root / "docs" / "samples").is_dir():
        print("run from the root of a fredholm-bvp checkout (src/ and docs/samples/ missing)",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        return _run(args, root, work, out_dir)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path, out_dir: Path) -> int:
    spec = inputs.WORKLOADS[args.workload](args.seed, work, root)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"ops": spec["ops"]}))
    ops = spec["ops"]

    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup, import_s, _ = start_worker(root, work, manifest, ["--setup-only"])
        setups.append(setup)
        imports.append(import_s)
    # -X importtime slows the import it splits, so it only gives the scipy share.
    scipy_s = [scipy_import_seconds(start_worker(root, work, manifest, ["--setup-only"],
                                                 importtime=True)[2])
               for _ in range(SCIPY_PROBES if args.trace else 0)]

    # A traced run splits --seconds between the untraced and the traced rounds.
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    result_path = work / "result.json"
    setup, import_s, _ = start_worker(root, work, manifest, [
        "--seconds", repr(untraced_seconds), "--result", str(result_path)])
    setups.append(setup)
    imports.append(import_s)
    run = json.loads(result_path.read_text())
    records = run["records"]
    first = {index: digest for rnd, index, _, _, digest in records if rnd == 1}

    traced = None
    if args.trace:
        traced_work = work / "traced"
        traced_work.mkdir()
        traced_path = work / "traced.json"
        start_worker(root, traced_work, manifest, [
            "--rounds", str(run["rounds"]), "--result", str(traced_path),
            "--trace", str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")])
        traced = json.loads(traced_path.read_text())

    errors, ref_err = check_outputs(spec, work)
    failures = failed_records(records, ops, errors, first)
    attempted = len(records)
    if traced is not None:
        failures += [f"traced {f}" for f in failed_records(traced["records"], ops, errors, first)]
        attempted += len(traced["records"])
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    times = [seconds for _, _, _, seconds, _ in records]
    if traced is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    else:
        traced_total = sum(seconds for _, _, _, seconds, _ in traced["records"])
        print(f"operations: {len(times)}; untraced total {sum(times):.4f} s; "
              f"traced total {traced_total:.4f} s")
        layers = dict(traced["layers"])
        layers["import.total_s"] = statistics.median(imports)
        layers["import.scipy_s"] = statistics.median(scipy_s)
        layers["characteristic.ref_err_max"] = ref_err
        layers["trace.overhead_s"] = (traced_total - sum(times)) / len(times)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in _per_layer_units().items()}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "setups": setups, "rounds": run["rounds"], "failures": failures,
                    "records": records}, indent=1))
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict:
    """Name and unit of every per-layer metric, in BENCHMARK.json's order."""
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
