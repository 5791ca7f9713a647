"""One measuring process of the benchmark, started by run.py.

It imports ``tsfl`` from the checkout's ``src/``, builds the workload (the
set-up that ``setup_s`` times), then runs repeats, cycling over the
workload's input sets, until ``--seconds`` have passed, and checks every cell
each repeat produced. With ``--trace 1`` it first runs untraced for half the
time, then traced for the other half, and derives the per-layer metrics from
the recorded span trees. Its findings go to ``--result`` as JSON; stdout is
left to the program under test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Every input set runs at least this often, even when --seconds is short.
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import tsfl

    expected = (root / "src" / "tsfl").resolve()
    if Path(tsfl.__file__).resolve().parent != expected:
        raise SystemExit(f"tsfl imported from {tsfl.__file__}, not from {expected}")


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_repeats(workload, reference: dict, seen: dict, seconds: float, traced: bool,
                min_rounds: int):
    """Run and check repeats on input sets 0, 1, ..., 0, 1, ... until
    ``seconds`` have passed and every input set has run ``min_rounds`` times.

    A cell must match ``reference`` (outputs recorded at the seed commit)
    where that has it, and otherwise the first run of the same cell in this
    process, which ``seen`` collects: a run is a pure function of its inputs.
    Returns one summary per repeat and, when traced, the span recorder of
    each repeat (kept until the run ends).
    """
    import tracing
    import workloads

    deadline = time.perf_counter() + seconds
    repeats, recorders = [], []
    cpus = sorted(os.sched_getaffinity(0))
    n = 0
    while n < min_rounds * workload.input_sets or time.perf_counter() < deadline:
        k = n % workload.input_sets
        # The run moves to the next CPU each round: on a shared host one vCPU
        # can run a third slower for a minute while the other does not, and
        # each input set's fastest repeat should see both.
        os.sched_setaffinity(0, {cpus[(n // workload.input_sets) % len(cpus)]})
        n += 1
        gc.collect()
        recorder = tracing.SpanRecorder() if traced else None
        counts: dict = {}
        start = time.perf_counter()
        try:
            if traced:
                with tracing.Instrumentation(recorder):
                    result = recorder.record("bench.repeat", workload.run, k)
                wall = recorder.end[0] - recorder.start[0]
            else:
                result = workload.run(k)
                wall = time.perf_counter() - start
            cells, counts = workload.check(result, k)
        except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
            wall = time.perf_counter() - start
            error = traceback.format_exc(limit=-3)
            cells = [workloads.Cell(key=f"i{k}/cell{i}", error=error)
                     for i in range(workload.cells_per_repeat)]
        for cell in cells:
            if cell.error is None:
                expected = reference.get(cell.key) or seen.setdefault(
                    cell.key, {"final_loss": cell.final_loss, "final_model": cell.final_model})
                cell.error = "; ".join(workloads.reference_errors(cell, expected)) or None
        repeats.append({
            "input_set": k,
            "wall": wall,
            "steps": sum(c.steps for c in cells),
            "cells": [{"key": c.key, "error": c.error} for c in cells],
            "counts": counts,
        })
        if traced:
            recorders.append(recorder)
    os.sched_setaffinity(0, cpus)
    return repeats, recorders


def fastest_per_input_set(repeats) -> list[dict]:
    """The fastest passing repeat of each input set.

    On a shared host the neighbours' load slows whole stretches of a run by up
    to a third; the fastest of several repeats of the same input is what the
    program itself costs. Failed repeats are not timed unless all failed.
    """
    passing = [r for r in repeats if all(c["error"] is None for c in r["cells"])] or repeats
    best: dict[int, dict] = {}
    for r in passing:
        if r["input_set"] not in best or r["wall"] < best[r["input_set"]]["wall"]:
            best[r["input_set"]] = r
    return [best[k] for k in sorted(best)]


def layer_metrics(recorders, repeats) -> dict:
    """Each per-layer metric's values, one per input set: the median over
    that set's traced repeats. The cell spread (``cli.cell_*``) is taken
    over the cells of all traced repeats, as a repeat may hold one cell."""
    import tracing

    per_set: dict[int, list[dict]] = {}
    cells = []
    for recorder, summary in zip(recorders, repeats):
        tree = recorder.spans()
        tracing.check_nesting(tree)
        metrics = {"cli.bytes_written": 0, "cli.files_written": 0}
        metrics.update(tracing.layer_metrics(tree))
        metrics.update(summary["counts"])
        per_set.setdefault(summary["input_set"], []).append(metrics)
        cells += tracing.cell_durations(tree)
    sets = [per_set[k] for k in sorted(per_set)]
    values = {name: [statistics.median(m[name] for m in ms) for ms in sets] for name in sets[0][0]}
    values.update({name: [v] for name, v in tracing.cell_metrics(cells).items()})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory for outputs")
    parser.add_argument("--result", required=True, help="file to write the findings to")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; used to sample setup_s")
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ready = time.perf_counter()
    out = {"ready": ready}
    if not args.setup_only:
        ref_path = Path(__file__).resolve().parent / "reference.json"
        reference = json.loads(ref_path.read_text(encoding="utf-8"))
        reference = reference["workloads"].get(args.workload, {}).get(str(args.seed), {})
        seen: dict = {}
        if args.trace:
            half = args.seconds / 2.0
            untraced, _ = run_repeats(workload, reference, seen, half, False, MIN_TRACED_ROUNDS)
            traced, recorders = run_repeats(workload, reference, seen, half, True,
                                            MIN_TRACED_ROUNDS)
            repeats = untraced + traced
            layers = layer_metrics(recorders, traced)
            layers["trace.overhead_s"] = [
                statistics.fmean(r["wall"] for r in fastest_per_input_set(traced))
                - statistics.fmean(r["wall"] for r in fastest_per_input_set(untraced))
            ]
            out["layers"] = layers
        else:
            repeats, _ = run_repeats(workload, reference, seen, args.seconds, False, MIN_ROUNDS)
            out["fastest"] = fastest_per_input_set(repeats)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.update(
            repeats=repeats,
            peak_rss_mb=usage / 1024.0,
            env=_environment(),
            reference_checked=sum(c["key"] in reference for r in repeats for c in r["cells"]),
        )
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
