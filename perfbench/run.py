#!/usr/bin/env python3
"""The tsfl benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload logistic-matrix --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics of
a traced run. Output: one table row per metric (the reported value, then
median, quartiles, min, max and count of its raw samples), a ``record`` line
holding the same as JSON with the environment, and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.

Every measurement happens in a fresh child process (measure.py) with BLAS
and OpenMP pinned to one thread. ``setup_s`` is sampled from several
processes: the time from launching one to its first timed cell.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Set-up-only processes started besides the measuring one, half before and
# half after it, so they sample the host at both ends of the run; setup_s is
# the median of all of them.
SETUP_PROBES = 8
# A whole invocation ends within this many seconds, children included.
TIME_LIMIT = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def stats(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0],
            "max": values[-1], "n": len(values)}


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_child(root: Path, workdir: Path, args: list[str], deadline: float) -> dict:
    """Run measure.py to completion and return its findings plus its setup_s."""
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "measure.py"), *args,
           "--workdir", str(workdir / "out"), "--result", str(result)]
    env = dict(os.environ, **PINNED_ENV, TMPDIR=str(workdir / "tmp"))
    start = time.perf_counter()
    # Its own session, so anything it starts goes down with it on a timeout.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"measure.py {' '.join(args)} ran past the time limit") from None
        raise
    if code != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited with {code}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    data["setup_s"] = data["ready"] - start
    return data


def run_workload(root: Path, definition: dict, workload: str, seed: int, seconds: float,
                 trace: int, deadline: float) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, full record)."""
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = [run_child(root, workdir, base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        data = run_child(root, workdir, base + ["--seconds", str(seconds), "--trace", str(trace)],
                         deadline)
        setups += [run_child(root, workdir, base + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    setups.append(data["setup_s"])

    repeats = data["repeats"]
    cells = [cell for r in repeats for cell in r["cells"]]
    failures = [f"{c['key']}: {c['error']}" for c in cells if c["error"] is not None]
    if trace:
        declared = definition["per_layer"]
        samples = data["layers"]
        # One value per input set; their mean, as wall_s is.
        values = {name: statistics.fmean(v) for name, v in samples.items()}
    else:
        declared = definition["end_to_end"]
        fastest = data["fastest"]
        samples = {
            "setup_s": setups,
            "wall_s": [r["wall"] for r in repeats],
            "sgd_steps_per_s": [r["steps"] / r["wall"] for r in repeats],
            "peak_rss_mb": [data["peak_rss_mb"]],
        }
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(r["wall"] for r in fastest),
            "sgd_steps_per_s": sum(r["steps"] for r in fastest) / sum(r["wall"] for r in fastest),
            "peak_rss_mb": data["peak_rss_mb"],
        }
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(samples):
        raise BenchError(f"measured {sorted(samples)}, declared {sorted(names)}")
    summary = {m["name"]: dict(stats(samples[m["name"]]), value=values[m["name"]], unit=m["unit"])
               for m in declared}
    result = {
        "correct": not failures,
        "attempted": len(cells),
        "failed": len(failures),
        "metrics": {name: {"value": s["value"], "unit": s["unit"]} for name, s in summary.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "repeats": len(repeats),
        "attempted": len(cells),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(cells),
        "reference_cells_checked": data["reference_checked"],
        "metrics": summary,
        "failures": failures[:5],
        "env": dict(data["env"], **source_identity(root)),
    }
    return result, record


def print_report(record: dict, result: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"repeats={record['repeats']}  cells={record['attempted']}  "
          f"reference-checked={record['reference_cells_checked']}")
    for name, s in record["metrics"].items():
        print(f"{name:<46} {s['value']:>14.6g} {s['unit']:<8} median={s['median']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g} max={s['max']:.6g} n={s['n']}")
    print(f"{'failed_ratio':<46} {record['failed_ratio']:>14.6g} 1")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        definition = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (1 is the development seed, 2 the held-out one)")
    parser.add_argument("--seconds", type=float, default=float(definition["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "tsfl" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/tsfl is missing", file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            deadline = time.perf_counter() + TIME_LIMIT
            result, record = run_workload(root, definition, workload, args.seed, args.seconds,
                                          args.trace, deadline)
            print_report(record, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
