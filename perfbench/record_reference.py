"""Record the reference outputs that the correctness gate compares against.

Run from the repository root at a commit whose results are trusted:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/record_reference.py

It runs every input set of every workload for workload seeds ``SEEDS`` and
writes the cells' final losses and final models to reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    workdir = Path.cwd() / ".perfbench" / "reference"
    reference = {}
    try:
        for name, factory in workloads.WORKLOADS.items():
            for seed in SEEDS:
                workload = factory(seed, workdir)
                cells = {}
                for k in range(workload.input_sets):
                    for cell in workload.check(workload.run(k), k)[0]:
                        if cell.error:
                            raise SystemExit(f"{name} seed {seed} {cell.key}: {cell.error}")
                        cells[cell.key] = {"final_loss": cell.final_loss,
                                           "final_model": cell.final_model}
                reference.setdefault(name, {})[str(seed)] = cells
                print(f"{name} seed {seed}: {len(cells)} cells", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = json.dumps({"workloads": reference}, indent=1)
    (HERE / "reference.json").write_text(payload + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
