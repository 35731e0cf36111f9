"""Record the reference outputs that every benchmark item is checked against.

    python3 perfbench/record.py

Runs every item of every workload's pool and rewrites
``perfbench/reference.json``.  Record only at a
commit whose outputs are known good: a later run counts any difference from
this file as a failed item.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {"tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL}}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="record-", dir=out_dir) as tmp:
            if workload is workloads.CliFit:
                plan = workload(workload.keys(), tmp)
            else:
                plan = workload.setup(0, tmp)
            reference[name] = {key: plan.observe(key, plan.run(key)) for key in workload.keys()}
        print(f"{name}: {len(reference[name])} items in {time.perf_counter() - t0:.1f} s")
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
