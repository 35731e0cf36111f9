"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1 2 3 [--out FILE]

Runs one ``run.py`` process at a time, from the root of the checkout, and
waits for each, on every workload for ``run_seconds`` of ``BENCHMARK.json``.
For every workload and end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``,
and adds the per-layer metrics of one traced run on seed 1.  The summary goes
to standard output, and to ``--out`` as JSON when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    seconds = BENCHMARK["run_seconds"]
    out = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        out.setdefault("header", runs[0][1]["header"])
        entry = {
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "tail_percentile": [rec["tail_percentile"] for _, rec in runs],
            "end_to_end": {},
        }
        for name, metric in runs[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            entry["end_to_end"][name] = {"unit": metric["unit"], **_summary(values)}
        result, record = _run(workload, TRACE_SEED, seconds, 1)
        entry["traced"] = {
            "seed": TRACE_SEED,
            "correct": result["correct"],
            "items_per_pass": record["items_per_pass"],
            "self_checks_failed": record["self_checks_failed"],
            "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
        }
        out["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<12} median {s['median']:.6g} {s['unit']:<8} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
