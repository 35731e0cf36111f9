"""vlmcx benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload mc_tuned --seed 1 --seconds 30 --trace 0

``--trace 0`` runs closed-loop items (one client: the next item starts when
the previous one ends) for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of items once as a warm-up, then in two
rounds in which each item runs untraced and traced back to back.  It prints
the per-layer metrics of the first round's traced runs; the second round's
must repeat every count exactly.  End-to-end metrics never come from a traced
run.

Times are reported in reference-host seconds (see ``calibrate.py``): each
timed interval is scaled by the workload's calibration kernel, timed just
before and after it, so that a host slowed by other jobs does not read as a
slower program.  Raw times are kept in the run record.

Every item's output is checked against ``reference.json``.  Generated inputs
and reports live in a temporary directory under ``.perfbench_out/`` and are
removed at exit; the run record (header, metrics, failures) and, for traced
runs, the spans are written to ``.perfbench_out/``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_tuned", "cli_fit", "simulate_score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _git(*cmd) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _header(args, numpy_version: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vlmcx").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "python_threads": threading.active_count(),
        "loop": "closed, 1 client",
    }


def _import_time() -> float:
    """Seconds to import numpy and vlmcx in a fresh interpreter.

    Run after the peak RSS is read, so these children do not count in it."""
    code = ("import time; t = time.perf_counter(); import numpy, vlmcx, vlmcx.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of the children it has reaped so far;
    read before the header's git probes and the import timings start any."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _run_items(plan, cal, count=None, seconds=None, tracer=None, first_item=0):
    """Run the plan's items in order from ``first_item``: ``count`` of them, or
    as many as start within ``seconds``, with a calibration sample after each.
    Returns (raw latencies, reference-host latencies, observations, kernel
    samples)."""
    raw, scaled, observed = [], [], []
    first = len(cal.samples)
    before = cal.sample()
    start = time.perf_counter()
    i = first_item
    while i - first_item < count if count is not None else time.perf_counter() - start < seconds:
        key = plan.item(i)
        if tracer is not None:
            tracer.begin_item(i)
        latency, obs = _one_item(plan, key)
        after = cal.sample()
        raw.append(latency)
        scaled.append(cal.to_reference(latency, before, after))
        observed.append((key, obs))
        before = after
        i += 1
    return raw, scaled, observed, cal.samples[first:]


def _repeat(cal, reps, fn):
    """Call ``fn(rep)``, which returns (result, seconds), ``reps`` times between
    calibration samples.  Returns (last result, raw seconds, reference-host
    seconds)."""
    result, raw, scaled = None, [], []
    before = cal.sample()
    for rep in range(reps):
        result, seconds = fn(rep)
        after = cal.sample()
        raw.append(seconds)
        scaled.append(cal.to_reference(seconds, before, after))
        before = after
    return result, raw, scaled


def _one_item(plan, key):
    t0 = time.perf_counter()
    try:
        output = plan.run(key)
    except Exception as exc:  # an item that raises counts as failed; the run goes on
        return time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
    latency = time.perf_counter() - t0
    try:
        return latency, plan.observe(key, output)
    except Exception as exc:
        return latency, {"error": f"output unreadable: {type(exc).__name__}: {exc}"}


def _failures(workload, reference, observed) -> list[str]:
    out = []
    for key, obs in observed:
        if "error" in obs:
            out.append(f"{key}: {obs['error']}")
            continue
        ref = reference.get(key)
        bad = ["no reference output"] if ref is None else workload.check(obs, ref)
        if bad:
            out.append(f"{key}: " + "; ".join(bad[:5]))
    return out


def _timed(workload, plan, seconds, reference, cal):
    raw, latencies, observed, kernel_s = _run_items(plan, cal, seconds=seconds)
    n = len(latencies)
    tail_index = max(0, n - 1 - TAIL_BEYOND)

    def summary(values):
        return n / sum(values), statistics.median(values), sorted(values)[tail_index]

    failures = _failures(workload, reference, observed)
    per_s, p50, tail = summary(latencies)
    metrics = {
        "items_per_s": (per_s, "items/s"),
        "item_s_p50": (p50, "s"),
        "item_s_tail": (tail, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    info = {
        "items": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples": n,
        "failed_ratio": len(failures) / n,
        "raw": dict(zip(("items_per_s", "item_s_p50", "item_s_tail"), summary(raw))),
        "item_latencies_s": [[key, t, r] for (key, _), t, r in zip(observed, latencies, raw)],
        "kernel_samples_s": kernel_s,
    }
    return n, failures, [], metrics, info


def _traced(workload, plan, reference, cal, spans_path):
    import spans

    count = workload.TRACE_ITEMS
    # A warm-up pass takes first-call costs out of the comparison.  Then, in
    # each of two rounds, every item runs untraced and traced back to back,
    # untraced first in the first round and traced first in the second, so
    # that run order weighs on both alike and host drift has little time to
    # act within a pair.  Each round has its own tracer.  A pair compares raw
    # wall times: it needs no calibration, and the short kernel samples would
    # add noise of their own.
    _, _, observed, _ = _run_items(plan, cal, count=count)
    tracers = [spans.Tracer(), spans.Tracer()]
    pair_ratios = []
    raw_traced, scaled_traced, traced_obs = [], [], []
    for rnd, tracer in enumerate(tracers):
        for i in range(count):
            wall = {}
            for traced in ((False, True) if rnd == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    raw, scaled, obs, _ = _run_items(plan, cal, count=1, first_item=i,
                                                     tracer=tracer if traced else None)
                finally:
                    tracer.uninstall()
                observed += obs
                wall[traced] = raw[0]
                if traced and rnd == 0:
                    raw_traced += raw
                    scaled_traced += scaled
                    traced_obs += obs
            pair_ratios.append(wall[True] / wall[False])
    tracer = tracers[0]
    tracer.write(spans_path)
    counts = tracer.counts()
    calls, self_s, total_s = tracer.self_times()

    checks = []
    again = tracers[1].counts()
    if again != counts:
        diff = sorted(k for k in set(counts) | set(again) if counts.get(k) != again.get(k))
        checks.append(f"counts differ between two traced rounds: {diff}")
    want = sum(workload.generate_calls(plan.item(i)) for i in range(count))
    if calls["simulate.generate"] != want:
        checks.append(f"simulate.generate.calls {calls['simulate.generate']} != {want} "
                      f"MC runs plus sequences")
    if workload.name == "cli_fit":
        tested = sum(obs.get("tested", 0) for _, obs in traced_obs)
        if calls["stats.lrt"] != tested:
            checks.append(f"stats.lrt.calls {calls['stats.lrt']} != {tested} tested audit records")

    def per(num, den, factor=1.0):
        return factor * num / den if den else 0.0

    scale = sum(scaled_traced) / sum(raw_traced)
    self_s = Counter({name: t * scale for name, t in self_s.items()})

    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    fits = calls["glm.fit_leaf"]
    iters = counts.get("glm.fit_leaf.newton_iters", 0)
    values = {}
    for name in units:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[layer]
        elif field == "self_s":
            values[name] = self_s[layer]
        else:
            values[name] = counts.get(name, 0)
    values.update({
        "glm.fit_leaf.us_per_call": per(self_s["glm.fit_leaf"], fits, 1e6),
        "glm.fit_leaf.us_per_iter": per(self_s["glm.fit_leaf"], iters, 1e6),
        "glm.fit_leaf.unique_ratio": per(counts["glm.fit_leaf.distinct"], fits),
        "simulate.generate.us_per_step": per(
            total_s["simulate.generate"] * scale, counts.get("simulate.generate.steps", 0), 1e6),
        "trace.overhead_ratio": statistics.median(pair_ratios),
    })
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    failures = _failures(workload, reference, observed)
    info = {
        "items_per_pass": count,
        "overhead_pair_ratios": pair_ratios,
        "overhead_quartiles": statistics.quantiles(pair_ratios, n=4),
        "time_scale": scale,
        "counts": counts,
        "design_cells": "computed: rows x columns x (newton iterations + 1)",
        "us_per_step": "inclusive generate time over simulated steps, burn-in included",
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return len(observed), failures, checks, metrics, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import vlmcx
    except ImportError as exc:
        print(f"error: cannot import vlmcx from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(vlmcx.__file__).resolve().parent != ROOT / "src" / "vlmcx":
        print(f"error: vlmcx imported from {vlmcx.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads
    from calibrate import REFERENCE_S, Calibration

    workload = workloads.WORKLOADS[args.workload]
    try:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference outputs for {workload.name}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    cal = Calibration(workload.KERNEL)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:

        def one_setup(rep):
            workdir = os.path.join(tmp, f"setup{rep}")
            os.mkdir(workdir)
            t0 = time.perf_counter()
            plan = workload.setup(args.seed, workdir)
            return plan, time.perf_counter() - t0

        plan, setup_raw, setup_scaled = _repeat(cal, SETUP_REPS, one_setup)
        if args.trace:
            result = _traced(workload, plan, reference, cal, OUT_DIR / f"{tag}.spans.csv.gz")
        else:
            result = _timed(workload, plan, args.seconds, reference, cal)
    attempted, failures, checks, metrics, info = result
    # After the peak RSS is read: the git probes are children of this process.
    header = _header(args, numpy.__version__)
    print("header: " + json.dumps(header, sort_keys=True), flush=True)
    if not args.trace:
        _, import_raw, import_scaled = _repeat(cal, SETUP_REPS, lambda rep: (None, _import_time()))
        setup_s = statistics.median(import_scaled) + statistics.median(setup_scaled)
        metrics["setup_s"] = (setup_s, "s")
        info["raw"]["setup_s"] = statistics.median(import_raw) + statistics.median(setup_raw)
        info["import_reps_s"] = import_raw
    record = {
        "header": header,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "self_checks_failed": checks,
        "setup_reps_s": setup_raw,
        "calibration": {"kernel": cal.kernel, "reference_s": REFERENCE_S[cal.kernel],
                        "median_s": statistics.median(cal.samples), "samples": len(cal.samples)},
        "wall_since_start_s": time.perf_counter() - _T_START,
        **info,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for line in failures[:10] + checks:
        print(f"FAIL {line}")
    if args.trace:
        print(f"{workload.name}: {info['items_per_pass']} items x 2 traced rounds, "
              f"overhead {metrics['trace.overhead_ratio'][0]:.3f}, "
              f"self-checks {'failed' if checks else 'passed'}")
    else:
        print(f"{workload.name}: {info['items']} items, "
              f"tail = p{info['tail_percentile']:.1f} of {info['tail_samples']} samples, "
              f"failed_ratio {info['failed_ratio']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result_line = {
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result_line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
