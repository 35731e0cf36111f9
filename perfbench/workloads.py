"""The three benchmark workloads and their output checks.

Every workload draws its items from a fixed pool whose outputs were recorded
once in ``reference.json`` (see ``record.py``).  The workload seed only picks
the order in which a run walks the pool, so any seed gives inputs that have a
reference, and the same seed always gives the same inputs.  The
``mc_tuned`` and ``simulate_score`` pools are a few times larger than one run
consumes, so a run repeats none of their items unless the program gets
several times faster; it then wraps around.  ``cli_fit`` is the exception:
set-up writes only ``CliFit.DATASETS`` (8) CSVs, about 0.3 s each, and the run
cycles through them, so a 30 s run fits each input about 3.5 times.  A memo
that outlives one ``cli.main`` call would show there as a gain.

Each workload exposes:

* ``KERNEL``: the calibration kernel that matches its working set;
* ``keys()``: every pool key, for recording the reference;
* ``setup(seed, workdir)``: builds the inputs, returns the plan (an instance);
* ``plan.item(i)``: the key of the ``i``-th item of the run;
* ``generate_calls(key)``: how many times the item calls ``generate``;
* ``plan.run(key)``: the timed call into the package;
* ``plan.observe(key, output)``: the record compared against the reference;
* ``check(observed, reference)``: list of mismatches (empty when equal).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random

import numpy as np

import vlmcx
import vlmcx.cli

# Criteria and log-likelihoods may move by floating-point reordering only;
# decisions (trees, lag counts, audit actions) must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-6


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _permutation(seed: int, salt: str, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


def tri_model() -> vlmcx.ModelSpec:
    """3-state, 2-covariate generating tree with leaves at depth 1 and 2."""

    def block(alpha, beta):
        return vlmcx.ParamBlock(
            alpha=np.array(alpha, dtype=float),
            beta=np.array(beta, dtype=float).reshape(2, -1, 2),
        )

    none = np.zeros((2, 0, 2))
    leaves = {
        (0, 0): block([0.4, -0.3], [[[1.0, 0.0], [0.5, 0.0]], [[0.0, -1.0], [0.0, 0.0]]]),
        (0, 1): block([-0.2, 0.1], [[[0.8, 0.4]], [[-0.6, 0.0]]]),
        (0, 2): block([0.0, 0.5], none),
        (1,): block([0.3, 0.2], [[[-1.2, 0.0]], [[0.0, 0.9]]]),
        (2, 0): block([-0.5, 0.4], [[[0.0, 0.7], [0.3, 0.0]], [[1.1, 0.0], [0.0, 0.0]]]),
        (2, 1): block([0.2, -0.4], none),
        (2, 2): block([0.1, 0.1], [[[0.5, -0.5]], [[0.0, 0.0]]]),
    }
    nodes = dict(leaves)
    for u in leaves:
        for k in range(len(u)):
            nodes.setdefault(u[:k], None)
    return vlmcx.ModelSpec(tree=vlmcx.ContextTree(p=3, d=2, nodes=nodes))


def _spec(model: str) -> vlmcx.ModelSpec:
    return tri_model() if model == "tri" else vlmcx.builtin_model(model)


# -- mc_tuned -------------------------------------------------------------------


class McTuned:
    """Tuned Monte-Carlo studies under the Tier-1 acceptance protocol."""

    name = "mc_tuned"
    KERNEL = "small"  # calibration kernel, see calibrate.py
    # (model, n, runs per study): model2 at n=1000 fits in about half the time
    # of the others, so its studies take twice the runs and all items cost
    # about the same; the median then sits inside one cluster of latencies.
    STUDIES = (("model2", 1000, 4), ("model1", 2000, 2), ("model3", 2000, 2))
    SEED_STRIDE = 4  # at least the largest run count, so studies share no seed
    POOL = 40  # studies per model; a 30 s run uses about 8 of each
    TRACE_ITEMS = 6

    @classmethod
    def keys(cls) -> list[str]:
        return [cls._key(c, j) for c in range(len(cls.STUDIES)) for j in range(cls.POOL)]

    @classmethod
    def _key(cls, c: int, j: int) -> str:
        model, n, runs = cls.STUDIES[c]
        return f"{model}-n{n}-r{runs}-b{1_000_000 + j * cls.SEED_STRIDE}"

    @staticmethod
    def generate_calls(key: str) -> int:
        return int(key.split("-")[2][1:])

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "McTuned":
        return cls(seed)

    def __init__(self, seed: int):
        self.specs = {model: vlmcx.builtin_model(model) for model, _, _ in self.STUDIES}
        self.grid = vlmcx.TuningGrid(base=vlmcx.FitConfig(ic_include_intercepts=True))
        self.order = [_permutation(seed, f"mc{c}", self.POOL) for c in range(len(self.STUDIES))]

    def item(self, i: int) -> str:
        c = i % len(self.STUDIES)
        return self._key(c, self.order[c][(i // len(self.STUDIES)) % self.POOL])

    def run(self, key: str):
        model, n, runs, base = key.split("-")
        return vlmcx.monte_carlo(
            self.specs[model], int(n[1:]), int(runs[1:]), self.grid, base_seed=int(base[1:])
        )

    def observe(self, key: str, summary) -> dict:
        return {
            "failures": summary.failures,
            "selected": dict(sorted(summary.selected.items())),
            "runs": [em.to_dict() for em in summary.per_run],
        }

    @staticmethod
    def check(obs: dict, ref: dict) -> list[str]:
        bad = []
        if obs["failures"] != 0:
            bad.append(f"{obs['failures']} failed runs")
        if obs["selected"] != ref["selected"]:
            bad.append(f"selected {obs['selected']} != {ref['selected']}")
        if len(obs["runs"]) != len(ref["runs"]):
            return bad + [f"{len(obs['runs'])} runs != {len(ref['runs'])}"]
        for i, (o, r) in enumerate(zip(obs["runs"], ref["runs"])):
            for field, want in r.items():
                got = o[field]
                same = _close(got, want) if isinstance(want, float) else got == want
                if not same:
                    bad.append(f"run {i} {field} {got!r} != {want!r}")
        return bad


# -- cli_fit --------------------------------------------------------------------


class CliFit:
    """`vlmcx fit` on CSVs simulated from the 3-state model."""

    name = "cli_fit"
    KERNEL = "large"
    ROWS = 10_000
    POOL = 48  # datasets; a run writes DATASETS of them and cycles through them
    DATASETS = 8
    TRACE_ITEMS = 4
    INGEST = {"target": {"column": "y"}, "covariates": [{"column": "x1"}, {"column": "x2"}]}

    @classmethod
    def keys(cls) -> list[str]:
        return [cls._key(j) for j in range(cls.POOL)]

    @classmethod
    def _key(cls, j: int) -> str:
        return f"tri-n{cls.ROWS}-s{2_000_000 + j}"

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "CliFit":
        keys = [cls._key(j) for j in _permutation(seed, "cli", cls.POOL)[: cls.DATASETS]]
        return cls(keys, workdir)

    def __init__(self, keys: list[str], workdir: str):
        self.keys_used = keys
        self.workdir = workdir
        self.ingest = os.path.join(workdir, "ingest.json")
        with open(self.ingest, "w", encoding="utf-8") as fh:
            json.dump(self.INGEST, fh)
        spec = tri_model()
        for key in keys:
            data = vlmcx.generate(spec, self.ROWS, int(key.rsplit("-s", 1)[1]))
            with open(self._csv(key), "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["y", "x1", "x2"])
                for y, row in zip(data.states.tolist(), data.covariates.tolist()):
                    writer.writerow([y] + [repr(v) for v in row])

    def _csv(self, key: str) -> str:
        return os.path.join(self.workdir, f"{key}.csv")

    def _report(self, key: str) -> str:
        return os.path.join(self.workdir, f"{key}.report.json")

    def item(self, i: int) -> str:
        return self.keys_used[i % len(self.keys_used)]

    @staticmethod
    def generate_calls(key: str) -> int:
        return 0

    def run(self, key: str):
        argv = ["fit", "--data", self._csv(key), "--ingest", self.ingest,
                "--report", self._report(key)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = vlmcx.cli.main(argv)
        return code, sink.getvalue()

    def observe(self, key: str, output) -> dict:
        code, text = output
        if code != 0:
            return {"exit": code, "message": text[-500:]}
        with open(self._report(key), encoding="utf-8") as fh:
            report = json.load(fh)
        leaves = sorted((tuple(leaf["context"]), leaf["h"]) for leaf in report["leaves"])
        nodes = sorted({u[:k] for u, _ in leaves for k in range(len(u) + 1)})
        audit = [(a["test"], a["contexts"], a["lag"], a["action"]) for a in report["audit"]]
        crit = report["criteria"]
        return {
            "exit": code,
            "n_nodes": len(nodes),
            "n_leaves": len(leaves),
            "n_audit": len(audit),
            "nodes": _digest(nodes),
            "leaf_lags": _digest(leaves),
            "audit_actions": _digest(audit),
            "tested": sum(1 for a in report["audit"] if a["statistic"] is not None),
            "loglik": crit["loglik"],
            "aic": crit["aic"],
            "bic": crit["bic"],
        }

    @staticmethod
    def check(obs: dict, ref: dict) -> list[str]:
        if obs["exit"] != 0:
            return [f"exit code {obs['exit']}: {obs.get('message', '')}"]
        bad = []
        for field in ("n_nodes", "n_leaves", "n_audit", "nodes", "leaf_lags",
                      "audit_actions", "tested"):
            if obs[field] != ref[field]:
                bad.append(f"{field} {obs[field]!r} != {ref[field]!r}")
        for field in ("loglik", "aic", "bic"):
            if not _close(obs[field], ref[field]):
                bad.append(f"{field} {obs[field]!r} != {ref[field]!r}")
        return bad


# -- simulate_score -----------------------------------------------------------------


class SimulateScore:
    """`generate` a sequence, then `log_likelihood` under the generating tree."""

    name = "simulate_score"
    KERNEL = "small"
    MODELS = ("model1", "model2", "model3", "tri")
    STEPS = 5000
    POOL = 400  # sequences per model; a 30 s run uses about 55 of each
    TRACE_ITEMS = 40

    @classmethod
    def keys(cls) -> list[str]:
        return [cls._key(c, j) for c in range(len(cls.MODELS)) for j in range(cls.POOL)]

    @classmethod
    def _key(cls, c: int, j: int) -> str:
        return f"{cls.MODELS[c]}-n{cls.STEPS}-s{3_000_000 + j}"

    @classmethod
    def setup(cls, seed: int, workdir: str) -> "SimulateScore":
        return cls(seed)

    def __init__(self, seed: int):
        self.specs = {model: _spec(model) for model in self.MODELS}
        self.order = [_permutation(seed, f"sim{c}", self.POOL) for c in range(len(self.MODELS))]

    def item(self, i: int) -> str:
        c = i % len(self.MODELS)
        return self._key(c, self.order[c][(i // len(self.MODELS)) % self.POOL])

    @staticmethod
    def generate_calls(key: str) -> int:
        return 1

    def run(self, key: str):
        model, n, seed = key.split("-")
        spec = self.specs[model]
        data = vlmcx.generate(spec, int(n[1:]), int(seed[1:]))
        return data, vlmcx.log_likelihood(spec.tree, data)

    def observe(self, key: str, output) -> dict:
        data, loglik = output
        states = np.ascontiguousarray(data.states, dtype="<i8")
        return {
            "states": hashlib.sha256(states.tobytes()).hexdigest()[:32],
            "n": int(states.size),
            "loglik": float(loglik),
        }

    @staticmethod
    def check(obs: dict, ref: dict) -> list[str]:
        bad = [f"{f} {obs[f]!r} != {ref[f]!r}" for f in ("states", "n") if obs[f] != ref[f]]
        if not _close(obs["loglik"], ref["loglik"]):
            bad.append(f"loglik {obs['loglik']!r} != {ref['loglik']!r}")
        return bad


WORKLOADS = {w.name: w for w in (McTuned, CliFit, SimulateScore)}
