"""In-memory span tracer wrapped around the package's layer boundaries.

``from .x import y`` binds ``y`` into the importing module, so a function is
wrapped under every module attribute that refers to it (``vlmcx.algorithm.
fit_leaf`` as well as ``vlmcx.glm.fit_leaf``).  Each call records a span:
name, start, end, parent span and item id.  ``ContextTree.lookup`` runs once
per simulated or scored step, so its calls are folded into the enclosing span
as a count and a total time instead of one span each; it calls nothing that
is traced, so its total time is its self time.

Self time of a span is its duration minus the time its child spans (and
folded lookups) cover.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import vlmcx
from vlmcx.errors import NotConverged

# (span name, module, attribute); layers are the package modules.
TRACED = (
    ("glm.fit_leaf", "vlmcx.glm", "fit_leaf"),
    ("glm.log_likelihood", "vlmcx.glm", "log_likelihood"),
    ("glm.transition_distribution", "vlmcx.glm", "transition_distribution"),
    ("stats.lrt", "vlmcx.stats", "lrt"),
    ("stats.chi2_sf", "vlmcx.stats", "chi2_sf"),
    ("core.count_occurrences", "vlmcx.core", "count_occurrences"),
    ("algorithm.fit", "vlmcx.algorithm", "fit"),
    ("algorithm.select_tuning", "vlmcx.algorithm", "select_tuning"),
    ("simulate.generate", "vlmcx.simulate", "generate"),
    ("simulate.monte_carlo", "vlmcx.simulate", "monte_carlo"),
    ("simulate.compare_trees", "vlmcx.simulate", "compare_trees"),
    ("cli.main", "vlmcx.cli", "main"),
    ("cli.ingest", "vlmcx.cli", "ingest"),
)
LOOKUP = "core.ContextTree.lookup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.item = -1
        self.folded_calls = Counter()  # parent span -> lookups
        self.folded_time = defaultdict(float)
        self.counters = Counter()
        self._fits_seen: set = set()
        self._x_digest: dict[int, tuple] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self._x_digest.clear()

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, out, None)
            return out

        return wrapper

    def _folded(self, fn):
        stack, clock = self.stack, time.perf_counter
        calls, spent = self.folded_calls, self.folded_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = stack[-1] if stack else -1
                calls[parent] += 1
                spent[parent] += clock() - t0

        return wrapper

    # -- counters read at the boundaries -----------------------------------

    def _after_fit_leaf(self, args, kwargs, res, exc):
        design = args[0]
        h = args[1] if len(args) > 1 else kwargs.get("h")
        h = design.h if h is None else h
        entry = self._x_digest.get(id(design.X))
        if entry is None:
            digest = hashlib.blake2b(design.X.tobytes(), digest_size=16)
            digest.update(design.y.tobytes())
            entry = (design.X, digest.hexdigest())
            self._x_digest[id(design.X)] = entry
        self._fits_seen.add((self.item, design.context, entry[1], h))
        if isinstance(exc, NotConverged):
            self.counters["glm.fit_leaf.not_converged"] += 1
        if res is None:
            return
        self.counters["glm.fit_leaf.newton_iters"] += res.iterations
        self.counters["glm.fit_leaf.separated"] += int(res.separated)
        self.counters["glm.fit_leaf.design_cells"] += (
            design.m * (1 + h * design.d) * (res.iterations + 1)
        )

    def _tally_audit(self, report) -> None:
        for rec in report.audit:
            self.counters[f"algorithm.audit.{rec.action}"] += 1

    def _after_fit(self, args, kwargs, report, exc):
        if report is not None:
            self._tally_audit(report)

    def _after_select_tuning(self, args, kwargs, result, exc):
        if result is not None:
            self.counters["algorithm.select_tuning.grid_points"] += len(result.candidates)
            self._tally_audit(result.report)

    def _after_generate(self, args, kwargs, data, exc):
        bound = self._generate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counters["simulate.generate.steps"] += bound.arguments["n"] + bound.arguments["burn_in"]

    def _after_ingest(self, args, kwargs, data, exc):
        self.counters["cli.ingest.bytes"] += os.path.getsize(args[0])

    def _after_main(self, args, kwargs, code, exc):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if code == 0 and "--report" in argv:
            path = argv[argv.index("--report") + 1]
            self.counters["cli.report.bytes"] += os.path.getsize(path)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "glm.fit_leaf": self._after_fit_leaf,
            "algorithm.fit": self._after_fit,
            "algorithm.select_tuning": self._after_select_tuning,
            "simulate.generate": self._after_generate,
            "cli.ingest": self._after_ingest,
            "cli.main": self._after_main,
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "vlmcx" or k.startswith("vlmcx.")) and m is not None]
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            if name == "simulate.generate":
                self._generate_sig = inspect.signature(original)
            wrapper = self._span(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = vlmcx.core.ContextTree
        original = cls.__dict__["lookup"]
        self._restore.append((cls, "lookup", original))
        cls.lookup = self._folded(original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, total seconds) per span name, with the folded
        lookups."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for parent, spent in self.folded_time.items():
            if parent >= 0:
                covered[parent] += spent
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[idx]
            total_s[name] += end - start
        calls[LOOKUP] = sum(self.folded_calls.values())
        self_s[LOOKUP] = total_s[LOOKUP] = sum(self.folded_time.values())
        return calls, self_s, total_s

    def counts(self) -> dict:
        """Every count the trace holds; these must repeat exactly on a rerun."""
        calls = self.self_times()[0]
        out = {f"{name}.calls": calls[name] for name in [t[0] for t in TRACED] + [LOOKUP]}
        out.update(self.counters)
        out["glm.fit_leaf.distinct"] = len(self._fits_seen)
        return dict(sorted(out.items()))

    def write(self, path: str) -> None:
        """Spans as gzip CSV, then one line per span holding folded lookups."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,item\n")
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent},{item}\n")
            fh.write("parent,folded_name,calls,total_s\n")
            for parent in sorted(self.folded_calls):
                fh.write(f"{parent},{LOOKUP},{self.folded_calls[parent]},"
                         f"{self.folded_time[parent]!r}\n")
