"""Simulation from fully specified models and Monte-Carlo evaluation.

A generating model is a complete context tree with parameters on every
leaf.  Covariates are drawn i.i.d. standard normal; the state sequence is
seeded with zeros, run through a burn-in stretch, and only the last ``n``
steps are kept.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .algorithm import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_S_GRID,
    FitConfig,
    FitReport,
    _grid_configs,
    _nan_to_none,
    fit,
    select_tuning,
)
from .core import Context, ContextTree, Dataset, ParamBlock, context_label
from .errors import AlphabetMismatch, DataError, UnknownModel, VlmcxError

_COVARIATE_LAWS = ("standard_normal",)


@dataclass(frozen=True)
class ModelSpec:
    """A generating model: complete tree, parameters on every leaf."""

    tree: ContextTree
    covariate_law: str = "standard_normal"

    def __post_init__(self) -> None:
        if self.covariate_law not in _COVARIATE_LAWS:
            raise DataError(f"unsupported covariate law {self.covariate_law!r}")
        tree = self.tree
        for u in tree.nodes:
            if tree.is_leaf(u):
                if tree.nodes[u] is None:
                    raise DataError(f"leaf {context_label(u)} has no parameters")
            elif len(tree.children(u)) != tree.p:
                raise DataError(
                    f"internal node {context_label(u)} lacks children; "
                    f"a generating tree must resolve every history"
                )

    @property
    def p(self) -> int:
        return self.tree.p

    @property
    def d(self) -> int:
        return self.tree.d


def _binary_tree(leaves: dict[str, tuple[float, Sequence[float]]]) -> ContextTree:
    nodes: dict[Context, ParamBlock | None] = {}
    for label, (alpha, beta) in leaves.items():
        u = tuple(int(c) for c in label)
        rows = np.asarray(beta, dtype=float).reshape(-1, 1)
        nodes[u] = ParamBlock(alpha=np.array([alpha]), beta=rows[np.newaxis, :, :])
        for k in range(len(u)):
            nodes.setdefault(u[:k], None)
    return ContextTree(p=2, d=1, nodes=nodes)


def builtin_model(name: str) -> ModelSpec:
    """One of the three bundled binary models (``model1``/``model2``/``model3``).

    Zero tails in the lag vectors below get trimmed on construction, so each
    leaf ends up with exactly the lags that matter.
    """
    key = name.strip().lower()
    if key == "model1":
        tree = _binary_tree(
            {
                "00": (0.1, (2.0, 0.0)),
                "010": (0.25, (-1.0, 1.0, 0.0)),
                "0110": (0.8, (4.0, 3.0, 2.0, 1.0)),
                "0111": (2.0, (1.5, 2.0, 0.0, 0.0)),
                "10": (-0.2, (0.0, 0.0)),
                "11": (-1.0, (0.0, 0.0)),
            }
        )
    elif key == "model2":
        tree = _binary_tree(
            {
                "000": (0.5, (3.0, 1.0, 2.0)),
                "001": (0.8, (1.0, 0.0, 0.0)),
                "01": (1.0, (-1.0, -2.0)),
                "10": (-0.2, (-1.2, 0.0)),
                "11": (0.5, (0.0, 0.0)),
            }
        )
    elif key == "model3":
        tree = _binary_tree(
            {
                "000": (0.5, (0.0, 0.0, 0.0)),
                "001": (0.8, (0.0, 0.0, 0.0)),
                "01": (1.0, (0.0, 0.0)),
                "10": (-0.2, (0.0, 0.0)),
                "11": (0.5, (0.0, 0.0)),
            }
        )
    else:
        raise UnknownModel(f"no built-in model named {name!r}")
    return ModelSpec(tree=tree)


BUILTIN_MODELS = ("model1", "model2", "model3")


def generate(spec: ModelSpec, n: int, seed: int, burn_in: int = 1000) -> Dataset:
    """Simulate ``n`` observations after ``burn_in`` discarded steps.

    The pre-sample history is all zeros and covariate lags reaching before
    the start count as zero; with the default burn-in neither leaves a trace
    in the returned sample.  The same seed always returns the same data.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise DataError(f"burn_in must be >= 0, got {burn_in}")
    tree = spec.tree
    p, d, eta = tree.p, tree.d, tree.order
    rng = np.random.default_rng(seed)
    total = burn_in + n
    cov = rng.standard_normal((total, d)) if d > 0 else np.zeros((total, 0))
    states = np.zeros(total, dtype=np.int64)
    # flattened per-leaf coefficients; row j of b covers target j+1
    cache: dict[Context, tuple[np.ndarray, np.ndarray, int]] = {}
    for u in tree.leaves():
        block = tree.nodes[u]
        cache[u] = (
            np.asarray(block.alpha),
            np.asarray(block.beta.reshape(block.n_targets, -1)),
            block.h,
        )
    hist: list[int] = [0] * eta
    binary = p == 2
    for i in range(total):
        leaf = tree.lookup(hist)
        alpha, bflat, h = cache[leaf]
        if h > 0:
            window = np.zeros(h * d)
            take = min(h, i)
            if take:
                window[: take * d] = cov[i - take : i][::-1].ravel()
            z = alpha + bflat @ window
        else:
            z = alpha
        if binary:
            prob1 = 1.0 / (1.0 + math.exp(-float(z[0])))
            yi = 1 if rng.random() < prob1 else 0
        else:
            full = np.concatenate([[0.0], z])
            full -= full.max()
            probs = np.exp(full)
            probs /= probs.sum()
            yi = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            yi = min(yi, p - 1)
        states[i] = yi
        if eta:
            hist = [yi] + hist[: eta - 1]
    return Dataset(states=states[burn_in:], covariates=cov[burn_in:])


@dataclass(frozen=True)
class EvalMetrics:
    """Structure recovery and scores of one fitted tree against the truth."""

    bic: float
    aic: float
    loglik: float
    n_alpha: int
    n_beta: int
    order_tree: int
    order_covar: int
    missing: int
    extra: int
    identical_tau: bool
    identical_tau_theta: bool

    def to_dict(self) -> dict:
        return asdict(self)


def compare_trees(truth: ModelSpec, fitted: FitReport) -> EvalMetrics:
    """Node-set agreement between the generating tree and a fit.

    ``missing``/``extra`` count nodes of the symmetric difference;
    ``identical_tau`` is exact structural agreement and
    ``identical_tau_theta`` additionally requires every leaf to carry the
    true number of lags.
    """
    tt = truth.tree
    ft = fitted.tree
    if tt.p != ft.p or tt.d != ft.d:
        raise AlphabetMismatch(
            f"truth has p={tt.p}, d={tt.d}; fit has p={ft.p}, d={ft.d}"
        )
    tn = set(tt.nodes)
    fn = set(ft.nodes)
    missing = len(tn - fn)
    extra = len(fn - tn)
    identical = tn == fn
    identical_theta = identical and all(
        ft.block(u).h == tt.block(u).h for u in tt.nodes if tt.is_leaf(u)
    )
    return EvalMetrics(
        bic=fitted.bic,
        aic=fitted.aic,
        loglik=fitted.loglik,
        n_alpha=fitted.n_alpha,
        n_beta=fitted.n_beta,
        order_tree=ft.order,
        order_covar=ft.covariate_order,
        missing=missing,
        extra=extra,
        identical_tau=identical,
        identical_tau_theta=identical_theta,
    )


@dataclass(frozen=True)
class TuningGrid:
    """Per-run grid search settings for Monte-Carlo runs; an empty grid or an
    invalid s or gamma raises ``DataError`` here, as in ``select_tuning``."""

    s_grid: tuple[int, ...] = DEFAULT_S_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    base: FitConfig = FitConfig()

    def __post_init__(self) -> None:
        _grid_configs(self.s_grid, self.gamma_grid, self.base)


@dataclass
class CoefficientCell:
    """Sampling summary of one coefficient over exact-support runs.

    ``n`` counts the runs where the leaf was recovered with its true lag
    count; the ``clean`` columns exclude runs whose leaf fit was flagged for
    separation.
    """

    context: Context
    target: int
    lag: int
    covariate: int
    true: float
    n: int
    mean: float
    sd: float
    n_clean: int
    mean_clean: float
    sd_clean: float

    def to_dict(self) -> dict:
        return {
            "context": list(self.context),
            "target": self.target,
            "lag": self.lag,
            "covariate": self.covariate,
            "true": self.true,
            "n": self.n,
            "mean": _nan_to_none(self.mean),
            "sd": _nan_to_none(self.sd),
            "n_clean": self.n_clean,
            "mean_clean": _nan_to_none(self.mean_clean),
            "sd_clean": _nan_to_none(self.sd_clean),
        }


def _mean_sd(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else float("nan")
    return mean, sd


@dataclass
class MonteCarloSummary:
    """Aggregates over repeated simulate-fit-compare runs."""

    p: int
    d: int
    n: int
    runs: int
    failures: int
    tuned: bool
    means: dict[str, float]
    rates: dict[str, float]
    hist_missing: dict[int, int]
    hist_extra: dict[int, int]
    coefficients: list[CoefficientCell]
    selected: dict[str, int]
    failure_notes: list[str]
    per_run: list[EvalMetrics] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": {"p": self.p, "d": self.d},
            "n": self.n,
            "runs": self.runs,
            "failures": self.failures,
            "tuned": self.tuned,
            "means": {k: _nan_to_none(v) for k, v in self.means.items()},
            "rates": {k: _nan_to_none(v) for k, v in self.rates.items()},
            "hist_missing": {str(k): v for k, v in sorted(self.hist_missing.items())},
            "hist_extra": {str(k): v for k, v in sorted(self.hist_extra.items())},
            "coefficients": [c.to_dict() for c in self.coefficients],
            "selected": dict(sorted(self.selected.items())),
            "failure_notes": list(self.failure_notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        lines = [
            f"results over {self.runs} runs, n={self.n}"
            + (f", {self.failures} failed" if self.failures else "")
            + (", tuned per run" if self.tuned else "")
        ]
        m = self.means
        lines.append(
            f"{'BIC':>10} {'AIC':>10} {'logLik':>10} {'n_alpha':>8} {'n_beta':>8}"
        )
        lines.append(
            f"{m.get('bic', float('nan')):>10.3f} {m.get('aic', float('nan')):>10.3f} "
            f"{m.get('loglik', float('nan')):>10.3f} {m.get('n_alpha', float('nan')):>8.3f} "
            f"{m.get('n_beta', float('nan')):>8.3f}"
        )
        lines.append(
            f"{'order_tree':>10} {'order_cov':>10} {'missing':>10} {'extra':>8} "
            f"{'ident_tau':>9} {'ident_tau_theta':>15}"
        )
        r = self.rates
        lines.append(
            f"{m.get('order_tree', float('nan')):>10.3f} {m.get('order_covar', float('nan')):>10.3f} "
            f"{m.get('missing', float('nan')):>10.3f} {m.get('extra', float('nan')):>8.3f} "
            f"{r.get('identical_tau', float('nan')):>9.3f} {r.get('identical_tau_theta', float('nan')):>15.3f}"
        )
        for name, hist in (("missing", self.hist_missing), ("extra", self.hist_extra)):
            buckets = []
            overflow = 0
            for k in sorted(hist):
                if k <= 10:
                    buckets.append(f"{k}:{hist[k]}")
                else:
                    overflow += hist[k]
            if overflow:
                buckets.append(f">10:{overflow}")
            lines.append(f"{name} node counts  " + "  ".join(buckets))
        if self.selected:
            picks = "  ".join(f"{k}:{v}" for k, v in sorted(self.selected.items()))
            lines.append(f"selected settings  {picks}")
        if self.coefficients:
            lines.append(
                f"{'context':>8} {'tgt':>3} {'lag':>3} {'cov':>3} {'true':>7} "
                f"{'n':>4} {'mean':>8} {'sd':>7} {'n_cl':>4} {'mean_cl':>8} {'sd_cl':>7}"
            )
            for c in self.coefficients:
                label = "".join(str(s) for s in c.context) or "<root>"
                lines.append(
                    f"{label:>8} {c.target:>3} {c.lag:>3} {c.covariate:>3} {c.true:>7.2f} "
                    f"{c.n:>4} {c.mean:>8.3f} {c.sd:>7.3f} {c.n_clean:>4} "
                    f"{c.mean_clean:>8.3f} {c.sd_clean:>7.3f}"
                )
        return "\n".join(lines)


def monte_carlo(
    spec: ModelSpec,
    n: int,
    runs: int,
    setting: FitConfig | TuningGrid | None = None,
    base_seed: int = 0,
    burn_in: int = 1000,
) -> MonteCarloSummary:
    """Repeatedly simulate, fit, and compare against the generating model.

    Run ``i`` uses seed ``base_seed + i``.  ``setting`` is either a fixed
    FitConfig or a TuningGrid searched per run.  Failed runs are counted and
    reported, not raised.
    """
    if runs < 1:
        raise DataError(f"runs must be >= 1, got {runs}")
    if setting is None:
        setting = FitConfig()
    tuned = isinstance(setting, TuningGrid)
    truth_leaves = {u: spec.tree.block(u) for u in spec.tree.leaves()}
    samples: dict[Context, list[tuple[np.ndarray, bool]]] = {
        u: [] for u, b in truth_leaves.items() if b.h >= 1
    }
    metrics: list[EvalMetrics] = []
    failure_notes: list[str] = []
    selected: Counter = Counter()
    for i in range(runs):
        seed = base_seed + i
        try:
            data = generate(spec, n, seed, burn_in=burn_in)
            if tuned:
                result = select_tuning(
                    data, setting.s_grid, setting.gamma_grid,
                    config=setting.base, p=spec.p,
                )
                report = result.report
                selected[f"s={result.config.s},gamma={result.config.gamma:g}"] += 1
            else:
                report = fit(data, setting, p=spec.p)
            em = compare_trees(spec, report)
        except VlmcxError as exc:
            failure_notes.append(f"run {i} (seed {seed}): {exc}")
            continue
        metrics.append(em)
        diag = {ls.context: ls for ls in report.leaf_stats}
        for u, tb in truth_leaves.items():
            ls = diag.get(u)
            if u in samples and ls is not None and ls.h == tb.h:
                samples[u].append((np.asarray(report.tree.block(u).beta), ls.separated))
    def mean_of(key: str) -> float:
        if not metrics:
            return float("nan")
        return float(np.mean([getattr(em, key) for em in metrics]))
    means = {
        key: mean_of(key)
        for key in (
            "bic", "aic", "loglik", "n_alpha", "n_beta",
            "order_tree", "order_covar", "missing", "extra",
        )
    }
    rates = {
        "identical_tau": mean_of("identical_tau"),
        "identical_tau_theta": mean_of("identical_tau_theta"),
    }
    cells: list[CoefficientCell] = []
    for u in sorted(samples):
        tb = truth_leaves[u]
        drawn = samples[u]
        for j in range(tb.n_targets):
            for t in range(tb.h):
                for l in range(tb.d):
                    vals = [float(b[j, t, l]) for b, _ in drawn]
                    clean = [float(b[j, t, l]) for b, sep in drawn if not sep]
                    mean, sd = _mean_sd(vals)
                    mean_c, sd_c = _mean_sd(clean)
                    cells.append(
                        CoefficientCell(
                            context=u, target=j + 1, lag=t + 1, covariate=l + 1,
                            true=float(tb.beta[j, t, l]),
                            n=len(vals), mean=mean, sd=sd,
                            n_clean=len(clean), mean_clean=mean_c, sd_clean=sd_c,
                        )
                    )
    return MonteCarloSummary(
        p=spec.p,
        d=spec.d,
        n=n,
        runs=runs,
        failures=len(failure_notes),
        tuned=tuned,
        means=means,
        rates=rates,
        hist_missing=dict(Counter(em.missing for em in metrics)),
        hist_extra=dict(Counter(em.extra for em in metrics)),
        coefficients=cells,
        selected=dict(selected),
        failure_notes=failure_notes,
        per_run=metrics,
    )
