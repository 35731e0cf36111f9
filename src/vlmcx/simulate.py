"""Simulation from fully specified models and Monte-Carlo evaluation.

A generating model is a complete context tree with parameters on every
leaf.  Covariates are drawn i.i.d. standard normal; the state sequence is
seeded with zeros, run through a burn-in stretch, and only the last ``n``
steps are kept.
"""

from __future__ import annotations

import bisect
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
from .core import (
    Context,
    ContextTree,
    Dataset,
    ParamBlock,
    _integer,
    _with_ancestors,
    context_label,
)
from .errors import AlphabetMismatch, DataError, UnknownModel, VlmcxError


@dataclass(frozen=True)
class ModelSpec:
    """A generating model: complete tree, parameters on every leaf."""

    tree: ContextTree

    def __post_init__(self) -> None:
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
    blocks = {
        tuple(int(c) for c in label): ParamBlock.binary(alpha, beta)
        for label, (alpha, beta) in leaves.items()
    }
    return ContextTree(p=2, d=1, nodes=_with_ancestors(blocks))


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


# The block size and the hot-leaf rule of ``generate`` (see its docstring),
# chosen by timing the bundled models and trees of 115 and 203 leaves.
BLOCK_ROWS = 2048
HOT_VISITS = 8
HOT_SPACING = 32


def _p_one(z: float) -> float:
    """P(state 1) of a binary step with linear predictor ``z``; 0.0 where
    ``exp(-z)`` overflows, for ``z`` below about -709.8."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def _next_state_law(z: np.ndarray, binary: bool) -> float | list[float]:
    """Law of the next state given the linear predictors ``z`` of states
    1..p-1: P(state 1) when ``binary``, else the cumulative probabilities of
    states 0..p-1."""
    if binary:
        return _p_one(float(z[0]))
    full = np.concatenate(([0.0], z))
    full -= np.maximum.reduce(full)
    probs = np.exp(full)
    probs /= np.add.reduce(probs)
    return np.add.accumulate(probs).tolist()


def _hot_block(leaf: tuple, lagged: np.ndarray, uniforms: np.ndarray,
               lo: int, i: int, hi: int, binary: bool) -> list:
    """One covariate leaf's steps on rows ``i..hi-1``, behind ``i - lo``
    placeholders so that row ``r`` sits at ``r - lo``: the linear predictor
    of each row when ``binary`` (``_p_one`` turns it into P(state 1) on a
    visit), else the state each row would draw.

    Every number has the bits of the per-step path: the stacked mat-vec
    makes the same BLAS call per row as ``bflat @ lagged[r, :width]``, the
    multinomial law applies ``_next_state_law``'s ufuncs row by row, and
    counting the cumulative probabilities at or below the row's uniform is
    ``bisect_right``.
    """
    _, alpha, bflat, width, _ = leaf
    z = np.matmul(bflat, lagged[i:hi, :width, np.newaxis])[:, :, 0]
    z += alpha
    if binary:
        drawn = z[:, 0].tolist()
    else:
        p = z.shape[1] + 1
        full = np.zeros((hi - i, p))
        full[:, 1:] = z
        full -= np.maximum.reduce(full, axis=1, keepdims=True)
        probs = np.exp(full)
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
        cum = np.add.accumulate(probs, axis=1)
        below = np.add.reduce(cum <= uniforms[i:hi, np.newaxis], axis=1)
        drawn = np.minimum(below, p - 1).tolist()
    return [None] * (i - lo) + drawn


def generate(spec: ModelSpec, n: int, seed: int, burn_in: int = 1000) -> Dataset:
    """Simulate ``n`` observations after ``burn_in`` discarded steps.

    The pre-sample history is all zeros and covariate lags reaching before
    the start count as zero; with the default burn-in neither leaves a trace
    in the returned sample.  The same seed always returns the same data.

    The generator draws every covariate row first, then one uniform per
    step.  With two states a step gives state 1 when its uniform falls
    below P(state 1); otherwise the uniform inverts the cumulative
    probabilities of states 0..p-1.  Each step's leaf comes from its last
    ``order`` states, looked up in the tree once per distinct history.

    The steps run in blocks of ``BLOCK_ROWS`` rows.  A leaf without
    covariate lags has one fixed law.  A covariate leaf computes its law
    step by step until it turns hot: at least ``HOT_VISITS`` visits in the
    block, and at least one per ``HOT_SPACING`` steps of the block so far.
    Then one array pass covers every remaining row of the block for that
    leaf (the linear predictors when p = 2, the drawn states otherwise), and
    its later visits read their row.  A leaf visited a few times per block
    stays on the per-step path, so a tree of many rarely visited leaves
    costs about what it did.  Both paths apply the same floating-point
    operations to the same numbers, so the states do not depend on which
    path drew them.  A binary predictor below about -709.8 gives
    P(state 1) = 0, so the step gives state 0.
    """
    n = _integer("n", n, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    seed = _integer("seed", seed, 0)
    tree = spec.tree
    p, d, eta = tree.p, tree.d, tree.order
    binary = p == 2
    rng = np.random.default_rng(seed)
    total = burn_in + n
    cov = rng.standard_normal((total, d)) if d > 0 else np.zeros((total, 0))
    draws = rng.random(total)
    uniforms = draws.tolist()
    # row i holds the covariate rows i-1, i-2, ... (zero before the start),
    # so a leaf with h lags reads its first h*d entries
    H = tree.covariate_order
    lagged = np.zeros((total, H * d))
    for lag in range(1, min(H, total) + 1):
        lagged[lag:, (lag - 1) * d : lag * d] = cov[: total - lag]
    # per leaf: its index, alpha, flattened beta (row j covers target j+1),
    # h*d, and the next state's law when no covariate enters
    params: dict[Context, tuple] = {}
    for k, u in enumerate(tree.leaves()):
        block = tree.nodes[u]
        alpha = np.asarray(block.alpha)
        width = block.h * d
        fixed = None if width else _next_state_law(alpha, binary)
        params[u] = (k, alpha, np.asarray(block.beta.reshape(block.n_targets, -1)), width, fixed)
    leaf_of: dict[Context, tuple] = {}
    states = [0] * total
    hist: Context = (0,) * eta
    for lo in range(0, total, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, total)
        visits = [0] * len(params)
        hot_rows: list[list | None] = [None] * len(params)
        for i in range(lo, hi):
            leaf = leaf_of.get(hist)
            if leaf is None:
                leaf = leaf_of[hist] = params[tree.lookup(hist)]
            k, alpha, bflat, width, law = leaf
            if law is None:
                hot = hot_rows[k]
                if hot is None:
                    seen = visits[k] = visits[k] + 1
                    if seen >= HOT_VISITS and seen * HOT_SPACING > i - lo:
                        hot = hot_rows[k] = _hot_block(leaf, lagged, draws, lo, i, hi, binary)
                if hot is None:
                    law = _next_state_law(alpha + bflat @ lagged[i, :width], binary)
                elif binary:
                    law = _p_one(hot[i - lo])
            if law is None:
                yi = hot[i - lo]
            elif binary:
                yi = 1 if uniforms[i] < law else 0
            else:
                yi = min(bisect.bisect_right(law, uniforms[i]), p - 1)
            states[i] = yi
            if eta:
                hist = (yi,) + hist[:-1]
    return Dataset(states=np.array(states[burn_in:], dtype=np.int64), covariates=cov[burn_in:])


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
    reported, not raised; an invalid count or seed raises ``DataError``
    before the first run.
    """
    n = _integer("n", n, 1)
    runs = _integer("runs", runs, 1)
    base_seed = _integer("base_seed", base_seed, 0)
    burn_in = _integer("burn_in", burn_in, 0)
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
