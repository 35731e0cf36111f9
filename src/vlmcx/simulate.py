"""Simulation from fully specified models and Monte-Carlo evaluation.

A generating model is a complete context tree with parameters on every
leaf.  Covariates are drawn i.i.d. standard normal; the state sequence is
seeded with zeros, run through a burn-in stretch, and only the last ``n``
steps are kept.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algorithm import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_S_GRID,
    FitConfig,
    FitReport,
    _grid_configs,
    fit,
    select_tuning,
)
from .core import (
    Context,
    ContextTree,
    Dataset,
    ParamBlock,
    _Record,
    _integer,
    _json_ready,
    _to_json,
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


# The block size and the hot-leaf rule of ``generate`` (see its docstring).
# A hot block over all 8192 rows costs about as much as 60 per-step laws
# (some 120 us with two states and 450 us with three, on one x86_64 core),
# so it pays for a leaf visited about once per 130 rows.  HOT_SPACING asks
# for twice that rate, because two early visits often come from a leaf that
# is visited less often.  The values come from a sweep of HOT_VISITS in
# {2, 3, 4}, HOT_SPACING in {64, 128, 256} and BLOCK_ROWS from 1024 to
# 16384, timed on the four models of the benchmark's simulate_score workload
# and on fitted trees of 115 to 427 leaves.  In blocks of 2048 or 4096 rows,
# going hot on the second visit left a fitted model2 tree of 232 leaves 7-9%
# slower than the earlier rule (8 visits, one per 32 steps, 2048 rows).
BLOCK_ROWS = 8192
HOT_VISITS = 2
HOT_SPACING = 64

# A tree of at most SCAN_SPAN histories (p ** order) resolves its chain in
# arrays, composing its per-row code maps SCAN_STRIDE rows at a time (see
# ``generate``).  In 5000-step calls, timed by process CPU (median of 9
# alternating rounds), the scan took 0.37-0.61 of the step loop's time on
# the four models of the simulate_score workload and 0.60-1.00 on full trees
# and combs of span 8 to 64 with 6 to 64 leaves, but 1.05 on a full tree of
# depth 1 over 32 states, and 1.25 and 2.0 on binary combs of span 128 and
# 256.  Strides of 16 to 64 rows timed alike on the four models.
SCAN_SPAN = 64
SCAN_STRIDE = 32


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
    states 0..p-2, so that ``bisect_right`` of a uniform is its state."""
    if binary:
        return _p_one(float(z[0]))
    full = np.concatenate(([0.0], z))
    full -= np.maximum.reduce(full)
    probs = np.exp(full)
    probs /= np.add.reduce(probs)
    return np.add.accumulate(probs[:-1]).tolist()


def _band(alpha: np.ndarray, bflat: np.ndarray, width: int, xmax: float, p: int) -> float:
    """How far a hot block's uniform must lie from its leaf's probabilities
    for the block to draw the per-step state (see ``_hot_block``), given a
    bound ``xmax`` on every covariate entry the leaf reads."""
    row_sum = max(sum(map(abs, row)) for row in bflat.tolist())
    delta = 4 * (width + 2) * 2.0**-52 * (xmax * row_sum + max(map(abs, alpha.tolist()))) + 1e-13
    return delta if p == 2 else p * delta


def _hot_block(leaf: tuple, lagged: np.ndarray, uniforms: np.ndarray,
               lo: int, i: int, hi: int, binary: bool) -> np.ndarray:
    """One covariate leaf's states on rows ``i..hi-1`` as an int array,
    behind ``i - lo`` placeholders so that row ``r`` sits at ``r - lo``.  A
    placeholder, and a row whose state the block cannot vouch for, holds
    -1; the caller draws such a row by the per-step law.

    One product gives the linear predictors of every row, state-major:
    ``bflat @ lagged[i:hi, :width].T + alpha``.  It sums in another order
    than the per-step ``alpha + bflat @ lagged[r, :width]``, so a predictor
    may differ from the per-step one in its last bits.  In any order, a
    computed sum of ``n`` terms is off by at most ``n * 2**-53 / (1 - n *
    2**-53)`` times the sum of their magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  Here ``n =
    width + 1``, so the two predictors differ by less than ``delta / 4``,
    where ``delta`` is ``4 * (width + 2) * 2**-52`` times ``max|x| * max
    row-sum |bflat| + max|alpha|`` and ``x`` ranges over the covariates.
    A change of the predictors by at most ``e`` each moves P(state 1) by at
    most ``e / 4`` and each cumulative softmax probability by at most ``e``.
    The exponentials, divisions and sums that follow add a few units in the
    last place; ``1e-13`` per probability covers them.  So when a row's
    uniform lies more than ``delta + 1e-13`` from its P(state 1), or more
    than ``p * (delta + 1e-13)`` from each of its cumulative probabilities
    (``_band``), it falls on the same side of the per-step law, and the
    block draws the per-step state.  Every other row, and any row whose
    numbers are not finite, is left to the per-step law.
    """
    _, alpha, bflat, width, _, band = leaf
    u = uniforms[i:hi]
    z = bflat @ lagged[i:hi, :width].T
    z += alpha[:, np.newaxis]
    # the laws below are computed in place: at BLOCK_ROWS rows the
    # temporaries of a hot block would raise the peak memory of a call
    if binary:
        # P(state 1) = 1 / (1 + exp(-z))
        law = np.negative(z[0], out=z[0])
        with np.errstate(over="ignore"):  # P(state 1) is 0.0 past the exp range
            np.exp(law, out=law)
        law += 1.0
        np.divide(1.0, law, out=law)
        drawn = u < law
        law -= u
        clear = np.abs(law, out=law) > band
    else:
        full = np.zeros((len(alpha) + 1, hi - i))
        full[1:] = z
        del z
        full -= np.maximum.reduce(full, axis=0)
        probs = np.exp(full, out=full)
        probs /= np.add.reduce(probs, axis=0)
        # C_0..C_{p-2}; a loop over states is many times faster than
        # np.add.accumulate along axis 0
        cum = probs[:-1]
        for j in range(1, len(cum)):
            cum[j] += cum[j - 1]
        drawn = np.add.reduce(cum <= u, axis=0)
        cum -= u
        clear = np.logical_and.reduce(np.abs(cum, out=cum) > band, axis=0)
    states = np.full(hi - lo, -1)
    np.copyto(states[i - lo :], drawn, where=clear)
    return states


def _history(code: int, p: int, eta: int) -> tuple:
    """The context of history ``code``: its base-``p`` digits, lowest first."""
    return tuple(code // p**j % p for j in range(eta))


def _step_chain(tree: ContextTree, params: dict, lagged: np.ndarray,
                draws: np.ndarray, binary: bool) -> np.ndarray:
    """The states of ``generate``, one step at a time: the path of any tree."""
    p, eta = tree.p, tree.order
    # the last eta states as base-p digits, the most recent lowest: a step
    # shifts the digits up, adds its state and drops the digit at p ** eta
    span = p**eta
    total = len(draws)
    uniforms = draws.tolist()
    leaf_of: dict[int, tuple] = {}
    states = [0] * total
    code = 0
    for lo in range(0, total, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, total)
        visits = [0] * len(params)
        hot_rows: list[list | None] = [None] * len(params)
        for i in range(lo, hi):
            leaf = leaf_of.get(code)
            if leaf is None:
                leaf = leaf_of[code] = params[tree.lookup(_history(code, p, eta))]
            k, alpha, bflat, width, law, _ = leaf
            if law is None:
                hot = hot_rows[k]
                if hot is None:
                    seen = visits[k] = visits[k] + 1
                    if seen >= HOT_VISITS and seen * HOT_SPACING > i - lo:
                        hot = hot_rows[k] = _hot_block(leaf, lagged, draws, lo, i, hi, binary).tolist()
                yi = -1 if hot is None else hot[i - lo]
                if yi < 0:
                    law = _next_state_law(alpha + bflat @ lagged[i, :width], binary)
            if law is not None:
                if binary:
                    yi = 1 if uniforms[i] < law else 0
                else:
                    yi = bisect.bisect_right(law, uniforms[i])
            states[i] = yi
            code = (code * p + yi) % span
    return np.array(states, dtype=np.int64)


def _scan_chain(tree: ContextTree, params: dict, lagged: np.ndarray,
                draws: np.ndarray, binary: bool) -> np.ndarray:
    """The states of ``generate`` for a tree of at most ``SCAN_SPAN``
    histories, resolved in arrays a block at a time."""
    p, eta = tree.p, tree.order
    span = p**eta
    total = len(draws)
    leaves = list(params.values())
    leaf_of = [params[tree.lookup(_history(c, p, eta))][0] for c in range(span)]
    # state y takes code c to code shift[c] + y
    shift = np.arange(span) % (span // p) * p if eta else None
    states = np.empty(total, dtype=np.int64)
    code = 0
    for lo in range(0, total, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, total)
        rows = hi - lo
        strides = -(-rows // SCAN_STRIDE)
        cols = strides * SCAN_STRIDE
        u = draws[lo:hi]
        # 1. each leaf's state at every row of the block; the padding
        # columns past the block hold state 0
        by_leaf = np.zeros((len(leaves), cols), dtype=np.intp)
        for leaf in leaves:
            k, alpha, bflat, width, law, _ = leaf
            if law is None:
                y = _hot_block(leaf, lagged, draws, lo, lo, hi, binary)
                for r in np.flatnonzero(y < 0).tolist():
                    row_law = _next_state_law(alpha + bflat @ lagged[lo + r, :width], binary)
                    y[r] = u[r] < row_law if binary else bisect.bisect_right(row_law, u[r])
            elif binary:
                y = u < law
            else:
                y = np.searchsorted(law, u, side="right")
            by_leaf[k, :rows] = y
        if not eta:
            states[lo:hi] = by_leaf[0, :rows]
            continue
        # 2. code c at column t goes to (c', t + 1), flat index c' * cols + t + 1;
        # built in place, as a fresh temporary of this size costs more than
        # the arithmetic
        by_leaf *= cols
        by_leaf += np.arange(1, cols + 1)
        step = by_leaf[leaf_of]
        step += shift[:, np.newaxis] * cols
        flat = step.ravel()
        # 3. each stride's map from every code to the code after it, the
        # true code at each stride's start, then every code of the block;
        # (index - 1) // cols is the code an index points to
        ends = step[:, ::SCAN_STRIDE]
        for _ in range(SCAN_STRIDE - 1):
            ends = flat.take(ends)
        ends -= 1
        ends //= cols
        starts = []
        for after in ends.T.tolist():
            starts.append(code)
            code = after[code]
        at = np.arange(0, cols, SCAN_STRIDE) + np.array(starts) * cols
        chain = np.empty((SCAN_STRIDE, strides), dtype=np.intp)
        for j in range(SCAN_STRIDE):
            at = flat.take(at, out=chain[j])
        codes = chain.T.ravel()[:rows]
        codes -= 1
        codes //= cols
        code = int(codes[-1])
        # a state is the lowest digit of the code it leads to
        np.remainder(codes, p, out=states[lo:hi])
    return states


def generate(spec: ModelSpec, n: int, seed: int, burn_in: int = 1000) -> Dataset:
    """Simulate ``n`` observations after ``burn_in`` discarded steps.

    The pre-sample history is all zeros and covariate lags reaching before
    the start count as zero; with the default burn-in neither leaves a trace
    in the returned sample.  The same seed always returns the same data.

    The generator draws every covariate row first, then one uniform per
    step.  With two states a step gives state 1 when its uniform falls
    below P(state 1); otherwise the uniform inverts the cumulative
    probabilities of states 0..p-1.  Each step's leaf comes from its last
    ``order`` states, held as one integer code whose base-``p`` digits are
    those states, the most recent in the lowest digit.  A leaf without
    covariate lags has one fixed law.  A binary predictor below about
    -709.8 gives P(state 1) = 0, so the step gives state 0.  The steps run
    in blocks of ``BLOCK_ROWS`` rows, on one of two paths picked by the
    tree's span ``p ** order``; both give the state of the per-step law at
    every step.

    A tree of at most ``SCAN_SPAN`` histories resolves its chain in arrays
    (``_scan_chain``), with no Python step per row.  Each leaf first draws
    its state at every row of the block: a fixed-law leaf with one
    comparison of the uniforms, a covariate leaf with one ``_hot_block``
    over the whole block.  Each (code, row) then points to (next code, row
    + 1).  Following those pointers ``SCAN_STRIDE`` times from every code
    gives each stride's map of codes, a pointer-jumping scan (Hillis and
    Steele, Data parallel algorithms, CACM 29(12), 1986); a short Python
    walk carries the true code across the strides, and ``SCAN_STRIDE``
    more steps from the true stride starts give every code, whose lowest
    digit is the state.  This path draws every leaf at every row, visited
    or not, so its cost grows with the number of covariate leaves, and its
    table has ``p ** order`` rows per row of the block.

    A larger tree steps one row at a time (``_step_chain``): a table of all
    its histories could be far too large (10**20 for a comb of order 20
    over 10 states), so the codes seen are kept in a dict, and only a code
    not seen before is decoded into the tuple that ``ContextTree.lookup``
    walks.  A covariate leaf computes its law step by step until it turns
    hot: at least ``HOT_VISITS`` visits in the block, and at least one per
    ``HOT_SPACING`` steps of the block so far.  So a busy leaf goes hot on
    its second visit, when that visit comes within ``2 * HOT_SPACING`` rows
    of the block's start, and its first visit is then its only per-step
    law of the block.  ``_hot_block`` draws the state of every remaining
    row of the block for that leaf from one product of its coefficients
    with those rows, and its later visits read their row.  A full hot block
    costs as much as about 60 per-step laws, so a leaf visited less often
    than once per ``HOT_SPACING`` steps stays on the per-step path, and a
    tree of many rarely visited leaves still computes many of its laws step
    by step.

    On both paths the product of a hot block may round a predictor
    differently from the per-step sum, so a row whose uniform lies within a
    band of its law (``_band``, derived in ``_hot_block``) is left undrawn
    and takes the per-step law: at its visit on the step loop, and at once,
    visited or not, in the scan.  Such rows are rare unless the
    coefficients are huge.
    """
    n = _integer("n", n, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    seed = _integer("seed", seed, 0)
    tree = spec.tree
    p, d = tree.p, tree.d
    binary = p == 2
    rng = np.random.default_rng(seed)
    total = burn_in + n
    cov = rng.standard_normal((total, d)) if d > 0 else np.zeros((total, 0))
    draws = rng.random(total)
    # row i holds the covariate rows i-1, i-2, ... (zero before the start),
    # so a leaf with h lags reads its first h*d entries
    H = tree.covariate_order
    lagged = np.zeros((total, H * d))
    for lag in range(1, min(H, total) + 1):
        lagged[lag:, (lag - 1) * d : lag * d] = cov[: total - lag]
    # per leaf: its index, alpha, flattened beta (row j covers target j+1),
    # h*d, and either the next state's law when no covariate enters or the
    # hot blocks' band; every lagged entry is a covariate or zero
    xmax = float(np.abs(cov).max()) if cov.size else 0.0
    params: dict[Context, tuple] = {}
    for k, u in enumerate(tree.leaves()):
        block = tree.nodes[u]
        alpha = np.asarray(block.alpha)
        bflat = np.asarray(block.beta.reshape(block.n_targets, -1))
        width = block.h * d
        if width:
            fixed, band = None, _band(alpha, bflat, width, xmax, p)
        else:
            fixed, band = _next_state_law(alpha, binary), None
        params[u] = (k, alpha, bflat, width, fixed, band)
    chain = _scan_chain if p**tree.order <= SCAN_SPAN else _step_chain
    states = chain(tree, params, lagged, draws, binary)
    return Dataset(states=states[burn_in:], covariates=cov[burn_in:])


@dataclass(frozen=True)
class EvalMetrics(_Record):
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
class CoefficientCell(_Record):
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
            "means": _json_ready(self.means),
            "rates": _json_ready(self.rates),
            "hist_missing": {str(k): v for k, v in sorted(self.hist_missing.items())},
            "hist_extra": {str(k): v for k, v in sorted(self.hist_extra.items())},
            "coefficients": [c.to_dict() for c in self.coefficients],
            "selected": dict(sorted(self.selected.items())),
            "failure_notes": list(self.failure_notes),
        }

    to_json = _to_json

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
