"""Context-tree estimation by backward likelihood-ratio pruning.

The estimator starts from the largest tree supported by per-context counts
and walks it from the deepest level up to the root.  At each level:

1. Every leaf at that depth is tested for dropping its deepest lag row
   (one chi-square test per leaf; non-rejection drops the row).
2. Sibling groups whose members are all leaves and all had their lag
   hypothesis not rejected are tested for merging into the parent.  A merge
   installs the parent as a leaf fitted with as many lags as its own depth.
3. Leaves that stayed put after a non-rejection keep dropping lag rows one
   at a time until a test rejects or no lag remains.  Leaves whose step-1
   test rejected keep their lags untouched.

Every candidate tree inside one fit is scored conditional on the same
number of initial observations (the maximal tree's order), which keeps
log-likelihoods, tests, and information criteria comparable across trees.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import glm
from .core import (
    Context,
    ContextTree,
    Dataset,
    HistoryIndex,
    ParamBlock,
    _Record,
    _integer,
    _to_json,
    _with_ancestors,
    context_label,
)
from .errors import (
    AllFitsFailed,
    AlphabetMismatch,
    ChildrenNotLeaves,
    DataError,
    DataTooShort,
    DomainError,
    MalformedModel,
    NestingViolation,
    NotConverged,
    NumericalError,
    VlmcxError,
)
from .glm import LeafDesign, design_loglik, fit_leaf
from .stats import LrtResult, lrt

DEFAULT_S_GRID = (2, 5, 10)
DEFAULT_GAMMA_GRID = (1e-5, 1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class FitConfig(_Record):
    """Knobs for one estimation run.

    ``s`` scales the per-parameter count rule deciding how deep the initial
    tree grows; ``gamma`` is the test level for pruning (larger values prune
    less: a lag is dropped, and siblings merged, only when the p-value clears
    it).  ``bonferroni`` divides gamma by the number of planned tests in
    each pass.  ``ic_include_intercepts`` switches the information-criterion
    parameter count from covariate coefficients only to all coefficients.
    """

    s: int = 2
    gamma: float = 1e-3
    max_order_cap: int = 12
    bonferroni: bool = False
    ic_include_intercepts: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _integer("s", self.s, 1))
        number = (int, float, np.integer, np.floating)
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, number):
            raise DataError(f"gamma must be a number, got {self.gamma!r}")
        if not 0.0 < self.gamma < 1.0:
            raise DataError(f"gamma must be in (0, 1), got {self.gamma}")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "max_order_cap", _integer("max_order_cap", self.max_order_cap, 1))

    def replace(self, **kw) -> "FitConfig":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class AuditRecord(_Record):
    """One pruning decision: which test ran, on what, and what happened.

    ``test`` is ``deepest_lag`` (the per-leaf test run once per pass),
    ``lag_sweep`` (the follow-up sequential drops), or ``sibling_merge``.
    ``lag`` is the 1-based lag index under test, None for merges.  ``action``
    is ``drop``, ``keep``, ``merge``, or ``no_merge``.
    """

    test: str
    contexts: tuple[Context, ...]
    lag: int | None
    statistic: float
    df: int
    p_value: float
    action: str


@dataclass(frozen=True)
class LeafDiagnostics(_Record):
    context: Context
    n_obs: int
    h: int
    loglik: float
    converged: bool
    separated: bool
    iterations: int


# The note of a leaf whose fit with lags fell back to intercept only, as
# ``_Engine._fit_state`` writes it; group 1 is the context's label.
FALLBACK_NOTE = re.compile(r"fit at (.+) with \d+ lags did not converge; fell back to intercept only")


@dataclass
class FitReport:
    """Fitted tree plus the evidence: scores, per-leaf diagnostics, audit."""

    tree: ContextTree
    loglik: float
    aic: float
    bic: float
    n_alpha: int
    n_beta: int
    n_eff: int
    horizon: int
    config: FitConfig
    leaf_stats: list[LeafDiagnostics]
    audit: list[AuditRecord]
    notes: list[str]

    def to_dict(self) -> dict:
        return {
            "model": self.tree.to_dict(),
            "criteria": {
                "loglik": self.loglik,
                "aic": self.aic,
                "bic": self.bic,
                "n_alpha": self.n_alpha,
                "n_beta": self.n_beta,
                "n_eff": self.n_eff,
                "horizon": self.horizon,
            },
            "config": self.config.to_dict(),
            "leaves": [ls.to_dict() for ls in self.leaf_stats],
            "audit": [rec.to_dict() for rec in self.audit],
            "notes": list(self.notes),
        }

    to_json = _to_json


# -- maximal tree growth -------------------------------------------------------


def _infer_p(data: Dataset, p: int | None) -> int:
    observed = int(data.states.max()) + 1
    if p is None:
        return max(observed, 2)
    p = _integer("p", p, 2)
    if p < observed:
        raise AlphabetMismatch(f"state {observed - 1} outside 0..{p - 1}")
    return p


def _check_alphabet(index: HistoryIndex, p: int, threshold: int) -> None:
    """``DataTooShort`` naming the first unused state of ``0 .. p-1`` and the
    largest label, if any is unused: no depth-1 sibling group can then reach
    ``threshold`` occurrences each."""
    alphabet = index.alphabet  # sorted distinct labels, all below p
    if alphabet.size < p:
        # labels match their positions 0, 1, ... up to the first unused state
        unused = int(np.count_nonzero(alphabet == np.arange(alphabet.size)))
        raise DataTooShort(
            f"state {unused} never occurs in the data (the largest label is "
            f"{int(alphabet[-1])}), so the depth-1 sibling group cannot reach "
            f"{threshold} occurrences each"
        )


def _grow_structure(index: HistoryIndex, p: int, s: int, cap: int) -> set[Context]:
    """Deepest prefix-closed node set satisfying the sibling count rule.

    A sibling group at depth k enters only when every member occurs at least
    ``s * (1 + d*k)`` times, so each candidate regression keeps ``s``
    observations per parameter.  Each level's counts come from the index at
    once.  Raises ``DataTooShort`` when no depth-1 group clears the rule,
    before any count when n is too short or a state of ``0 .. p-1`` never
    occurs.
    """
    n, d = index.data.n, index.data.d
    if n <= s * (1 + d):
        raise DataTooShort(
            f"n={n} cannot support depth 1 with s={s}, d={d} "
            f"(need more than {s * (1 + d)} observations)"
        )
    _check_alphabet(index, p, s * (1 + d))
    nodes: set[Context] = {()}
    level: list[Context] = [()]
    for depth in range(1, min(cap, int(math.floor(math.log2(n)))) + 1):
        threshold = s * (1 + d * depth)
        supported = (index.child_counts(level, p) >= threshold).all(axis=1)
        level = [u + (w,) for u, ok in zip(level, supported) if ok for w in range(p)]
        if not level:
            break
        nodes.update(level)
    if len(nodes) == 1:
        raise DataTooShort(f"no depth-1 sibling group reaches {s * (1 + d)} occurrences each")
    return nodes


# -- the pruning engine ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _LeafState:
    """A leaf's transition times in design-row order, its full-depth design
    on them and its fit.  A state hashes and compares by identity, so the
    outcome memo keys on states."""

    rows: np.ndarray
    design: LeafDesign
    fit: glm.MleResult


class _Outcome(NamedTuple):
    """The gamma-free part of one lag-drop or merge test: ``test`` is the
    LRT (None for a merge that frees no parameters), ``state`` the leaf
    state a non-rejection installs and ``notes`` what the test writes."""

    test: LrtResult | None
    state: _LeafState
    notes: tuple[str, ...]


@dataclass
class _Memo:
    """Work shared by the engines of one call, all on ``index``: each initial
    leaf state with the notes its fit wrote, by context (one horizon gives a
    context the same rows in every maximal tree), and each test's outcome,
    by the tested states.  The states hold rows and designs of ``index``."""

    index: HistoryIndex
    initial: dict[Context, tuple[_LeafState, tuple[str, ...]]] = field(default_factory=dict)
    outcomes: dict[tuple[_LeafState, ...], _Outcome] = field(default_factory=dict)


class _Scores(NamedTuple):
    loglik: float
    aic: float
    bic: float
    n_alpha: int
    n_beta: int


class _Engine:
    """Mutable fitting state: the current leaves, each with its rows and fit.

    The leaves are the engine's only tree state.  The tree is the leaves plus
    their ancestors: growth adds whole sibling groups and a merge removes a
    whole group, so a parent's children are all leaves exactly when its
    group at their depth is complete.

    Rows, counts and designs come from the ``HistoryIndex`` of the data that
    ``memo`` was built on (a private memo and index unless given).  A leaf's
    rows are its window rows past the horizon, ascending; a merged parent's
    are its children's rows stacked in child order.  A leaf state carries
    its design, gathered from the index at the leaf's full depth when the
    state is first fitted; the states a lag drop installs keep it, and a fit
    with fewer lags reads a truncated view of it.

    A leaf's initial state and a test's outcome (statistic, p-value, reduced
    or merged fit, notes) do not depend on gamma, so each is computed once
    per ``memo``.  Tests are keyed by the tested states, which are
    immutable, so engines that share a memo and a leaf's initial state share
    every test from it on.  Each engine only compares its own level with the
    p-value.

    ``seed`` (internal) maps some leaves of a given ``structure`` to their
    blocks.  Such an engine holds only those leaves, each refitted at its
    block's lag count starting from the block, so that one pruning step can
    run on them alone.
    """

    def __init__(
        self,
        data: Dataset,
        config: FitConfig,
        p: int | None = None,
        horizon: int | None = None,
        structure: set[Context] | None = None,
        memo: _Memo | None = None,
        seed: dict[Context, ParamBlock] | None = None,
    ):
        self.data = data
        self.config = config
        self.p = _infer_p(data, p)
        self.d = data.d
        self._memo = _Memo(HistoryIndex(data)) if memo is None else memo
        self.index = self._memo.index
        if structure is None:
            structure = _grow_structure(self.index, self.p, config.s, config.max_order_cap)
        self.order = max(len(u) for u in structure)
        self.horizon = self.order if horizon is None else _integer("horizon", horizon, 0)
        if self.horizon < self.order:
            raise DataError(f"horizon {self.horizon} below tree order {self.order}")
        if self.horizon >= data.n:
            raise DataTooShort(f"horizon {self.horizon} leaves no transitions in n={data.n}")
        self.index.lagged(self.order)  # built once, as deep as the deepest design here
        self.audit: list[AuditRecord] = []
        self.notes: list[str] = []
        self.leaves: dict[Context, _LeafState] = {}
        self._fit_initial(structure, seed)

    # -- setup -------------------------------------------------------------

    def _fit_initial(self, structure: set[Context],
                     seed: dict[Context, ParamBlock] | None) -> None:
        """Fit every leaf of ``structure`` (the nodes that prefix no other)
        with all its lags from scratch, or each seeded leaf at its block's lag
        count from the block, unless the memo holds the leaf's state."""
        if seed is None:
            parents = {u[:-1] for u in structure if u}
            starts = dict.fromkeys(u for u in structure if u not in parents)
        else:
            starts = seed
        initial = self._memo.initial
        for u in sorted(starts):
            if u not in initial:
                block, notes = starts[u], []
                h = len(u) if block is None else block.h
                st = self._fit_state(u, self.index.rows(u, self.horizon), h, block, notes)
                initial[u] = (st, tuple(notes))
            self.leaves[u], notes = initial[u]
            self.notes.extend(notes)
        assigned = sum(st.rows.size for st in self.leaves.values())
        if seed is None and assigned != self.data.n - self.horizon:
            raise VlmcxError(
                f"internal error: {assigned} of {self.data.n - self.horizon} "
                f"transitions assigned to leaves"
            )

    def _fit_state(self, u: Context, rows: np.ndarray, h: int,
                   start: ParamBlock | None, notes: list[str]) -> _LeafState:
        """Fit leaf ``u`` on ``rows``, else its intercept-only model, else hold
        zeros (the null fit of a leaf without rows); a zero block reports 0
        iterations.  What happened goes to ``notes``."""
        design = glm._design(self.index, u, rows, len(u), self.p)
        res = None
        if rows.size == 0:
            notes.append(f"no transitions for {context_label(u)}; using a null fit")
        else:
            try:
                res = fit_leaf(design, h, start=start)
            except NotConverged:
                try:
                    res = fit_leaf(design, 0)
                    notes.append(
                        f"fit at {context_label(u)} with {h} lags did not "
                        f"converge; fell back to intercept only"
                    )
                except NotConverged:
                    notes.append(f"fit at {context_label(u)} failed entirely; using zeros")
        if res is None:
            k = self.p - 1
            zeros = ParamBlock(alpha=np.zeros(k), beta=np.zeros((k, 0, max(self.d, 1))))
            res = glm.MleResult(zeros, design_loglik(design, zeros), 0,
                                converged=False, separated=False)
        elif res.separated:
            notes.append(
                f"separation at {context_label(u)}: "
                f"a coefficient passed {glm.SEPARATION_BOUND} in magnitude"
            )
        return _LeafState(rows, design, res)

    # -- pruning -----------------------------------------------------------

    def run(self) -> None:
        for depth in range(self.order, 0, -1):
            self._run_pass(depth)

    def _run_pass(self, depth: int) -> None:
        leaves_at = sorted(u for u in self.leaves if len(u) == depth)
        if not leaves_at:
            return
        groups: dict[Context, list[Context]] = {}
        for u in leaves_at:
            groups.setdefault(u[:-1], []).append(u)
        gamma_eff = self.config.gamma
        if self.config.bonferroni:
            n_tests = sum(1 for u in leaves_at if self.leaves[u].fit.params.h > 0)
            n_tests += sum(1 for children in groups.values() if len(children) == self.p)
            if n_tests > 0:
                gamma_eff = self.config.gamma / n_tests

        not_rejected: dict[Context, bool] = {}
        for u in leaves_at:
            if self.leaves[u].fit.params.h == 0:
                not_rejected[u] = True
                continue
            not_rejected[u] = self._lag_drop_test(u, gamma_eff, "deepest_lag")

        for parent, children in sorted(groups.items()):
            mergeable = len(children) == self.p and all(not_rejected[c] for c in children)
            if mergeable and self._merge_test(parent, children, gamma_eff):
                continue
            for c in children:
                if not_rejected[c]:
                    self._lag_sweep(c, gamma_eff)

    def _lrt(self, ll_null: float, ll_alt: float, df: int, notes: list[str],
             trouble: Callable[[], str]) -> LrtResult:
        """``lrt`` of the nested pair; a null that beats the alternative is
        optimizer trouble, noted as ``trouble()``, and tests as p = 1."""
        try:
            return lrt(ll_null, ll_alt, df)
        except NestingViolation:
            notes.append(trouble())
            return LrtResult(0.0, df, 1.0)

    def _outcome(self, tested: tuple[_LeafState, ...],
                 run: Callable[[list[str]], tuple[LrtResult | None, _LeafState]]) -> _Outcome:
        """The memoized outcome of the test on ``tested``, computed by
        ``run(notes)`` on a miss; its notes are appended to this engine's."""
        out = self._memo.outcomes.get(tested)
        if out is None:
            notes: list[str] = []
            out = self._memo.outcomes[tested] = _Outcome(*run(notes), tuple(notes))
        self.notes.extend(out.notes)
        return out

    def _lag_drop_test(self, u: Context, gamma_eff: float, kind: str) -> bool:
        """Test the deepest stored lag of leaf ``u``; install the reduced fit
        when the test does not reject.  Returns True on a drop."""
        st = self.leaves[u]
        test, reduced, _ = self._outcome((st,), lambda notes: self._lag_drop_outcome(u, st, notes))
        dropped = not test.p_value <= gamma_eff  # a NaN test drops
        if dropped:
            self.leaves[u] = reduced
        self.audit.append(AuditRecord(kind, (u,), st.fit.params.h, test.statistic, test.df,
                                      test.p_value, "drop" if dropped else "keep"))
        return dropped

    def _lag_drop_outcome(self, u: Context, st: _LeafState,
                          notes: list[str]) -> tuple[LrtResult, _LeafState]:
        """The test of leaf state ``st``'s deepest lag and its reduced state.
        A failed constrained fit truncates the block and tests as NaN."""
        h = st.fit.params.h
        df = (self.p - 1) * self.d
        try:
            res = fit_leaf(st.design, h - 1, start=st.fit.params)
        except (NotConverged, DataError) as exc:
            notes.append(
                f"constrained fit at {context_label(u)} (lag {h}) failed: {exc}; "
                f"treating the lag as droppable"
            )
            block = st.fit.params.truncated(h - 1)
            res = glm.MleResult(block, design_loglik(st.design.truncated(h - 1), block), 0,
                                converged=False, separated=st.fit.separated)
            test = LrtResult(float("nan"), df, float("nan"))
        else:
            test = self._lrt(
                res.loglik, st.fit.loglik, df, notes,
                lambda: f"reduced fit at {context_label(u)} (lag {h}) beat the larger "
                        f"model; optimizer trouble, dropping the lag",
            )
        return test, _LeafState(st.rows, st.design, res)

    def _lag_sweep(self, u: Context, gamma_eff: float) -> None:
        while self.leaves[u].fit.params.h >= 1:
            if not self._lag_drop_test(u, gamma_eff, "lag_sweep"):
                break

    def _merge_test(self, parent: Context, children: list[Context], gamma_eff: float) -> bool:
        states = tuple(self.leaves[c] for c in children)
        test, merged_state, _ = self._outcome(
            states, lambda notes: self._merge_outcome(parent, states, notes))
        if test is None:
            return False
        merged = test.p_value >= gamma_eff
        self.audit.append(AuditRecord("sibling_merge", tuple(children), None, test.statistic,
                                      test.df, test.p_value, "merge" if merged else "no_merge"))
        if merged:
            for c in children:
                del self.leaves[c]
            self.leaves[parent] = merged_state
        return merged

    def _merge_outcome(self, parent: Context, states: tuple[_LeafState, ...],
                       notes: list[str]) -> tuple[LrtResult | None, _LeafState]:
        """The merge test of the children ``states`` and the merged parent's
        state; no test when the merge frees no parameters."""
        p, d = self.p, self.d
        ll_alt = sum(s.fit.loglik for s in states)
        params_alt = sum((p - 1) * (1 + d * s.fit.params.h) for s in states)
        rows = np.concatenate([s.rows for s in states])
        null_state = self._fit_state(parent, rows, len(parent), None, notes)
        params_null = (p - 1) * (1 + d * null_state.fit.params.h)
        df = params_alt - params_null
        if df < 1:
            notes.append(
                f"merge at {context_label(parent)} had no free parameters to test; skipping"
            )
            return None, null_state
        test = self._lrt(
            null_state.fit.loglik, ll_alt, df, notes,
            lambda: f"children of {context_label(parent)} scored below their merge; "
                    f"optimizer trouble, merging",
        )
        return test, null_state

    # -- outputs -------------------------------------------------------------

    def final_tree(self) -> ContextTree:
        leaves = {u: st.fit.params for u, st in self.leaves.items()}
        return ContextTree(p=self.p, d=self.d, nodes=_with_ancestors(leaves))

    def scores(self) -> _Scores:
        """The criteria of the current leaves, summed in context order."""
        fits = [self.leaves[u].fit for u in sorted(self.leaves)]
        loglik = float(sum(f.loglik for f in fits))
        n_alpha = len(fits)
        n_beta = sum((self.p - 1) * self.d * f.params.h for f in fits)
        k = n_beta + (n_alpha * (self.p - 1) if self.config.ic_include_intercepts else 0)
        aic = -2.0 * loglik + 2.0 * k
        bic = -2.0 * loglik + k * math.log(self.data.n - self.horizon)
        return _Scores(loglik, aic, bic, n_alpha, n_beta)

    def report(self) -> FitReport:
        sc = self.scores()
        items = sorted(self.leaves.items())
        leaf_stats = [
            LeafDiagnostics(
                context=u,
                n_obs=st.rows.size,
                h=st.fit.params.h,
                loglik=st.fit.loglik,
                converged=st.fit.converged,
                separated=st.fit.separated,
                iterations=st.fit.iterations,
            )
            for u, st in items
        ]
        return FitReport(
            tree=self.final_tree(),
            loglik=sc.loglik,
            aic=sc.aic,
            bic=sc.bic,
            n_alpha=sc.n_alpha,
            n_beta=sc.n_beta,
            n_eff=self.data.n - self.horizon,
            horizon=self.horizon,
            config=self.config,
            leaf_stats=leaf_stats,
            audit=list(self.audit),
            notes=list(self.notes),
        )


# -- public entry points ----------------------------------------------------------


def build_maximal_tree(
    data: Dataset,
    config: FitConfig | None = None,
    p: int | None = None,
    horizon: int | None = None,
) -> ContextTree:
    """Deepest count-supported tree with freshly fitted leaves (no pruning)."""
    return _Engine(data, config or FitConfig(), p=p, horizon=horizon).final_tree()


def fit(
    data: Dataset,
    config: FitConfig | None = None,
    p: int | None = None,
    horizon: int | None = None,
) -> FitReport:
    """Grow the maximal tree, prune it level by level, and score the result.

    ``horizon`` overrides the number of initial observations conditioned on
    (defaults to the maximal tree's order); tuning searches use a shared
    value so scores stay comparable across configurations.
    """
    config = config or FitConfig()
    engine = _Engine(data, config, p=p, horizon=horizon)
    engine.run()
    return engine.report()


def _seeded_engine(
    tree: ContextTree,
    leaves: Sequence[Context],
    data: Dataset,
    config: FitConfig | None,
    horizon: int | None,
) -> _Engine:
    """Engine holding ``leaves`` of ``tree``, each refitted from its block."""
    glm._check_data_fits_tree(tree, data)
    return _Engine(
        data, config or FitConfig(), p=tree.p, horizon=horizon,
        structure=set(tree.nodes), seed={c: tree.block(c) for c in leaves},
    )


def _leaf(tree: ContextTree, u: Context) -> Context:
    """``u`` as a context of ints, checked to be a leaf of ``tree``."""
    u = tuple(int(s) for s in u)
    if u not in tree.nodes:
        raise MalformedModel(f"unknown context {context_label(u)}")
    if not tree.is_leaf(u):
        raise ChildrenNotLeaves(f"{context_label(u)} is not a leaf")
    return u


def _last_test(engine: _Engine) -> LrtResult:
    rec = engine.audit[-1]
    return LrtResult(rec.statistic, rec.df, rec.p_value)


def test_pastmost_beta(
    tree: ContextTree,
    u: Context,
    data: Dataset,
    config: FitConfig | None = None,
    horizon: int | None = None,
) -> tuple[LrtResult, ContextTree]:
    """Test whether leaf ``u``'s deepest lag row is needed.

    Runs the estimator's own lag-drop step on the leaf refitted from its
    block, with its failure handling: a failed constrained fit drops the lag
    with a NaN test, a reduced fit that beats the larger one gives p = 1.
    Returns the test and the tree with the leaf's refit installed: the
    reduced fit on non-rejection, the full one otherwise.
    """
    u = _leaf(tree, u)
    h = tree.block(u).h
    if h < 1:
        raise ValueError(f"leaf {context_label(u)} has no lag rows to test")
    engine = _seeded_engine(tree, [u], data, config, horizon)
    st = engine.leaves[u]
    if st.fit.params.h < h:
        # the leaf has no rows, or its refit fell back to fewer lags
        error = DataError if st.rows.size == 0 else NumericalError
        raise error(f"cannot test {context_label(u)}: " + "; ".join(engine.notes))
    engine._lag_drop_test(u, engine.config.gamma, "deepest_lag")
    return _last_test(engine), tree.with_block(u, engine.leaves[u].fit.params)


test_pastmost_beta.__test__ = False  # a library function, not a pytest test


def merge_siblings_test(
    tree: ContextTree,
    parent: Context,
    data: Dataset,
    config: FitConfig | None = None,
    horizon: int | None = None,
) -> tuple[LrtResult, ContextTree]:
    """Test whether the children of ``parent`` share one law.

    Runs the estimator's own merge step on the children refitted from their
    blocks, with its failure handling: a merged fit that beats the children
    gives p = 1.  On non-rejection (p-value at or above gamma) the children
    are merged and the parent gets a fresh fit with as many lags as its
    depth.  Raises DomainError when the merge frees no parameters (df < 1),
    a merge the estimator never tests.
    """
    parent = tuple(int(s) for s in parent)
    merged_tree = tree.merge_leaves(parent)
    children = tree.children(parent)
    engine = _seeded_engine(tree, children, data, config, horizon)
    merged = engine._merge_test(parent, children, engine.config.gamma)
    if not engine.audit:
        raise DomainError(
            f"merge at {context_label(parent)} frees no parameters (df < 1); nothing to test"
        )
    if merged:
        tree = merged_tree.with_block(parent, engine.leaves[parent].fit.params)
    return _last_test(engine), tree


def sequential_beta_prune(
    tree: ContextTree,
    u: Context,
    data: Dataset,
    config: FitConfig | None = None,
    horizon: int | None = None,
) -> ContextTree:
    """Drop leaf ``u``'s lag rows deepest-first until a test rejects.

    Runs the estimator's own lag sweep on the leaf refitted from its block
    and returns the tree with the leaf's final fit installed.
    """
    u = _leaf(tree, u)
    engine = _seeded_engine(tree, [u], data, config, horizon)
    engine._lag_sweep(u, engine.config.gamma)
    return tree.with_block(u, engine.leaves[u].fit.params)


def replay_audit(tau_max: ContextTree, audit: Sequence[AuditRecord]) -> dict[Context, int | None]:
    """Re-apply recorded actions to the maximal tree's structure.

    Returns the node map implied by the audit alone: internal nodes map to
    None, leaves to their remaining lag count.  Matching this against a
    report's tree checks that the audit trail fully determines the outcome.
    A merged parent's lag count follows from the merge's ``df``: it has
    ``len(parent)`` lags, or none when its fit fell back to intercept only.
    """
    state = {u: tau_max.block(u).h if tau_max.is_leaf(u) else None for u in tau_max.nodes}
    k, d = tau_max.p - 1, tau_max.d
    for rec in audit:
        if rec.action == "drop":
            state[rec.contexts[0]] = rec.lag - 1
        elif rec.action == "merge":
            # df = k * (sum over children of (1 + d*h) - (1 + d*h_parent))
            lags = sum(state.pop(c) for c in rec.contexts)
            freed = rec.df // k - (len(rec.contexts) - 1)
            state[rec.contexts[0][:-1]] = lags - freed // d if d else 0
    return state


@dataclass(frozen=True)
class TuningCandidate(_Record):
    s: int
    gamma: float
    bic: float
    aic: float
    loglik: float
    n_alpha: int
    n_beta: int


@dataclass
class TuningResult:
    """Winner of a grid search plus the full score table."""

    config: FitConfig
    report: FitReport
    candidates: list[TuningCandidate]
    failures: list[str]

    def __iter__(self) -> Iterator:
        return iter((self.config, self.report))


def _grid_configs(
    s_grid: Sequence[int], gamma_grid: Sequence[float], base: FitConfig
) -> dict[int, list[FitConfig]]:
    """Every grid point's config by ascending s; ``DataError`` if any is invalid."""
    s_values = sorted({_integer("s", s, 1) for s in s_grid})
    gamma_values = sorted(set(float(g) for g in gamma_grid))
    if not s_values or not gamma_values:
        raise DataError("tuning grids must be non-empty")
    return {s: [base.replace(s=s, gamma=gamma) for gamma in gamma_values] for s in s_values}


def select_tuning(
    data: Dataset,
    s_grid: Sequence[int] = DEFAULT_S_GRID,
    gamma_grid: Sequence[float] = DEFAULT_GAMMA_GRID,
    config: FitConfig | None = None,
    p: int | None = None,
) -> TuningResult:
    """Pick (s, gamma) by smallest information criterion over the grid.

    All grid points are scored with one shared conditioning horizon (the
    largest maximal-tree order over the s grid) so their criteria compare
    like for like.  Exact ties break toward the smaller tree, then smaller
    gamma, then smaller s.  The same tree reached from different s values
    rarely ties exactly: a merged parent's rows are stacked in merge order,
    so its fit, and the BIC, can differ in the last bits, and the smaller
    BIC wins whatever its s.  Every grid point's config is validated before
    any tree is grown, so an invalid s or gamma raises ``DataError``.

    Each grid point runs an engine of its own, and all of them are built on
    one memo per call, which holds the one ``HistoryIndex`` of the data:
    each s grows its tree from its counts, and every leaf takes its rows and
    its design from it.  Under the shared horizon a leaf of several maximal
    trees has the same rows in each, so it is fitted once, and its state and
    notes serve every s.  A leaf state carries the full-depth design its
    first fit gathered, which serves its lag-drop fits and any failed-fit
    score.  A test's statistic, p-value, reduced or merged fit and notes do
    not depend on gamma, so they are memoized by the tested leaf states, and
    every grid point that reaches the same states only compares its own
    level with the p-value and writes its own audit record.  So each test
    runs once per call, and every candidate equals a separate ``fit`` at
    that (s, gamma) and horizon.
    Grid points are ranked by their scores alone; only the winner's report
    is built.  When no s can grow a tree, the data are at fault and
    ``DataTooShort`` is raised.
    """
    base = config or FitConfig()
    grid = _grid_configs(s_grid, gamma_grid, base)
    p_eff = _infer_p(data, p)
    index = HistoryIndex(data)
    # an unused state fails every s; this raises one error that names it once
    _check_alphabet(index, p_eff, min(grid) * (1 + data.d))
    failures: list[str] = []
    structures: dict[int, set[Context]] = {}
    for s in grid:
        try:
            structures[s] = _grow_structure(index, p_eff, s, base.max_order_cap)
        except DataTooShort as exc:
            failures.append(f"s={s}: {exc}")
    if not structures:
        raise DataTooShort("; ".join(failures))
    horizon = max(max(len(u) for u in st) for st in structures.values())
    memo = _Memo(index)
    best_key = None
    best: _Engine | None = None
    candidates: list[TuningCandidate] = []
    for s, structure in structures.items():
        for cfg in grid[s]:
            try:
                engine = _Engine(data, cfg, p=p_eff, horizon=horizon, structure=structure,
                                 memo=memo)
                engine.run()
                sc = engine.scores()
            except VlmcxError as exc:
                failures.append(f"s={s}, gamma={cfg.gamma}: {exc}")
                continue
            candidates.append(TuningCandidate(s=s, gamma=cfg.gamma, **sc._asdict()))
            key = (sc.bic, sc.n_alpha, cfg.gamma, s)
            if best_key is None or key < best_key:
                best_key = key
                best = engine
    if best is None:
        raise AllFitsFailed("; ".join(failures))
    return TuningResult(config=best.config, report=best.report(), candidates=candidates,
                        failures=failures)
