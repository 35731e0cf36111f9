"""Per-context logistic and multinomial regression.

Each leaf of a context tree owns one regression: the transition into the
next state is modeled through linear predictors on an intercept plus the
``h`` most recent covariate vectors.  The design row for a transition at
time ``t`` is ``[1, x[t-1], ..., x[t-h]]`` with each lag contributing ``d``
entries, so the coefficient layout matches ParamBlock: column ``1 + (t*d) + l``
belongs to covariate ``l`` observed ``t + 1`` steps back.

Fitting is plain Newton-Raphson with step-halving, through one kernel built
once per design.  The logistic (p = 2) or multinomial form is chosen when the
kernel is built, and nowhere else.  The kernel evaluates the link at a point
(the log-likelihood and the linear predictors behind it), turns those into
fitted probabilities, and computes the score and the information matrix from
the probabilities.  A line search evaluates every trial step, but only the
start and the accepted steps get probabilities; a rejected step needs none.
A singular information matrix gets a small ridge; iterates whose
coefficients pass ``SEPARATION_BOUND`` in magnitude mark the result as
separated but still return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    Context,
    ContextTree,
    Dataset,
    HistoryIndex,
    ParamBlock,
    _integer,
    context_label,
)
from .errors import (
    AlphabetMismatch,
    DataError,
    LagMismatch,
    NotConverged,
)

GRAD_TOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 30
SEPARATION_BOUND = 30.0
RIDGE = 1e-8


@dataclass
class LeafDesign:
    """Design matrix and responses for the transitions assigned to one leaf."""

    context: Context
    X: np.ndarray
    y: np.ndarray
    h: int
    d: int
    p: int

    @property
    def m(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_cols(self) -> int:
        return 1 + self.h * self.d

    def truncated(self, h: int) -> "LeafDesign":
        """Same rows, keeping the intercept and the first ``h`` lags."""
        if not 0 <= h <= self.h:
            raise ValueError(f"h={h} outside [0, {self.h}]")
        return LeafDesign(
            context=self.context,
            X=self.X[:, : 1 + h * self.d],
            y=self.y,
            h=h,
            d=self.d,
            p=self.p,
        )


@dataclass(frozen=True)
class MleResult:
    """Outcome of one leaf fit."""

    params: ParamBlock
    loglik: float
    iterations: int
    converged: bool
    separated: bool


# -- the Newton kernel ----------------------------------------------------------

# The LAPACK gufunc that np.linalg.solve(A, b) calls for a 1-D b, without
# that wrapper's type and shape checks.  Under np.errstate(invalid="ignore")
# a singular A gives a NaN solution instead of LinAlgError.
_solve1 = _umath_linalg.solve1


class _Kernel:
    """One design's link, score and information at flat parameters ``theta``,
    ``(p - 1) * q`` long and row-major by target.  ``_kernel`` builds the
    logistic or the multinomial form once per design; ``evaluate`` returns
    the log-likelihood and the linear predictors it computed them from,
    ``probabilities`` turns those into the fitted probabilities that
    ``score`` and ``information`` read."""

    @staticmethod
    def solve(A: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Newton step ``A⁻¹ g`` for the information ``A``; a singular or
        non-finite solve is retried once with ``RIDGE`` on the diagonal."""
        step = _solve1(A, g, signature="dd->d")
        if not np.isfinite(step).all():
            step = _solve1(A + RIDGE * np.eye(A.shape[0]), g, signature="dd->d")
            if not np.isfinite(step).all():
                raise NotConverged(0, "singular Hessian even after ridge")
        return step


class _Logistic(_Kernel):
    """p = 2: the linear predictor and the probabilities are (m,) vectors,
    the log-odds and P(state 1)."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X, self.Xt = X, X.T
        self.y = (y == 1).astype(float)

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        z = self.X @ theta
        return float(self.y @ z - np.logaddexp(0.0, z).sum()), z

    @staticmethod
    def probabilities(z: np.ndarray) -> np.ndarray:
        return np.exp(-np.logaddexp(0.0, -z))

    def score(self, mu: np.ndarray) -> np.ndarray:
        return self.Xt @ (self.y - mu)

    def information(self, mu: np.ndarray) -> np.ndarray:
        w = mu * (1.0 - mu)
        return (self.X * w[:, np.newaxis]).T @ self.X


class _Multinomial(_Kernel):
    """p > 2: the link gives the (m, p) log-probabilities of every state, and
    the probabilities are the (m, p - 1) matrix of states 1..p-1."""

    def __init__(self, X: np.ndarray, y: np.ndarray, p: int):
        m = X.shape[0]
        self.X, self.Xt, self.k = X, X.T, p - 1
        self.base = np.zeros((m, 1))
        # row j marks the transitions into state j + 1
        self.onehot = (y == np.arange(1, p)[:, np.newaxis]).astype(float)
        # each row's observed state in the flattened (m, p) log-probabilities
        self.pick = np.arange(m) * p + y

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        L = np.concatenate([self.base, self.X @ theta.reshape(self.k, -1).T], axis=1)
        mx = L.max(axis=1, keepdims=True)
        LP = L - (mx + np.log(np.exp(L - mx).sum(axis=1, keepdims=True)))
        return float(LP.take(self.pick).sum()), LP

    @staticmethod
    def probabilities(LP: np.ndarray) -> np.ndarray:
        return np.exp(LP[:, 1:])

    def score(self, P: np.ndarray) -> np.ndarray:
        return np.concatenate([self.Xt @ (self.onehot[j] - P[:, j]) for j in range(self.k)])

    def information(self, P: np.ndarray) -> np.ndarray:
        k, q = self.k, self.X.shape[1]
        A = np.empty((k * q, k * q))
        for j in range(k):
            for l in range(j, k):
                w = P[:, j] * ((1.0 if j == l else 0.0) - P[:, l])
                block = (self.X * w[:, np.newaxis]).T @ self.X
                A[j * q : (j + 1) * q, l * q : (l + 1) * q] = block
                if l != j:
                    A[l * q : (l + 1) * q, j * q : (j + 1) * q] = block.T
        return A


def _kernel(design: LeafDesign) -> _Kernel:
    if design.p == 2:
        return _Logistic(design.X, design.y)
    return _Multinomial(design.X, design.y, design.p)


def _flat(design: LeafDesign, params) -> np.ndarray:
    return np.asarray(params, dtype=float).reshape(design.p - 1, design.n_cols).ravel()


def _fitted(design: LeafDesign, params) -> tuple[_Kernel, np.ndarray]:
    kernel = _kernel(design)
    return kernel, kernel.probabilities(kernel.evaluate(_flat(design, params))[1])


def gradient(design: LeafDesign, params: np.ndarray) -> np.ndarray:
    """Score vector at ``params`` (flattened (p-1, 1 + h*d), row-major)."""
    kernel, P = _fitted(design, params)
    return kernel.score(P)


def hessian(design: LeafDesign, params: np.ndarray) -> np.ndarray:
    """Hessian matrix at ``params``; symmetric and negative semidefinite."""
    kernel, P = _fitted(design, params)
    return -kernel.information(P)


def design_loglik(design: LeafDesign, block: ParamBlock) -> float:
    """Log-likelihood of the design rows under ``block``."""
    theta = _theta_from_block(block, design.h, design.d)
    return _kernel(design).evaluate(theta.ravel())[0]


# -- coefficient block <-> flat parameter matrix -----------------------------


def _theta_from_block(block: ParamBlock, h: int, d: int) -> np.ndarray:
    k = block.n_targets
    theta = np.zeros((k, 1 + h * d))
    theta[:, 0] = block.alpha
    use = min(block.h, h)
    if use > 0:
        theta[:, 1 : 1 + use * d] = block.beta[:, :use, :].reshape(k, use * d)
    return theta


def _block_from_theta(theta: np.ndarray, h: int, d: int) -> ParamBlock:
    k = theta.shape[0]
    return ParamBlock(alpha=theta[:, 0], beta=theta[:, 1:].reshape(k, h, d))


# -- transition probabilities ------------------------------------------------


def _lag_vector(block: ParamBlock, recent_covariates) -> np.ndarray:
    h, d = block.h, block.d
    if h == 0:
        return np.empty(0)
    if recent_covariates is None:
        raise LagMismatch(f"need {h} covariate rows, got none")
    window = np.asarray(recent_covariates, dtype=float)
    if window.ndim == 1:
        window = window.reshape(-1, d) if d == 1 else window.reshape(1, -1)
    if window.ndim != 2 or window.shape[1] != d:
        raise LagMismatch(f"covariate rows must have width {d}")
    if window.shape[0] < h:
        raise LagMismatch(f"need {h} covariate rows, got {window.shape[0]}")
    if not np.isfinite(window[:h]).all():
        raise LagMismatch("covariate rows must be finite")
    return window[:h].ravel()


def transition_distribution(block: ParamBlock, recent_covariates=None) -> np.ndarray:
    """Probabilities over the next state.

    ``recent_covariates`` holds one row per lag, most recent first; rows
    beyond the block's ``h`` are ignored, the others must be finite.
    """
    x = _lag_vector(block, recent_covariates)
    z = np.concatenate([[0.0], block.alpha + block.beta.reshape(block.n_targets, -1) @ x])
    z -= z.max()
    probs = np.exp(z)
    return probs / probs.sum()


def transition_probability(block: ParamBlock, recent_covariates, target: int) -> float:
    """P(next state = target) given the context's block and recent covariates."""
    if not 0 <= target < block.p:
        raise DataError(f"target state {target} outside 0..{block.p - 1}")
    return float(transition_distribution(block, recent_covariates)[target])


# -- designs and sequence likelihood ------------------------------------------


def _check_alphabet(tree: ContextTree, data: Dataset) -> None:
    if data.d != tree.d:
        raise AlphabetMismatch(f"data has d={data.d}, tree d={tree.d}")
    if data.states.max(initial=0) >= tree.p:
        raise AlphabetMismatch(f"state {int(data.states.max())} outside 0..{tree.p - 1}")


def build_design(
    data: Dataset,
    tree: ContextTree,
    u: Context,
    h: int | None = None,
    horizon: int | None = None,
) -> LeafDesign:
    """Design for the transitions whose recent history matches ``u``.

    Only time points after ``horizon`` (default: the tree's order) enter, so
    likelihoods of competing trees stay comparable.  ``h`` defaults to the
    leaf's fitted lag count, else the context depth.
    """
    u = tuple(int(s) for s in u)
    if u not in tree.nodes:
        raise DataError(f"unknown context {context_label(u)}")
    _check_alphabet(tree, data)
    if h is None:
        block = tree.nodes.get(u)
        h = block.h if block is not None else len(u)
    h = _integer("h", h, 0)
    if h > len(u):
        raise DataError(f"h={h} outside [0, {len(u)}]")
    horizon = tree.order if horizon is None else _integer("horizon", horizon, 0)
    if horizon < len(u):
        raise DataError(f"horizon {horizon} shorter than context {context_label(u)}")
    index = HistoryIndex(data)
    return _design(index, u, index.rows(u, horizon), h, tree.p)


def _design(index: HistoryIndex, u: Context, rows: np.ndarray, h: int, p: int) -> LeafDesign:
    """Leaf ``u``'s design on the transitions at time points ``rows``, in
    that order, with ``h`` lags: one gather from the index's lagged matrix."""
    data = index.data
    X = index.lagged(h)[rows, : 1 + h * data.d]
    return LeafDesign(context=u, X=X, y=data.states[rows], h=h, d=data.d, p=p)


def log_likelihood(tree: ContextTree, data: Dataset, horizon: int | None = None) -> float:
    """Log-likelihood of the sequence, conditioning on the first ``horizon``
    states (default: the tree's order).

    The time points ``horizon .. n-1`` start at the root and are split at
    each internal node of depth ``k`` by ``states[t-1-k]``, so each leaf
    gets the transitions whose history it matches.  A leaf scores all of
    them at once with its own log-softmax (baseline 0).  This walk is the
    tree's own and shares nothing with the leaf designs used in fitting,
    so it checks them independently.

    Raises, for the earliest time point that fails, what
    ``tree.block(tree.lookup(history))`` raises for its history:
    ``HistoryTooShort``, or ``MalformedModel`` for a missing branch or a
    leaf without parameters.
    """
    _check_alphabet(tree, data)
    horizon = tree.order if horizon is None else _integer("horizon", horizon, 0)
    states, cov = data.states, data.covariates
    first = data.n  # earliest failing time point; data.n when none fails
    total = 0.0
    stack: list[tuple[Context, np.ndarray]] = [((), np.arange(horizon, data.n))]
    while stack:
        node, t = stack.pop()
        if t.size == 0:
            continue
        depth = len(node)
        if tree.is_leaf(node):
            block = tree.nodes[node]
            if block is None:
                first = min(first, int(t[0]))
                continue
            eta = np.tile(block.alpha, (t.size, 1))
            for lag in range(1, block.h + 1):
                eta += cov[t - lag] @ block.beta[:, lag - 1, :].T
            z = np.concatenate([np.zeros((t.size, 1)), eta], axis=1)
            mx = z.max(axis=1)
            norm = mx + np.log(np.exp(z - mx[:, np.newaxis]).sum(axis=1))
            total += float((z[np.arange(t.size), states[t]] - norm).sum())
            continue
        # t is ascending, so the histories too short to pass are a prefix
        if t[0] <= depth:
            first = min(first, int(t[0]))
            t = t[t > depth]
        sym = states[t - 1 - depth]
        for w in range(tree.p):
            reach = t[sym == w]
            child = node + (w,)
            if reach.size == 0:
                continue
            if child not in tree.nodes:
                first = min(first, int(reach[0]))
                continue
            stack.append((child, reach))
    if first < data.n:
        tree.block(tree.lookup(states[:first][::-1]))  # raises: the walk failed at t = first
    return total


# -- Newton fitting -----------------------------------------------------------


# The two stopping checks of the Newton loop read a handful of entries, so
# they run on Python floats, where numpy's call overhead would dominate.  Each
# gives the answer of the numpy expression in its docstring for every input:
# numpy's maximum is NaN as soon as one entry is NaN.


def _within_tolerance(g: list[float], tol: float) -> bool:
    """``np.abs(g).max() <= tol``: a NaN anywhere fails it."""
    return all(abs(v) <= tol for v in g)


def _past_separation_bound(theta: list[float]) -> bool:
    """``np.abs(theta).max() > SEPARATION_BOUND``: a NaN anywhere makes the
    answer False."""
    return any(abs(v) > SEPARATION_BOUND for v in theta) and not any(v != v for v in theta)


def fit_leaf(
    design: LeafDesign,
    h: int | None = None,
    *,
    start: ParamBlock | None = None,
    grad_tol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
    trace: list | None = None,
) -> MleResult:
    """Maximum-likelihood fit of one leaf's regression.

    ``h`` below the design's lag count fits the constrained model with the
    deeper lags held at zero (their columns are simply dropped).  ``start``
    warm-starts the iteration; extra lag rows in it are ignored.  ``trace``
    collects the log-likelihood of the start and of every accepted iterate.
    """
    if design.m == 0:
        raise DataError(f"no transitions assigned to {context_label(design.context)}")
    if h is None:
        h = design.h
    sub = design if h == design.h else design.truncated(h)
    kernel = _kernel(sub)
    if start is not None:
        theta = _theta_from_block(start, h, design.d).ravel()
    else:
        theta = np.zeros((design.p - 1) * sub.n_cols)
    iterations = 0
    separated = False
    with np.errstate(all="ignore"):
        ll, eta = kernel.evaluate(theta)
        P = kernel.probabilities(eta)
        if trace is not None:
            trace.append(ll)
        while True:
            g = kernel.score(P)
            converged = _within_tolerance(g.tolist(), grad_tol)
            if converged or separated or iterations >= max_iter:
                break
            step = kernel.solve(kernel.information(P), g)
            floor = ll - 1e-10 * (1.0 + abs(ll))
            scale, cand = 1.0, theta + step  # 1.0 * step is step, bit for bit
            for _ in range(MAX_HALVINGS + 1):
                ll_new, eta = kernel.evaluate(cand)
                if math.isfinite(ll_new) and ll_new >= floor:
                    break
                scale *= 0.5
                cand = theta + scale * step
            else:
                raise NotConverged(iterations + 1)
            theta, ll, P = cand, ll_new, kernel.probabilities(eta)
            iterations += 1
            if trace is not None:
                trace.append(ll)
            separated = _past_separation_bound(theta.tolist())
    if not (converged or separated):
        raise NotConverged(iterations)
    return MleResult(
        params=_block_from_theta(theta.reshape(design.p - 1, -1), h, design.d),
        loglik=ll,
        iterations=iterations,
        converged=converged,
        separated=separated,
    )
