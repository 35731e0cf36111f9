"""Per-context logistic and multinomial regression.

Each leaf of a context tree owns one regression: the transition into the
next state is modeled through linear predictors on an intercept plus the
``h`` most recent covariate vectors.  The design row for a transition at
time ``t`` is ``[1, x[t-1], ..., x[t-h]]`` with each lag contributing ``d``
entries, so the coefficient layout matches ParamBlock: column ``1 + (t*d) + l``
belongs to covariate ``l`` observed ``t + 1`` steps back.

Fitting is plain Newton-Raphson with step-halving, through one kernel built
per fit.  The logistic (p = 2) or multinomial form is chosen when the kernel
is built, and nowhere else.  The kernel evaluates the link at a point (the
log-likelihood and the linear predictors behind it), turns those into fitted
probabilities, and computes the score and the information matrix from the
probabilities.  A line search evaluates every trial step, but only the start
and the accepted steps get probabilities; a rejected step needs none.  A
singular information matrix gets a small ridge; iterates whose coefficients
pass ``SEPARATION_BOUND`` in magnitude mark the result as separated but still
return it.

Work is done once per design where it can be.  A ``LeafDesign`` builds its
target encodings (``LeafDesign.targets``) on first use, and every fit,
gradient, Hessian and ``design_loglik`` on it reads them, at any ``h``; a
fit at fewer lags reads the first columns of ``X`` as a view.  Once per fit
come only the kernel and its buffers, sized to the design's rows.

Per-state arrays are stored state-major, one contiguous row of time points
per state: the multinomial kernel's (p, m) predictors and (p - 1, m)
probabilities, and the (p, t) predictors of each leaf in
``log_likelihood``.  Reductions over the states then run as whole-row
ufuncs, except the sum of exponentials.  The kernel writes the exponentials
through the transposed view of a row-major (m, p) buffer and sums that
buffer's rows, so they add in numpy's row order (pairwise from 8 states on)
and every result keeps the bits of the row-major form, without a copy.  The
predictors are written the same way, by a product into the transposed view
of their rows, which numpy computes as the transposed gemm; the tests check
both against the row-major oracles byte for byte.

The multinomial information is computed as one gemm per upper (j, l) block
of targets, stacked, and assembled by a single gather: an index cached per
(number of targets, columns) maps each entry of the (k q, k q) matrix to its
place in the stacked blocks, transposed below the block diagonal.  The
gather copies values, so the matrix has the bytes of a block-by-block
assembly.  Sums and maxima call ``np.add.reduce`` and ``np.maximum.reduce``
directly, the same reductions as ``ndarray.sum`` and ``ndarray.max``
without their Python wrappers, and checks on a handful of entries run on
Python floats.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class LeafDesign:
    """Design matrix and responses for the transitions assigned to one leaf.

    Frozen, so that the target encodings built from ``y`` once per design
    cannot go stale: ``dataclasses.replace`` gives a new design with its own.
    """

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

    @functools.cached_property
    def targets(self) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The responses as the kernel reads them, at every ``h``: the 0/1
        float vector of transitions into state 1 for p = 2; for p > 2 the
        (p - 1, m) one-hot rows of states 1..p-1 and each time point's
        observed state in the flattened (p, m) log-probabilities."""
        y, m = self.y, self.m
        if self.p == 2:
            return (y == 1).astype(float)
        return (y == np.arange(1, self.p)[:, np.newaxis]).astype(float), y * m + np.arange(m)

    def truncated(self, h: int) -> "LeafDesign":
        """Same rows, keeping the intercept and the first ``h`` lags."""
        out = LeafDesign(
            context=self.context,
            X=self.X[:, : 1 + _checked_h(self, h) * self.d],
            y=self.y,
            h=h,
            d=self.d,
            p=self.p,
        )
        vars(out)["targets"] = self.targets  # same responses, same encodings
        return out


def _checked_h(design: LeafDesign, h: int) -> int:
    if not 0 <= h <= design.h:
        raise ValueError(f"h={h} outside [0, {design.h}]")
    return h


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
    ``score`` and ``information`` read.  Both are (m,) vectors for p = 2 and
    state-major (p, m) and (p - 1, m) arrays above."""

    @staticmethod
    def solve(A: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Newton step ``A⁻¹ g`` for the information ``A``; a singular or
        non-finite solve is retried once with ``RIDGE`` on the diagonal."""
        step = _solve1(A, g, signature="dd->d")
        if not all(map(math.isfinite, step.tolist())):
            step = _solve1(A + RIDGE * np.eye(A.shape[0]), g, signature="dd->d")
            if not all(map(math.isfinite, step.tolist())):
                raise NotConverged(0, "singular Hessian even after ridge")
        return step


class _Logistic(_Kernel):
    """p = 2: the linear predictor and the probabilities are (m,) vectors,
    the log-odds and P(state 1)."""

    def __init__(self, X: np.ndarray, targets: np.ndarray):
        self.X, self.Xt, self.y = X, X.T, targets

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        z = self.X @ theta
        return float(self.y @ z - np.add.reduce(np.logaddexp(0.0, z))), z

    @staticmethod
    def probabilities(z: np.ndarray) -> np.ndarray:
        return np.exp(-np.logaddexp(0.0, -z))

    def score(self, mu: np.ndarray) -> np.ndarray:
        return self.Xt @ (self.y - mu)

    def information(self, mu: np.ndarray) -> np.ndarray:
        w = mu * (1.0 - mu)
        return (self.X * w[:, np.newaxis]).T @ self.X


class _Multinomial(_Kernel):
    """p > 2, stored state-major: the link gives the (p, m) log-probabilities,
    one contiguous row of ``m`` time points per state, and the probabilities
    are the (p - 1, m) rows of states 1..p-1.  The max over states, the
    exponentials and the per-target weights are then whole-row ufuncs.

    The values are those of the row-major (m, p) form bit for bit.  The one
    ordered reduction, the sum of exponentials over states, is taken on a
    row-major (m, p) buffer whose transposed view receives the exponentials:
    numpy sums a contiguous row pairwise once it has 8 or more entries, while
    a sum over axis 0 adds the states one by one, which rounds differently
    for p >= 8."""

    def __init__(self, X: np.ndarray, targets: tuple[np.ndarray, np.ndarray], p: int):
        m = X.shape[0]
        self.X, self.Xt, self.k = X, X.T, p - 1
        self.onehot, self.pick = targets
        self.L = np.zeros((p, m))  # row 0 is the baseline state's predictor
        self.Lt = self.L[1:].T  # (m, p - 1) view that receives X Θᵀ
        self.E = np.empty((m, p))  # row-major exponentials
        self.Et = self.E.T
        self.pairs = _target_pairs(self.k)
        self.layout = _information_layout(self.k, X.shape[1])

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        L, E = self.L, self.E
        np.matmul(self.X, theta.reshape(self.k, -1).T, out=self.Lt)
        mx = np.maximum.reduce(L, axis=0)
        np.exp(np.subtract(L, mx, out=self.Et), out=self.Et)
        LP = L - (mx + np.log(np.add.reduce(E, axis=1)))
        return float(np.add.reduce(LP.take(self.pick))), LP

    @staticmethod
    def probabilities(LP: np.ndarray) -> np.ndarray:
        return np.exp(LP[1:])

    def score(self, P: np.ndarray) -> np.ndarray:
        # one gemv per target, stacked; a single gemm rounds differently
        return np.matmul(self.Xt, (self.onehot - P)[:, :, np.newaxis]).ravel()

    def information(self, P: np.ndarray) -> np.ndarray:
        J, K, delta = self.pairs
        W = P.take(J, axis=0) * (delta - P.take(K, axis=0))
        # one gemm per (j, l) block, stacked: (X * w[:, None]).T @ X each
        B = np.matmul((self.X * W[:, :, np.newaxis]).transpose(0, 2, 1), self.X)
        return B.take(self.layout)


@functools.cache
def _target_pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The target pairs (j, l), j <= l, of the information's upper blocks,
    and the Kronecker delta of each as a column."""
    J, K = np.triu_indices(k)
    return J, K, (J == K).astype(float)[:, np.newaxis]


@functools.cache
def _information_layout(k: int, q: int) -> np.ndarray:
    """Where each entry of the (k q, k q) information sits in the flattened
    stack B of its upper (q, q) blocks, in ``_target_pairs`` order: entry
    (j q + a, l q + b) is B[(j, l), a, b] for j <= l and B[(l, j), b, a]
    below the block diagonal.  A diagonal block is taken as computed, so
    the information keeps the bytes of the block-by-block assembly."""
    J, K, _ = _target_pairs(k)
    pair = np.empty((k, k), dtype=np.intp)
    pair[J, K] = pair[K, J] = np.arange(J.size)
    block, a = np.divmod(np.arange(k * q), q)
    upper = block[:, np.newaxis] <= block
    within = np.where(upper, a[:, np.newaxis] * q + a, a * q + a[:, np.newaxis])
    layout = pair[block[:, np.newaxis], block] * (q * q) + within
    layout.setflags(write=False)
    return layout


def _kernel(design: LeafDesign, X: np.ndarray) -> _Kernel:
    """The kernel of ``design``'s responses on ``X``, its first columns."""
    if design.p == 2:
        return _Logistic(X, design.targets)
    return _Multinomial(X, design.targets, design.p)


def _flat(design: LeafDesign, params) -> np.ndarray:
    return np.asarray(params, dtype=float).reshape(design.p - 1, design.n_cols).ravel()


def _fitted(design: LeafDesign, params) -> tuple[_Kernel, np.ndarray]:
    kernel = _kernel(design, design.X)
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
    return _kernel(design, design.X).evaluate(theta.ravel())[0]


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


def _check_data_fits_tree(tree: ContextTree, data: Dataset) -> None:
    """``AlphabetMismatch`` unless the data have the tree's d and no state
    outside its ``0 .. p-1``."""
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
    _check_data_fits_tree(tree, data)
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
    _check_data_fits_tree(tree, data)
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
            # state-major (p, t) predictors, summed over states in row order
            # as in _Multinomial.evaluate
            z = np.zeros((tree.p, t.size))
            z[1:] = block.alpha[:, np.newaxis]
            for lag in range(1, block.h + 1):
                z[1:] += (cov[t - lag] @ block.beta[:, lag - 1, :].T).T
            mx = z.max(axis=0)
            E = np.empty((t.size, tree.p))  # row-major exponentials
            np.exp(np.subtract(z, mx, out=E.T), out=E.T)
            norm = mx + np.log(np.add.reduce(E, axis=1))
            total += float((z[states[t], np.arange(t.size)] - norm).sum())
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
    return max(map(abs, theta)) > SEPARATION_BOUND and not any(v != v for v in theta)


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
    if h is None or h == design.h:
        h, X = design.h, design.X
    else:
        X = design.X[:, : 1 + _checked_h(design, h) * design.d]
    kernel = _kernel(design, X)
    if start is not None:
        theta = _theta_from_block(start, h, design.d).ravel()
    else:
        theta = np.zeros((design.p - 1) * X.shape[1])
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
