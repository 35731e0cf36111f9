"""Per-context logistic and multinomial regression.

Each leaf of a context tree owns one regression: the transition into the
next state is modeled through linear predictors on an intercept plus the
``h`` most recent covariate vectors.  The design row for a transition at
time ``t`` is ``[1, x[t-1], ..., x[t-h]]`` with each lag contributing ``d``
entries, so the coefficient layout matches ParamBlock: column ``1 + (t*d) + l``
belongs to covariate ``l`` observed ``t + 1`` steps back.

Fitting is plain Newton-Raphson with step-halving.  One function,
``_evaluate``, computes the link at a point: the log-likelihood and the fitted
probabilities.  Each iterate is evaluated once, and the score and Hessian at
the accepted iterate read its probabilities.  A singular Hessian gets a small
ridge; iterates whose coefficients pass ``SEPARATION_BOUND`` in magnitude mark
the result as separated but still return it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Context, ContextTree, Dataset, ParamBlock, context_label
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


# -- probability kernels ----------------------------------------------------


def _evaluate(X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Log-likelihood at ``theta`` ((p-1, q)) and the (m, p-1) probabilities
    of states 1..p-1; p = 2 takes the logistic forms."""
    if theta.shape[0] == 1:
        z = X @ theta[0]
        mu = np.exp(-np.logaddexp(0.0, -z))
        return float(y @ z - np.logaddexp(0.0, z).sum()), mu[:, np.newaxis]
    m = X.shape[0]
    L = np.concatenate([np.zeros((m, 1)), X @ theta.T], axis=1)
    mx = L.max(axis=1, keepdims=True)
    LP = L - (mx + np.log(np.exp(L - mx).sum(axis=1, keepdims=True)))
    return float(LP[np.arange(m), y].sum()), np.exp(LP[:, 1:])


def _score(X: np.ndarray, y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Score as a (p-1, q) matrix, from the probabilities of ``_evaluate``."""
    G = np.empty((P.shape[1], X.shape[1]))
    for j in range(P.shape[1]):
        G[j] = X.T @ ((y == j + 1) - P[:, j])
    return G


def _hess(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Observed-information Hessian of the log-likelihood, ((p-1)q, (p-1)q)."""
    k, q = P.shape[1], X.shape[1]
    H = np.empty((k * q, k * q))
    for j in range(k):
        for l in range(j, k):
            w = P[:, j] * ((1.0 if j == l else 0.0) - P[:, l])
            block = -(X * w[:, np.newaxis]).T @ X
            H[j * q : (j + 1) * q, l * q : (l + 1) * q] = block
            if l != j:
                H[l * q : (l + 1) * q, j * q : (j + 1) * q] = block.T
    return H


def _probs_at(design: LeafDesign, params: np.ndarray) -> np.ndarray:
    theta = np.asarray(params, dtype=float).reshape(design.p - 1, design.n_cols)
    return _evaluate(design.X, design.y, theta)[1]


def gradient(design: LeafDesign, params: np.ndarray) -> np.ndarray:
    """Score vector at ``params`` (flattened (p-1, 1 + h*d), row-major)."""
    return _score(design.X, design.y, _probs_at(design, params)).ravel()


def hessian(design: LeafDesign, params: np.ndarray) -> np.ndarray:
    """Hessian matrix at ``params``; symmetric and negative semidefinite."""
    return _hess(design.X, _probs_at(design, params))


def design_loglik(design: LeafDesign, block: ParamBlock) -> float:
    """Log-likelihood of the design rows under ``block``."""
    theta = _theta_from_block(block, design.h, design.d)
    return _evaluate(design.X, design.y, theta)[0]


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
    return window[:h].ravel()


def transition_distribution(block: ParamBlock, recent_covariates=None) -> np.ndarray:
    """Probabilities over the next state.

    ``recent_covariates`` holds one row per lag, most recent first; rows
    beyond the block's ``h`` are ignored.
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
    if data.d != tree.d:
        raise AlphabetMismatch(f"data has d={data.d}, tree d={tree.d}")
    if data.states.max(initial=0) >= tree.p:
        raise AlphabetMismatch(f"state {int(data.states.max())} outside 0..{tree.p - 1}")
    if h is None:
        block = tree.nodes.get(u)
        h = block.h if block is not None else len(u)
    if not 0 <= h <= len(u):
        raise ValueError(f"h={h} outside [0, {len(u)}]")
    if horizon is None:
        horizon = tree.order
    if horizon < len(u):
        raise ValueError(f"horizon {horizon} shorter than context {context_label(u)}")
    return _window_design(data, u, h, horizon, tree.p)


def _window_design(data: Dataset, u: Context, h: int, horizon: int, p: int) -> LeafDesign:
    states = data.states
    idx = np.arange(horizon, data.n)
    mask = np.ones(idx.size, dtype=bool)
    for j, sym in enumerate(u):
        mask &= states[idx - 1 - j] == sym
    sel = idx[mask]
    X = np.empty((sel.size, 1 + h * data.d))
    X[:, 0] = 1.0
    for lag in range(1, h + 1):
        X[:, 1 + (lag - 1) * data.d : 1 + lag * data.d] = data.covariates[sel - lag]
    return LeafDesign(context=u, X=X, y=states[sel].astype(np.int64), h=h, d=data.d, p=p)


def log_likelihood(tree: ContextTree, data: Dataset, horizon: int | None = None) -> float:
    """Log-likelihood of the sequence, conditioning on the first ``horizon``
    states (default: the tree's order).

    Evaluated one transition at a time by walking the tree, independently of
    the per-leaf design decomposition used during fitting.
    """
    if data.d != tree.d:
        raise AlphabetMismatch(f"data has d={data.d}, tree d={tree.d}")
    if data.states.max(initial=0) >= tree.p:
        raise AlphabetMismatch(f"state {int(data.states.max())} outside 0..{tree.p - 1}")
    if horizon is None:
        horizon = tree.order
    states = data.states
    total = 0.0
    for i in range(horizon, data.n):
        hist = states[:i][::-1]
        leaf = tree.lookup(hist)
        block = tree.block(leaf)
        hh = block.h
        window = data.covariates[i - hh : i][::-1] if hh > 0 else None
        x = _lag_vector(block, window)
        z = np.concatenate([[0.0], block.alpha + block.beta.reshape(block.n_targets, -1) @ x])
        mx = z.max()
        total += float(z[states[i]] - (mx + np.log(np.exp(z - mx).sum())))
    return total


# -- Newton fitting -----------------------------------------------------------


def _solve_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    A = -H
    try:
        step = np.linalg.solve(A, g)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    A = A + RIDGE * np.eye(A.shape[0])
    step = np.linalg.solve(A, g)
    if not np.all(np.isfinite(step)):
        raise NotConverged(0, "singular Hessian even after ridge")
    return step


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
    X, y = sub.X, sub.y
    if start is not None:
        theta = _theta_from_block(start, h, design.d)
    else:
        theta = np.zeros((design.p - 1, sub.n_cols))
    ll, P = _evaluate(X, y, theta)
    if trace is not None:
        trace.append(ll)
    iterations = 0
    separated = False
    while True:
        G = _score(X, y, P)
        converged = bool(np.abs(G).max() <= grad_tol)
        if converged or separated or iterations >= max_iter:
            break
        H = _hess(X, P)
        step = _solve_step(H, G.ravel()).reshape(theta.shape)
        floor = ll - 1e-10 * (1.0 + abs(ll))
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + scale * step
            ll_new, P_new = _evaluate(X, y, cand)
            if np.isfinite(ll_new) and ll_new >= floor:
                break
            scale *= 0.5
        else:
            raise NotConverged(iterations + 1)
        theta, ll, P = cand, ll_new, P_new
        iterations += 1
        if trace is not None:
            trace.append(ll)
        separated = bool(np.abs(theta).max() > SEPARATION_BOUND)
    if not (converged or separated):
        raise NotConverged(iterations)
    return MleResult(
        params=_block_from_theta(theta, h, design.d),
        loglik=ll,
        iterations=iterations,
        converged=converged,
        separated=separated,
    )
