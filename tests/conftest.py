"""Shared fixtures.

The Monte-Carlo studies are the expensive part of the suite, so every summary
is computed once per session and shared between the recovery tests and the
acceptance checks.  All of them are deterministic: run i uses BASE_SEED + i.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import vlmcx
from vlmcx import ContextTree, Dataset, FitConfig, ParamBlock, TuningGrid, glm, select_tuning
from vlmcx.errors import NotConverged, VlmcxError

BASE_SEED = 20250814

# Tuned-selection protocol used by the recovery studies: default (s, gamma)
# grids, selection BIC charging for intercepts as well as lag coefficients
# (without that, a split that adds only an intercept is free and grid
# selection drifts toward spurious splits).
ACCEPT_BASE = FitConfig(ic_include_intercepts=True)


def accept_grid() -> TuningGrid:
    return TuningGrid(base=ACCEPT_BASE)


def tri_model():
    """The benchmark's 3-state, 2-covariate generating tree."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tri_model()


def context_rows(data, u, start, stop=None):
    """Oracle: time points ``t`` in ``[start, stop)`` with ``states[t-1-j] ==
    u[j]`` for all j, found by one scan of the sequence per context symbol."""
    stop = max(start, data.n if stop is None else stop)
    mask = np.ones(stop - start, dtype=bool)
    for j, sym in enumerate(u):
        mask &= data.states[start - 1 - j : stop - 1 - j] == sym
    return start + np.flatnonzero(mask)


def lagged_design(data, rows, h):
    """Oracle: the design ``[1, x[t-1], ..., x[t-h]]`` at ``rows``, filled
    one lag at a time."""
    X = np.empty((rows.size, 1 + h * data.d))
    X[:, 0] = 1.0
    for lag in range(1, h + 1):
        X[:, 1 + (lag - 1) * data.d : 1 + lag * data.d] = data.covariates[rows - lag]
    return X


def reference_link(X, y, p, theta):
    """Oracle: the log-likelihood at flat ``theta`` and the (m, p - 1) fitted
    probabilities of states 1..p-1, one row per time point (row-major).  A
    multinomial row is a log-softmax over its p states."""
    m, k = X.shape[0], p - 1
    if k == 1:
        z = X @ theta
        mu = np.exp(-np.logaddexp(0.0, -z))
        return float((y == 1).astype(float) @ z - np.logaddexp(0.0, z).sum()), mu[:, None]
    L = np.concatenate([np.zeros((m, 1)), X @ theta.reshape(k, -1).T], axis=1)
    mx = L.max(axis=1, keepdims=True)
    LP = L - (mx + np.log(np.exp(L - mx).sum(axis=1, keepdims=True)))
    return float(LP.take(np.arange(m) * p + y).sum()), np.exp(LP[:, 1:])


def reference_score(X, y, P):
    """Oracle: the score from row-major probabilities, one gemv per target."""
    return np.concatenate(
        [X.T @ ((y == j + 1).astype(float) - P[:, j]) for j in range(P.shape[1])]
    )


def reference_information(X, P):
    """Oracle: the information from row-major probabilities, one gemm per
    upper block (j, l), mirrored below the diagonal."""
    k, q = P.shape[1], X.shape[1]
    A = np.empty((k * q, k * q))
    for j in range(k):
        for l in range(j, k):
            w = P[:, j] * ((1.0 if j == l else 0.0) - P[:, l])
            block = (X * w[:, np.newaxis]).T @ X
            A[j * q : (j + 1) * q, l * q : (l + 1) * q] = block
            if l != j:
                A[l * q : (l + 1) * q, j * q : (j + 1) * q] = block.T
    return A


def reference_fit_leaf(design, h=None, *, start=None, grad_tol=glm.GRAD_TOL,
                       max_iter=glm.MAX_ITER, trace=None):
    """Oracle: ``glm.fit_leaf`` as an eager Newton loop on the row-major
    ``reference_link``, ``reference_score`` and ``reference_information``.
    Every evaluation, rejected trial steps included, computes the fitted
    probabilities with the link; each step is ``theta + scale * step``; the
    stopping checks are numpy reductions.  It shares only the linear solve
    and the coefficient layout with the package."""
    h = design.h if h is None else h
    X, y, k = design.X[:, : 1 + h * design.d], design.y, design.p - 1
    if start is None:
        theta = np.zeros(k * X.shape[1])
    else:
        theta = glm._theta_from_block(start, h, design.d).ravel()
    iterations, separated = 0, False
    with np.errstate(all="ignore"):
        ll, P = reference_link(X, y, design.p, theta)
        if trace is not None:
            trace.append(ll)
        while True:
            g = reference_score(X, y, P)
            converged = bool(np.abs(g).max() <= grad_tol)
            if converged or separated or iterations >= max_iter:
                break
            step = glm._Kernel.solve(reference_information(X, P), g)
            floor = ll - 1e-10 * (1.0 + abs(ll))
            scale = 1.0
            for _ in range(glm.MAX_HALVINGS + 1):
                cand = theta + scale * step
                ll_new, P_new = reference_link(X, y, design.p, cand)
                if math.isfinite(ll_new) and ll_new >= floor:
                    break
                scale *= 0.5
            else:
                raise NotConverged(iterations + 1)
            theta, ll, P = cand, ll_new, P_new
            iterations += 1
            if trace is not None:
                trace.append(ll)
            separated = bool(np.abs(theta).max() > glm.SEPARATION_BOUND)
    if not (converged or separated):
        raise NotConverged(iterations)
    return glm.MleResult(
        params=glm._block_from_theta(theta.reshape(k, -1), h, design.d),
        loglik=ll,
        iterations=iterations,
        converged=converged,
        separated=separated,
    )


def reference_log_likelihood(tree, data, horizon):
    """Oracle: ``glm.log_likelihood`` with a row-major (t, p) log-softmax per
    leaf.  Each time point's leaf comes from ``tree.lookup``; the leaf totals
    are added in the order of the package's walk, which pops the children of
    a node from the highest state down, so descending contexts."""
    by_leaf = {}
    for t in range(horizon, data.n):
        by_leaf.setdefault(tree.lookup(data.states[:t][::-1]), []).append(t)
    total = 0.0
    for u in sorted(by_leaf, reverse=True):
        t, block = np.array(by_leaf[u]), tree.block(u)
        eta = np.tile(block.alpha, (t.size, 1))
        for lag in range(1, block.h + 1):
            eta += data.covariates[t - lag] @ block.beta[:, lag - 1, :].T
        z = np.concatenate([np.zeros((t.size, 1)), eta], axis=1)
        mx = z.max(axis=1)
        norm = mx + np.log(np.exp(z - mx[:, np.newaxis]).sum(axis=1))
        total += float((z[np.arange(t.size), data.states[t]] - norm).sum())
    return total


def random_unbalanced_tree(rng, p, d, max_depth=4):
    """Complete tree whose branches stop at random depths, with random
    coefficients and a random lag count (at most the depth) on each leaf."""
    nodes = {}
    level = [()]
    while level:
        u = level.pop()
        if len(u) < max_depth and (u == () or rng.random() < 0.5):
            nodes[u] = None
            level.extend(u + (w,) for w in range(p))
            continue
        h = int(rng.integers(0, len(u) + 1)) if d else 0
        nodes[u] = ParamBlock(alpha=rng.normal(size=p - 1), beta=rng.normal(size=(p - 1, h, d)))
    return ContextTree(p=p, d=d, nodes=nodes)


@pytest.fixture(scope="session")
def mc_model2_n1000():
    """Model 2 recovery at n = 1000, 200 tuned runs."""
    spec = vlmcx.builtin_model("model2")
    return vlmcx.monte_carlo(spec, 1000, 200, accept_grid(), base_seed=BASE_SEED)


@pytest.fixture(scope="session")
def mc_model2_n2000():
    """Model 2 recovery at n = 2000, 100 tuned runs."""
    spec = vlmcx.builtin_model("model2")
    return vlmcx.monte_carlo(spec, 2000, 100, accept_grid(), base_seed=BASE_SEED)


@pytest.fixture(scope="session")
def mc_model3_n2000():
    """Model 3 (no covariate effect) at n = 2000, 100 tuned runs."""
    spec = vlmcx.builtin_model("model3")
    return vlmcx.monte_carlo(spec, 2000, 100, accept_grid(), base_seed=BASE_SEED)


@pytest.fixture(scope="session")
def model3_n2000_no_covariates():
    """Model 3 at n = 2000 fitted as a VLMC without covariates, 100 runs.

    Run i takes the data of run i of ``mc_model3_n2000`` with the covariate
    columns removed and tunes over the same grids and base.  Model 3's
    covariates carry no signal, so this is the covariate-free baseline its
    covariate fit is compared with.  Returns one ``(missing, extra)`` pair per
    run against model 3's node set, or None where the fit failed.
    """
    spec = vlmcx.builtin_model("model3")
    grid = accept_grid()
    truth = set(spec.tree.nodes)
    per_run = []
    for i in range(100):
        data = vlmcx.generate(spec, 2000, BASE_SEED + i)
        free = Dataset(states=data.states, covariates=np.zeros((data.n, 0)))
        try:
            result = select_tuning(
                free, grid.s_grid, grid.gamma_grid, config=grid.base, p=spec.p
            )
        except VlmcxError:
            per_run.append(None)
            continue
        nodes = set(result.report.tree.nodes)
        per_run.append((len(truth - nodes), len(nodes - truth)))
    return per_run


@pytest.fixture(scope="session")
def mc_model1_n1000():
    """Model 1 recovery at n = 1000, 100 tuned runs."""
    spec = vlmcx.builtin_model("model1")
    return vlmcx.monte_carlo(spec, 1000, 100, accept_grid(), base_seed=BASE_SEED)


@pytest.fixture(scope="session")
def mc_model1_n2000():
    """Model 1 recovery at n = 2000, 200 tuned runs.

    The first 100 per-run records coincide with a standalone 100-run study at
    the same base seed (per-run seeds are BASE_SEED + i), so the consistency
    trend reads a slice of this summary instead of refitting.
    """
    spec = vlmcx.builtin_model("model1")
    return vlmcx.monte_carlo(spec, 2000, 200, accept_grid(), base_seed=BASE_SEED)


@pytest.fixture(scope="session")
def model2_data():
    """One Model 2 dataset reused by cheap structural checks."""
    return vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=BASE_SEED)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
