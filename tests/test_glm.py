import math

import numpy as np
import pytest
from conftest import reference_fit_leaf
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmcx import ContextTree, Dataset, ParamBlock, glm
from vlmcx.errors import (
    AlphabetMismatch,
    DataError,
    HistoryTooShort,
    LagMismatch,
    MalformedModel,
    NotConverged,
)
from vlmcx.glm import (
    GRAD_TOL,
    MAX_ITER,
    SEPARATION_BOUND,
    LeafDesign,
    build_design,
    design_loglik,
    fit_leaf,
    gradient,
    hessian,
    log_likelihood,
    transition_distribution,
    transition_probability,
)


def loglik_oracle(X, y, params, p):
    """Multinomial log-likelihood computed independently (log-sum-exp)."""
    theta = np.asarray(params, dtype=float).reshape(p - 1, X.shape[1])
    z = np.concatenate([np.zeros((X.shape[0], 1)), X @ theta.T], axis=1)
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float((z[np.arange(len(y)), np.asarray(y)] - log_norm).sum())


def fd_gradient(X, y, params, p, eps=1e-6):
    params = np.asarray(params, dtype=float)
    out = np.empty_like(params)
    for i in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi[i] += eps
        lo[i] -= eps
        out[i] = (loglik_oracle(X, y, hi, p) - loglik_oracle(X, y, lo, p)) / (2 * eps)
    return out


def random_design(rng, m=40, h=2, d=1, p=2):
    X = np.empty((m, 1 + h * d))
    X[:, 0] = 1.0
    X[:, 1:] = rng.normal(size=(m, h * d))
    y = rng.integers(0, p, size=m)
    return LeafDesign(context=(0,) * max(h, 1), X=X, y=y, h=h, d=d, p=p)


class TestTransitionProbability:
    def test_logistic_value(self):
        block = ParamBlock.binary(2.0, [])
        assert transition_probability(block, None, 1) == pytest.approx(
            0.8807970779778823, abs=1e-15
        )
        assert transition_probability(block, None, 0) == pytest.approx(
            1.0 - 0.8807970779778823, abs=1e-15
        )

    def test_covariates_enter_linearly(self):
        block = ParamBlock.binary(0.5, [2.0, -1.0])
        z = 0.5 + 2.0 * 0.3 - 1.0 * 0.7
        want = 1.0 / (1.0 + math.exp(-z))
        got = transition_probability(block, [[0.3], [0.7]], 1)
        assert got == pytest.approx(want, abs=1e-14)

    def test_rows_beyond_h_ignored(self):
        block = ParamBlock.binary(0.5, [2.0])
        a = transition_probability(block, [[0.3]], 1)
        b = transition_probability(block, [[0.3], [99.0], [-99.0]], 1)
        assert a == b

    def test_target_out_of_range(self):
        block = ParamBlock.binary(0.0, [])
        with pytest.raises(DataError):
            transition_probability(block, None, 2)
        with pytest.raises(DataError):
            transition_probability(block, None, -1)

    def test_missing_covariates(self):
        block = ParamBlock.binary(0.0, [1.0])
        with pytest.raises(LagMismatch):
            transition_probability(block, None, 1)

    def test_wrong_width(self):
        block = ParamBlock(alpha=[0.0], beta=[[[1.0, 2.0]]])
        with pytest.raises(LagMismatch):
            transition_probability(block, [[0.5]], 1)

    def test_too_few_rows(self):
        block = ParamBlock.binary(0.0, [1.0, 1.0])
        with pytest.raises(LagMismatch):
            transition_probability(block, [[0.5]], 1)


class TestTransitionDistribution:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_sums_to_one(self, rng, p):
        block = ParamBlock(
            alpha=rng.normal(size=p - 1),
            beta=rng.normal(size=(p - 1, 2, 1)),
        )
        probs = transition_distribution(block, rng.normal(size=(2, 1)))
        assert probs.shape == (p,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_states_by_hand(self):
        block = ParamBlock(alpha=[0.2, -0.4], beta=np.zeros((2, 0, 1)))
        z = np.array([0.0, 0.2, -0.4])
        want = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(transition_distribution(block, None), want, atol=1e-14)

    def test_extreme_intercept_is_stable(self):
        block = ParamBlock.binary(800.0, [])
        probs = transition_distribution(block, None)
        assert np.all(np.isfinite(probs))
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lag_rows_rejected(self, bad):
        block = ParamBlock.binary(0.0, [1.0, 1.0])
        with pytest.raises(LagMismatch, match="^covariate rows must be finite$"):
            transition_distribution(block, [[0.5], [bad]])
        # rows past the block's lags are not read
        assert np.isfinite(transition_distribution(block, [[0.5], [0.5], [bad]])).all()


class TestBuildDesign:
    def single_leaf_tree(self):
        block = ParamBlock.binary(0.0, [1.0])
        return ContextTree(p=2, d=1, nodes={(): None, (0,): block})

    def test_hand_enumeration(self):
        # states 0,0,1 with scalar covariates c1,c2,c3: the context (0,)
        # matches t=2 (response 0, regressor c1) and t=3 (response 1, c2).
        data = Dataset(states=[0, 0, 1], covariates=[0.5, -1.5, 9.0])
        design = build_design(data, self.single_leaf_tree(), (0,))
        assert design.m == 2
        np.testing.assert_allclose(design.X, [[1.0, 0.5], [1.0, -1.5]])
        np.testing.assert_array_equal(design.y, [0, 1])
        assert (design.h, design.d, design.p) == (1, 1, 2)

    def test_h_zero_keeps_intercept_only(self):
        data = Dataset(states=[0, 0, 1], covariates=[0.5, -1.5, 9.0])
        design = build_design(data, self.single_leaf_tree(), (0,), h=0)
        np.testing.assert_allclose(design.X, [[1.0], [1.0]])

    def test_deeper_horizon_drops_early_rows(self):
        data = Dataset(states=[0, 0, 1], covariates=[0.5, -1.5, 9.0])
        design = build_design(data, self.single_leaf_tree(), (0,), horizon=2)
        assert design.m == 1
        np.testing.assert_allclose(design.X, [[1.0, -1.5]])

    def test_never_visited_context_gives_empty_design(self):
        data = Dataset(states=[1, 1, 1, 1], covariates=[1.0, 2.0, 3.0, 4.0])
        design = build_design(data, self.single_leaf_tree(), (0,))
        assert design.m == 0
        assert design.X.shape == (0, 2)

    def test_rows_respect_full_context(self, rng):
        states = rng.integers(0, 2, size=200)
        covs = rng.normal(size=200)
        data = Dataset(states=states, covariates=covs)
        deep = ParamBlock.binary(0.0, [1.0, 1.0])
        shallow = ParamBlock.binary(0.0, [1.0])
        tree = ContextTree(
            p=2,
            d=1,
            nodes={(): None, (0,): None, (1,): shallow, (0, 0): deep, (0, 1): deep},
        )
        design = build_design(data, tree, (0, 1))
        want = [
            t
            for t in range(2, 200)
            if states[t - 1] == 0 and states[t - 2] == 1
        ]
        assert design.m == len(want)
        np.testing.assert_array_equal(design.y, states[want])
        np.testing.assert_allclose(design.X[:, 1], covs[np.asarray(want, dtype=int) - 1])
        np.testing.assert_allclose(design.X[:, 2], covs[np.asarray(want, dtype=int) - 2])

    def test_unknown_context(self):
        data = Dataset(states=[0, 1, 0], covariates=[1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            build_design(data, self.single_leaf_tree(), (1, 1))

    def test_dimension_mismatch(self):
        data = Dataset(states=[0, 1, 0], covariates=np.ones((3, 2)))
        with pytest.raises(AlphabetMismatch):
            build_design(data, self.single_leaf_tree(), (0,))

    def test_state_outside_alphabet(self):
        data = Dataset(states=[0, 2, 0], covariates=[1.0, 2.0, 3.0])
        with pytest.raises(AlphabetMismatch):
            build_design(data, self.single_leaf_tree(), (0,))

    def test_h_beyond_context_length(self):
        data = Dataset(states=[0, 1, 0], covariates=[1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=r"^h=2 outside \[0, 1\]$"):
            build_design(data, self.single_leaf_tree(), (0,), h=2)

    def test_horizon_shorter_than_context(self):
        data = Dataset(states=[0, 1, 0], covariates=[1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=r"^horizon 0 shorter than context 0$"):
            build_design(data, self.single_leaf_tree(), (0,), horizon=0)

    @pytest.mark.parametrize("kw, message", [
        ({"h": 0.5}, "h must be an integer, got 0.5"),
        ({"horizon": 1.5}, "horizon must be an integer, got 1.5"),
    ])
    def test_h_and_horizon_must_be_integers(self, kw, message):
        data = Dataset(states=[0, 1, 0], covariates=[1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=message):
            build_design(data, self.single_leaf_tree(), (0,), **kw)


class TestGradientAndHessian:
    CASES = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2), (4, 1, 3)]

    @pytest.mark.parametrize("p,h,d", CASES)
    def test_gradient_matches_finite_differences(self, p, h, d):
        rng = np.random.default_rng(100 * p + 10 * h + d)
        design = random_design(rng, m=60, h=h, d=d, p=p)
        params = rng.normal(scale=0.5, size=(p - 1) * (1 + h * d))
        got = gradient(design, params)
        want = fd_gradient(design.X, design.y, params, p)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("p,h,d", CASES)
    def test_hessian_matches_gradient_differences(self, p, h, d):
        rng = np.random.default_rng(7000 + 100 * p + 10 * h + d)
        design = random_design(rng, m=60, h=h, d=d, p=p)
        params = rng.normal(scale=0.5, size=(p - 1) * (1 + h * d))
        H = hessian(design, params)
        eps = 1e-6
        for i in range(params.size):
            hi = params.copy()
            lo = params.copy()
            hi[i] += eps
            lo[i] -= eps
            col = (gradient(design, hi) - gradient(design, lo)) / (2 * eps)
            np.testing.assert_allclose(H[:, i], col, rtol=1e-5, atol=1e-6)

    def test_hessian_symmetric_negative_semidefinite(self, rng):
        design = random_design(rng, m=80, h=2, d=2, p=3)
        params = rng.normal(scale=0.5, size=2 * 5)
        H = hessian(design, params)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(H)
        assert eigvals.max() <= 1e-10

    def test_binary_gradient_closed_form(self, rng):
        design = random_design(rng, m=50, h=1, d=1, p=2)
        params = rng.normal(size=2)
        sigma = 1.0 / (1.0 + np.exp(-(design.X @ params)))
        want = design.X.T @ (design.y - sigma)
        np.testing.assert_allclose(gradient(design, params), want, atol=1e-10)


class TestFitLeaf:
    def intercept_only_design(self, ones, zeros):
        m = ones + zeros
        X = np.ones((m, 1))
        y = np.array([1] * ones + [0] * zeros)
        return LeafDesign(context=(0,), X=X, y=y, h=0, d=1, p=2)

    def test_intercept_only_closed_form(self):
        res = fit_leaf(self.intercept_only_design(7, 13))
        assert res.converged
        assert res.params.alpha[0] == pytest.approx(math.log(7 / 13), abs=1e-8)
        want_ll = 7 * math.log(7 / 20) + 13 * math.log(13 / 20)
        assert res.loglik == pytest.approx(want_ll, abs=1e-10)
        assert res.params.h == 0

    def test_loglik_matches_design_loglik(self, rng):
        # the log-likelihood fit_leaf carries through its iterations is
        # exactly that of the params it returns, for every p, constrained h
        # and warm start; a converged fit's score there is within tolerance
        designs = [self.intercept_only_design(7, 13)] + [
            random_design(rng, m=150, h=2, d=2, p=p) for p in (2, 3, 4) for _ in range(4)
        ]
        converged = 0
        for design in designs:
            full = fit_leaf(design)
            for h in range(design.h + 1):
                sub = design.truncated(h)
                for start in (None, full.params):
                    res = fit_leaf(design, h, start=start)
                    assert design_loglik(sub, res.params) == res.loglik
                    if res.converged:
                        converged += 1
                        theta = np.column_stack(
                            [res.params.alpha, res.params.beta.reshape(design.p - 1, -1)]
                        )
                        assert np.max(np.abs(gradient(sub, theta.ravel()))) <= GRAD_TOL
        assert converged > 0

    def test_score_vanishes_at_optimum(self, rng):
        design = random_design(rng, m=120, h=2, d=1, p=3)
        res = fit_leaf(design)
        assert res.converged
        flat = np.concatenate(
            [
                np.concatenate([[res.params.alpha[k]], res.params.beta[k].ravel()])
                if res.params.h == design.h
                else [res.params.alpha[k]]
                for k in range(design.p - 1)
            ]
        )
        if res.params.h < design.h:
            pad = np.zeros((design.p - 1, design.n_cols))
            pad[:, 0] = res.params.alpha
            pad[:, 1 : 1 + res.params.h * design.d] = res.params.beta.reshape(
                design.p - 1, -1
            )
            flat = pad.ravel()
        assert np.max(np.abs(gradient(design, flat))) <= 1e-6

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(42)
        m = 5000
        x = rng.normal(size=(m, 2))
        z = 2.0 + 1.5 * x[:, 0] + 2.0 * x[:, 1]
        y = (rng.random(m) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        X = np.column_stack([np.ones(m), x])
        design = LeafDesign(context=(0,), X=X, y=y, h=1, d=2, p=2)
        res = fit_leaf(design)
        assert res.converged and not res.separated
        theta_hat = np.concatenate([res.params.alpha, res.params.beta.ravel()])
        se = np.sqrt(np.diag(np.linalg.inv(-hessian(design, theta_hat))))
        truth = np.array([2.0, 1.5, 2.0])
        assert np.all(np.abs(theta_hat - truth) <= 3 * se)

    def test_constrained_h_equals_truncated_refit(self, rng):
        design = random_design(rng, m=150, h=3, d=1, p=2)
        a = fit_leaf(design, h=1)
        b = fit_leaf(design.truncated(1))
        assert a.loglik == pytest.approx(b.loglik, abs=1e-9)
        np.testing.assert_allclose(a.params.alpha, b.params.alpha, atol=1e-6)
        assert a.params.h <= 1

    def test_constrained_fit_never_beats_full(self, rng):
        design = random_design(rng, m=150, h=2, d=2, p=3)
        full = fit_leaf(design)
        constrained = fit_leaf(design, h=0)
        assert constrained.loglik <= full.loglik + 1e-9

    def test_warm_start_same_optimum(self, rng):
        design = random_design(rng, m=100, h=2, d=1, p=2)
        cold = fit_leaf(design)
        warm = fit_leaf(design, start=cold.params)
        assert warm.loglik == pytest.approx(cold.loglik, abs=1e-9)
        assert warm.iterations <= cold.iterations

    def test_trace_is_monotone(self, rng):
        design = random_design(rng, m=200, h=2, d=2, p=3)
        trace: list = []
        fit_leaf(design, trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-8 * (1.0 + np.abs(np.asarray(trace)[:-1])))

    def test_separated_data_is_flagged(self):
        x = np.linspace(-2, 2, 40)
        y = (x > 0).astype(int)
        X = np.column_stack([np.ones(40), x])
        design = LeafDesign(context=(0,), X=X, y=y, h=1, d=1, p=2)
        res = fit_leaf(design, max_iter=200)
        assert res.separated

    def test_pure_responses_are_separated_not_crashed(self):
        design = LeafDesign(
            context=(0,),
            X=np.ones((25, 1)),
            y=np.ones(25, dtype=int),
            h=0,
            d=1,
            p=2,
        )
        res = fit_leaf(design, max_iter=500)
        assert res.converged
        assert res.params.alpha[0] > 10.0
        assert res.loglik == pytest.approx(0.0, abs=1e-6)

    def test_empty_design_rejected(self):
        design = LeafDesign(
            context=(0,),
            X=np.empty((0, 2)),
            y=np.empty(0, dtype=int),
            h=1,
            d=1,
            p=2,
        )
        with pytest.raises(DataError):
            fit_leaf(design)

    def test_iteration_budget_enforced(self, rng):
        design = random_design(rng, m=200, h=2, d=1, p=2)
        with pytest.raises(NotConverged):
            fit_leaf(design, max_iter=1, grad_tol=1e-12)


@pytest.fixture(scope="module")
def model2_seed_designs():
    """Leaf designs of model2's maximal tree (n=1000, seed 1000000, horizon 7)."""
    import vlmcx

    data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
    tau = vlmcx.build_maximal_tree(data, horizon=7)
    return lambda u: build_design(data, tau, u, horizon=7)


class TestFitLeafExits:
    """Each way ``fit_leaf`` ends: converged, budget spent, line search stuck."""

    @pytest.mark.parametrize(
        "u, h, warm, max_iter, iterations, accepted",
        [
            # the full fit passes SEPARATION_BOUND; warm-started from it at
            # h=4, no halving of the first Newton step keeps the log-likelihood
            ((0, 0, 0, 1, 1), 4, True, 100, 1, 0),
            ((1, 0), None, False, 0, 0, 0),
            ((1, 0), None, False, 2, 2, 2),
        ],
        ids=["rejected_line_search", "zero_budget", "spent_budget"],
    )
    def test_not_converged_reports_iterations(
        self, model2_seed_designs, u, h, warm, max_iter, iterations, accepted
    ):
        design = model2_seed_designs(u)
        start = fit_leaf(design).params if warm else None
        trace: list = []
        with pytest.raises(NotConverged, match=rf"^no convergence after {iterations} iterations$") as err:
            fit_leaf(design, h, start=start, max_iter=max_iter, trace=trace)
        assert err.value.iterations == iterations
        assert len(trace) == accepted + 1

    def test_zero_budget_from_the_optimum_converges(self, model2_seed_designs):
        design = model2_seed_designs((1, 0))
        mle = fit_leaf(design)
        res = fit_leaf(design, start=mle.params, max_iter=0)
        assert res.iterations == 0
        assert res.converged is True and res.separated is False
        assert res.loglik == mle.loglik
        np.testing.assert_array_equal(res.params.alpha, mle.params.alpha)
        np.testing.assert_array_equal(res.params.beta, mle.params.beta)

    def test_trace_holds_start_and_every_iterate(self, rng):
        design = random_design(rng, m=200, h=2, d=2, p=3)
        trace: list = []
        res = fit_leaf(design, trace=trace)
        assert len(trace) == res.iterations + 1
        assert trace[-1] == res.loglik
        assert type(res.converged) is bool and type(res.separated) is bool


def outcome(fn, design, h=None, **kw):
    """Everything a fit reports, bit for bit: the result with its trace, or
    the ``NotConverged`` iterations and message."""
    trace: list = []
    try:
        res = fn(design, h, trace=trace, **kw)
    except NotConverged as exc:
        return ("not converged", exc.iterations, str(exc))
    return (
        res.loglik.hex(), res.params.alpha.tobytes(), res.params.beta.tobytes(),
        res.params.beta.shape, res.iterations, res.converged, res.separated,
        [ll.hex() for ll in trace],
    )


@st.composite
def newton_cases(draw):
    """A design, a lag count and a start: random or separated responses,
    covariates from tiny to large, cold, warm or far past SEPARATION_BOUND."""
    p, d = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    h = draw(st.integers(0, 2))
    m = draw(st.integers(3, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.ones((m, 1 + h * d))
    X[:, 1:] = rng.normal(size=(m, h * d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    if draw(st.booleans()) and h > 0:
        # responses ordered by the first covariate: completely separated
        y = np.digitize(X[:, 1], np.quantile(X[:, 1], np.arange(1, p) / p))
    else:
        y = rng.integers(0, p, size=m)
    design = LeafDesign(context=(0,) * max(h, 1), X=X, y=y, h=h, d=d, p=p)
    h_fit = draw(st.integers(0, h))
    start = draw(st.sampled_from(["cold", "warm", "beyond"]))
    if start == "cold":
        block = None
    elif start == "warm":
        block = ParamBlock(alpha=rng.normal(size=p - 1), beta=rng.normal(size=(p - 1, h, d)))
    else:
        block = ParamBlock(alpha=np.full(p - 1, 1.5 * SEPARATION_BOUND),
                           beta=rng.normal(size=(p - 1, h, d)))
    max_iter = draw(st.sampled_from([0, 1, 3, MAX_ITER, MAX_ITER, MAX_ITER]))
    return design, h_fit, block, max_iter


class TestLeanNewton:
    """``fit_leaf`` evaluates probabilities only for accepted steps and runs
    its stopping checks on Python floats; every outcome equals the eager
    loop kept in the tests as ``reference_fit_leaf``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=newton_cases())
    def test_equals_the_eager_loop(self, case):
        design, h, start, max_iter = case
        kw = dict(start=start, max_iter=max_iter)
        assert outcome(fit_leaf, design, h, **kw) == outcome(reference_fit_leaf, design, h, **kw)

    @pytest.mark.parametrize("u", [(0, 0, 0, 1, 1), (1, 0), (0, 1)])
    def test_model2_leaves_equal_the_eager_loop(self, model2_seed_designs, u):
        # (0, 0, 0, 1, 1) is the separated full fit whose warm-started
        # constrained fit at h=4 fails after 1 iteration
        design = model2_seed_designs(u)
        full = fit_leaf(design)
        assert outcome(fit_leaf, design) == outcome(reference_fit_leaf, design)
        for h in range(design.h):
            for start in (None, full.params):
                got = outcome(fit_leaf, design, h, start=start)
                assert got == outcome(reference_fit_leaf, design, h, start=start)
        if u == (0, 0, 0, 1, 1):
            assert full.separated
            assert outcome(fit_leaf, design, 4, start=full.params) == (
                "not converged", 1, "no convergence after 1 iterations"
            )

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 3]),
        row=st.integers(0, 29),
        col=st.integers(0, 2),
        max_iter=st.sampled_from([0, MAX_ITER]),
    )
    def test_nan_cell_fails_like_the_eager_loop(self, p, row, col, max_iter):
        design = random_design(np.random.default_rng(p), m=30, h=2, d=1, p=p)
        design.X[row, col] = np.nan
        got = outcome(fit_leaf, design, max_iter=max_iter)
        assert got[0] == "not converged"
        assert got == outcome(reference_fit_leaf, design, max_iter=max_iter)

    values = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=13)

    @settings(max_examples=300, deadline=None)
    @given(g=values, tol=st.one_of(st.just(GRAD_TOL), st.floats(allow_nan=True)))
    def test_tolerance_check_is_the_numpy_one(self, g, tol):
        assert glm._within_tolerance(g, tol) is bool(np.abs(np.array(g)).max() <= tol)

    @settings(max_examples=300, deadline=None)
    @given(theta=values)
    def test_separation_check_is_the_numpy_one(self, theta):
        want = bool(np.abs(np.array(theta)).max() > SEPARATION_BOUND)
        assert glm._past_separation_bound(theta) is want

    @pytest.mark.parametrize("at", range(4))
    def test_nan_anywhere_fails_both_checks(self, at):
        values = [0.0, 40.0, -1e-9, 1e-12]
        values[at] = math.nan
        assert glm._within_tolerance(values, math.inf) is False
        assert glm._past_separation_bound(values) is False


class TestNewtonSolve:
    """The Newton step's linear solve and its singular fallback."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_column_takes_the_ridge(self, p, monkeypatch):
        # an all-zero covariate column makes the information exactly singular,
        # so every Newton step is solved again with RIDGE on the diagonal
        rng = np.random.default_rng(p)
        m = 80
        X = np.column_stack([np.ones(m), rng.normal(size=m), np.zeros(m)])
        y = rng.integers(0, p, size=m)
        design = LeafDesign(context=(0, 0), X=X, y=y, h=2, d=1, p=p)
        without = fit_leaf(design.truncated(1))
        solves = []
        solve1 = glm._solve1

        def counting_solve1(A, g, **kw):
            solves.append(A.shape)
            return solve1(A, g, **kw)

        monkeypatch.setattr(glm, "_solve1", counting_solve1)
        res = fit_leaf(design)
        assert res.converged and res.iterations > 0
        assert len(solves) == 2 * res.iterations
        assert res.loglik == pytest.approx(without.loglik, rel=0, abs=1e-12)
        np.testing.assert_allclose(res.params.alpha, without.params.alpha, rtol=0, atol=1e-12)

    def test_solve_matches_numpy_bit_for_bit(self):
        # the step is solved by the LAPACK gufunc behind np.linalg.solve,
        # called without that wrapper; a numpy that moves or changes the
        # gufunc fails here rather than changing fits silently
        rng = np.random.default_rng(2024)
        for n in range(1, 23):
            M = rng.normal(size=(n, n))
            A = M @ M.T + n * np.eye(n)
            g = rng.normal(size=n)
            assert glm._Kernel.solve(A, g).tobytes() == np.linalg.solve(A, g).tobytes()


class TestSequenceLogLikelihood:
    def test_decomposes_over_leaves(self, model2_data):
        import vlmcx

        report = vlmcx.fit(model2_data, vlmcx.FitConfig())
        tree = report.tree
        total = log_likelihood(tree, model2_data)
        parts = 0.0
        for u in tree.leaves():
            design = build_design(model2_data, tree, u)
            parts += design_loglik(design, tree.block(u))
        assert total == pytest.approx(parts, abs=1e-10)
        assert total == pytest.approx(report.loglik, abs=1e-10)

    def test_conditions_on_horizon(self):
        # horizon 2 must skip the first two transitions even for a depth-1 tree
        block = ParamBlock.binary(0.3, [])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): block, (1,): block})
        data = Dataset(states=[0, 1, 0, 1], covariates=np.zeros(4))
        p1 = 1.0 / (1.0 + math.exp(-0.3))
        full = log_likelihood(tree, data)
        assert full == pytest.approx(
            2 * math.log(p1) + math.log(1 - p1), abs=1e-12
        )
        partial = log_likelihood(tree, data, horizon=2)
        assert partial == pytest.approx(math.log(p1) + math.log(1 - p1), abs=1e-12)

    def test_row_products_match_transition_probabilities(self, rng):
        states = rng.integers(0, 2, size=60)
        covs = rng.normal(size=60)
        data = Dataset(states=states, covariates=covs)
        b0 = ParamBlock.binary(0.2, [1.0])
        b1 = ParamBlock.binary(-0.5, [])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): b0, (1,): b1})
        want = 0.0
        for t in range(1, 60):
            block = b0 if states[t - 1] == 0 else b1
            want += math.log(
                transition_probability(block, [[covs[t - 1]]], int(states[t]))
            )
        assert log_likelihood(tree, data) == pytest.approx(want, abs=1e-10)

    def test_dimension_mismatch(self):
        block = ParamBlock.binary(0.0, [])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): block, (1,): block})
        data = Dataset(states=[0, 1, 0], covariates=np.ones((3, 2)))
        with pytest.raises(AlphabetMismatch):
            log_likelihood(tree, data)

    @pytest.mark.parametrize("horizon, message", [
        (-2, "horizon must be >= 0, got -2"),
        (2.5, "horizon must be an integer, got 2.5"),
    ])
    def test_horizon_must_be_a_non_negative_integer(self, horizon, message):
        # a negative horizon would index the sequence from its end
        tree = ContextTree(p=2, d=1, nodes={(): ParamBlock.binary(0.3, [])})
        data = Dataset(states=[0, 1, 1, 0], covariates=np.zeros(4))
        with pytest.raises(DataError, match=message):
            log_likelihood(tree, data, horizon=horizon)

    def depth_one_tree(self, *blocks):
        """Leaf w carries ``blocks[w]``; leaves past the last block are absent."""
        return ContextTree(p=2, d=1, nodes={(): None, **{(w,): b for w, b in enumerate(blocks)}})

    def test_history_too_short_at_horizon_zero(self):
        block = ParamBlock.binary(0.1, [])
        tree = self.depth_one_tree(block, block)
        data = Dataset(states=[0, 1, 0], covariates=np.zeros(3))
        message = "^history of length 0 cannot resolve below <root>$"
        with pytest.raises(HistoryTooShort, match=message):
            log_likelihood(tree, data, horizon=0)

    def test_missing_branch_raises_only_when_reached(self):
        tree = self.depth_one_tree(ParamBlock.binary(0.1, []))
        reached = Dataset(states=[0, 0, 1, 0], covariates=np.zeros(4))
        with pytest.raises(MalformedModel, match="^history does not resolve: no branch 1$"):
            log_likelihood(tree, reached)
        unreached = Dataset(states=[0, 0, 0, 1], covariates=np.zeros(4))
        assert np.isfinite(log_likelihood(tree, unreached))

    def test_parameterless_leaf_raises_only_when_reached(self):
        tree = self.depth_one_tree(ParamBlock.binary(0.1, []), None)
        reached = Dataset(states=[0, 0, 1, 0], covariates=np.zeros(4))
        with pytest.raises(MalformedModel, match="^no parameters at 1$"):
            log_likelihood(tree, reached)
        unreached = Dataset(states=[0, 0, 0, 1], covariates=np.zeros(4))
        assert np.isfinite(log_likelihood(tree, unreached))

    @pytest.mark.parametrize("states, message", [
        ([0, 1, 0, 0, 0], "^no parameters at 1$"),
        ([1, 0, 1, 0, 0], "^history does not resolve: no branch 0,1$"),
    ])
    def test_earliest_failing_time_point_raises(self, states, message):
        # leaf 1 has no parameters and branch 0,1 is missing; each dataset
        # reaches both, and the one reached first raises
        block = ParamBlock.binary(0.1, [])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): None, (1,): None, (0, 0): block})
        data = Dataset(states=states, covariates=np.zeros(len(states)))
        with pytest.raises(MalformedModel, match=message):
            log_likelihood(tree, data)
