import dataclasses
import gc
import json
import math

import numpy as np
import pytest

import vlmcx
from vlmcx import ContextTree, Dataset, FitConfig, ParamBlock, algorithm
from vlmcx.algorithm import (
    AuditRecord,
    FitReport,
    TuningResult,
    build_maximal_tree,
    fit,
    merge_siblings_test,
    replay_audit,
    select_tuning,
    sequential_beta_prune,
)
from vlmcx.algorithm import test_pastmost_beta as pastmost_beta_test
from vlmcx.core import HistoryIndex
from vlmcx.errors import (
    AllFitsFailed,
    ChildrenNotLeaves,
    DataError,
    DataTooShort,
    DomainError,
    MalformedModel,
    NotConverged,
    NumericalError,
)
from vlmcx.glm import LeafDesign, build_design, fit_leaf, log_likelihood
from vlmcx.stats import lrt

from conftest import context_rows, lagged_design, tri_model


def grow_oracle(data, p, s, cap):
    """Brute-force reimplementation of the sibling count growth rule."""
    n, d = data.n, data.d
    states = list(int(v) for v in data.states)

    def count(u):
        ell = len(u)
        total = 0
        for t in range(ell - 1, n):
            if all(states[t - j] == u[j] for j in range(ell)):
                total += 1
        return total

    cap = min(cap, int(math.floor(math.log2(n))))
    nodes = {()}
    level = [()]
    for depth in range(1, cap + 1):
        threshold = s * (1 + d * depth)
        nxt = []
        for u in level:
            kids = [u + (w,) for w in range(p)]
            if all(count(k) >= threshold for k in kids):
                nodes.update(kids)
                nxt.extend(kids)
        if not nxt:
            break
        level = nxt
    return nodes


def covariate_chain(n, seed, z_fn):
    """Binary chain driven by one scalar covariate stream."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = np.zeros(n, dtype=int)
    for t in range(2, n):
        z = z_fn(t, x, y)
        y[t] = rng.random() < 1.0 / (1.0 + np.exp(-z))
    return Dataset(states=y, covariates=x)


class TestFitConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"s": 0},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"gamma": -0.5},
            {"max_order_cap": 0},
            {"s": 2.5},
            {"s": True},
            {"max_order_cap": 2.5},
            {"gamma": "0.1"},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(DataError):
            FitConfig(**kw)

    def test_numpy_integers_accepted(self):
        cfg = FitConfig(s=np.int64(5), max_order_cap=np.int32(4))
        assert (type(cfg.s), type(cfg.max_order_cap)) == (int, int)
        assert json.loads(json.dumps(cfg.to_dict()))["s"] == 5

    def test_replace_keeps_other_fields(self):
        cfg = FitConfig(s=5, gamma=1e-4, bonferroni=True)
        new = cfg.replace(gamma=1e-2)
        assert (new.s, new.gamma, new.bonferroni) == (5, 1e-2, True)
        assert cfg.gamma == 1e-4

    def test_to_dict_fields(self):
        d = FitConfig().to_dict()
        assert set(d) == {"s", "gamma", "max_order_cap", "bonferroni", "ic_include_intercepts"}


class TestMaximalTree:
    def test_structure_matches_brute_force(self):
        rng = np.random.default_rng(11)
        data = Dataset(states=rng.integers(0, 2, size=400), covariates=rng.normal(size=400))
        tree = build_maximal_tree(data, FitConfig(s=3))
        assert set(tree.nodes) == grow_oracle(data, 2, 3, FitConfig().max_order_cap)

    def test_three_state_structure(self):
        rng = np.random.default_rng(12)
        data = Dataset(states=rng.integers(0, 3, size=600), covariates=rng.normal(size=600))
        tree = build_maximal_tree(data, FitConfig(s=2))
        assert tree.p == 3
        assert set(tree.nodes) == grow_oracle(data, 3, 2, FitConfig().max_order_cap)

    def test_larger_s_never_deepens(self, model2_data):
        small = build_maximal_tree(model2_data, FitConfig(s=2))
        large = build_maximal_tree(model2_data, FitConfig(s=10))
        assert set(large.nodes) <= set(small.nodes)

    def test_leaves_carry_fits(self, model2_data):
        tree = build_maximal_tree(model2_data, FitConfig(s=5))
        for u in tree.leaves():
            block = tree.block(u)
            assert block is not None
            assert 0 <= block.h <= len(u)

    def test_depth_cap_respected(self, model2_data):
        tree = build_maximal_tree(model2_data, FitConfig(max_order_cap=1))
        assert tree.order == 1

    @pytest.mark.parametrize("p, message", [(2.5, "p must be an integer, got 2.5"),
                                            (1, "p must be >= 2, got 1")])
    def test_p_must_be_an_integer_of_at_least_two(self, model2_data, p, message):
        with pytest.raises(DataError, match=message):
            build_maximal_tree(model2_data, p=p)

    def test_deterministic(self, model2_data):
        a = build_maximal_tree(model2_data, FitConfig(s=5))
        b = build_maximal_tree(model2_data, FitConfig(s=5))
        assert a.serialize() == b.serialize()

    def test_too_short_sequence(self):
        data = Dataset(states=np.zeros(30, dtype=int), covariates=np.zeros(30))
        with pytest.raises(DataTooShort):
            build_maximal_tree(data)

    def test_unused_state_is_named(self):
        rng = np.random.default_rng(5)
        states = 2 * rng.integers(0, 2, size=500)
        data = Dataset(states=states, covariates=rng.normal(size=500))
        with pytest.raises(DataTooShort, match="state 1 never occurs in the data"):
            build_maximal_tree(data)

    @pytest.mark.parametrize("entry", [build_maximal_tree, fit, select_tuning])
    def test_stray_label_fails_before_growth(self, monkeypatch, entry):
        # p = max label + 1, so a stray label makes p huge; the alphabet check
        # must fail before any level's sibling counts loop over range(p)
        rng = np.random.default_rng(5)
        states = rng.integers(0, 2, size=2000)
        covariates = rng.normal(size=2000)
        calls = []
        child_counts = HistoryIndex.child_counts

        def spy(index, parents, p):
            calls.append(p)
            return child_counts(index, parents, p)

        monkeypatch.setattr(HistoryIndex, "child_counts", spy)
        build_maximal_tree(Dataset(states=states, covariates=covariates))
        assert calls  # the spy sees growth on clean data
        calls.clear()
        states[1000] = 10**6
        message = r"state 2 never occurs in the data \(the largest label is 1000000\)"
        with pytest.raises((DataTooShort, AllFitsFailed), match=message):
            entry(Dataset(states=states, covariates=covariates))
        assert calls == []


class TestFit:
    def test_deterministic_end_to_end(self, model2_data):
        a = fit(model2_data)
        b = fit(model2_data)
        assert a.tree.serialize() == b.tree.serialize()
        assert a.audit == b.audit
        assert (a.loglik, a.aic, a.bic) == (b.loglik, b.aic, b.bic)

    def test_information_criteria_identities(self, model2_data):
        rep = fit(model2_data)
        k = rep.n_beta
        assert rep.aic == -2.0 * rep.loglik + 2.0 * k
        assert rep.bic == -2.0 * rep.loglik + k * math.log(rep.n_eff)
        assert rep.n_eff == model2_data.n - rep.horizon

    def test_intercepts_flag_changes_only_the_count(self, model2_data):
        rep = fit(model2_data, FitConfig(ic_include_intercepts=True))
        k = rep.n_beta + rep.n_alpha * (rep.tree.p - 1)
        assert rep.aic == -2.0 * rep.loglik + 2.0 * k
        assert rep.bic == -2.0 * rep.loglik + k * math.log(rep.n_eff)

    def test_parameter_counts_match_tree(self, model2_data):
        rep = fit(model2_data)
        leaves = rep.tree.leaves()
        assert rep.n_alpha == len(leaves)
        want_beta = sum(
            (rep.tree.p - 1) * rep.tree.block(u).h * rep.tree.d for u in leaves
        )
        assert rep.n_beta == want_beta

    def test_loglik_matches_sequence_likelihood(self, model2_data):
        rep = fit(model2_data)
        assert rep.loglik == pytest.approx(
            log_likelihood(rep.tree, model2_data, horizon=rep.horizon), abs=1e-9
        )

    def test_horizon_override(self, model2_data):
        rep = fit(model2_data, horizon=8)
        assert rep.horizon == 8
        assert rep.n_eff == model2_data.n - 8

    def test_horizon_must_be_an_integer(self, model2_data):
        with pytest.raises(DataError, match="horizon must be an integer, got 7.5"):
            fit(model2_data, horizon=7.5)
        assert type(fit(model2_data, horizon=np.int64(8)).horizon) is int

    def test_p_must_be_an_integer(self, model2_data):
        with pytest.raises(DataError, match="p must be an integer, got 2.5"):
            fit(model2_data, p=2.5)

    def test_leaf_stats_cover_leaves(self, model2_data):
        rep = fit(model2_data)
        assert sorted(ls.context for ls in rep.leaf_stats) == rep.tree.leaves()

    def test_leaf_iterations_match_the_leaf_fit(self, model2_data):
        rep = fit(model2_data, FitConfig(gamma=1.0 - 1e-9))
        tau_max = build_maximal_tree(model2_data, horizon=rep.horizon)
        assert all("iterations" in leaf for leaf in rep.to_dict()["leaves"])
        untouched = [ls for ls in rep.leaf_stats if ls.h == len(ls.context)]
        assert untouched
        for ls in untouched:
            design = build_design(model2_data, tau_max, ls.context, horizon=rep.horizon)
            assert ls.iterations == fit_leaf(design).iterations > 0

    def test_failed_leaf_fits_report_zero_iterations(self, model2_data, monkeypatch):
        def never_converges(*args, **kwargs):
            raise NotConverged(0)

        monkeypatch.setattr("vlmcx.algorithm.fit_leaf", never_converges)
        rep = fit(model2_data)
        assert rep.leaf_stats
        assert all(ls.iterations == 0 for ls in rep.leaf_stats)

    def test_fitted_tree_nested_in_maximal(self, model2_data):
        rep = fit(model2_data)
        tau_max = build_maximal_tree(model2_data)
        assert set(rep.tree.nodes) <= set(tau_max.nodes)

    def test_report_json_round_trip(self, model2_data):
        rep = fit(model2_data)
        doc = json.loads(rep.to_json())
        assert set(doc) == {"model", "criteria", "config", "leaves", "audit", "notes"}
        assert doc["criteria"]["bic"] == rep.bic
        assert len(doc["leaves"]) == len(rep.tree.leaves())
        assert doc["model"] == json.loads(rep.tree.serialize())

    def test_report_bytes_equal_the_json_round_trip(self, model2_data):
        # the report embeds the tree's dict and writes each leaf's fields
        # directly; its text is that of the round trip through the model's
        # JSON and dataclasses.asdict
        rep = fit(model2_data)
        round_trip = {
            **rep.to_dict(),
            "model": json.loads(rep.tree.serialize()),
            "leaves": [
                {**dataclasses.asdict(ls), "context": list(ls.context)} for ls in rep.leaf_stats
            ],
        }
        for indent in (2, None):
            assert rep.to_json(indent) == json.dumps(round_trip, indent=indent)

    def test_audit_nan_serializes_as_null(self):
        rec = AuditRecord(
            test="sibling_merge",
            contexts=((0, 0), (0, 1)),
            lag=None,
            statistic=float("nan"),
            df=2,
            p_value=float("nan"),
            action="merge",
        )
        doc = rec.to_dict()
        assert doc["statistic"] is None and doc["p_value"] is None
        json.dumps(doc)

    def test_no_covariates_keeps_state_structure(self):
        rng = np.random.default_rng(3)
        n = 2000
        s = np.zeros(n, dtype=int)
        for t in range(1, n):
            p1 = 0.9 if s[t - 1] == 0 else 0.1
            s[t] = rng.random() < p1
        rep = fit(Dataset(states=s, covariates=np.zeros((n, 0))))
        assert rep.tree.order >= 1
        assert rep.n_beta == 0
        assert all(rep.tree.block(u).h == 0 for u in rep.tree.leaves())

    def test_no_covariates_iid_collapses_to_root(self):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2, size=400)
        rep = fit(Dataset(states=states, covariates=np.zeros((400, 0))))
        assert rep.tree.order == 0
        assert rep.n_beta == 0


class TestPastmostBetaTest:
    def fixture_tree(self):
        b = ParamBlock.binary(0.3, [1.2])
        b2 = ParamBlock.binary(0.3, [1.2, 0.05])
        return ContextTree(
            p=2, d=1,
            nodes={(): None, (0,): None, (1,): b, (0, 0): b2, (0, 1): b2},
        )

    def test_irrelevant_lag_is_dropped(self):
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        test, out = pastmost_beta_test(self.fixture_tree(), (0, 0), data, FitConfig(gamma=0.01))
        assert test.df == 1
        assert test.p_value > 0.01
        assert out.block((0, 0)).h == 1
        assert out.same_structure(self.fixture_tree())

    def test_real_lag_is_kept(self):
        data = covariate_chain(4000, 7, lambda t, x, y: 0.3 + 1.2 * x[t - 1] - 2.0 * x[t - 2])
        test, out = pastmost_beta_test(self.fixture_tree(), (0, 0), data, FitConfig(gamma=0.01))
        assert test.p_value < 1e-6
        assert out.block((0, 0)).h == 2

    def test_non_leaf_rejected(self):
        data = covariate_chain(500, 5, lambda t, x, y: 0.3)
        with pytest.raises(ChildrenNotLeaves):
            pastmost_beta_test(self.fixture_tree(), (0,), data)

    def test_no_lags_to_test(self):
        b0 = ParamBlock.binary(0.3, [])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): b0, (1,): b0})
        data = covariate_chain(500, 5, lambda t, x, y: 0.3)
        with pytest.raises(ValueError):
            pastmost_beta_test(tree, (0,), data)

    def test_leaf_without_transitions_rejected(self):
        n = 500
        states = np.arange(n) % 2  # 0, 1, 0, 1, ...: history 0,0 never occurs
        data = Dataset(states=states, covariates=np.random.default_rng(5).normal(size=n))
        with pytest.raises(DataError):
            pastmost_beta_test(self.fixture_tree(), (0, 0), data)

    def test_failed_refit_raises(self, monkeypatch):
        def failing_fit_leaf(design, h=None, *, start=None, **kwargs):
            if start is not None:
                raise NotConverged(0)
            return fit_leaf(design, h, start=start, **kwargs)

        monkeypatch.setattr("vlmcx.algorithm.fit_leaf", failing_fit_leaf)
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        with pytest.raises(NumericalError):
            pastmost_beta_test(self.fixture_tree(), (0, 0), data)

    def test_failed_constrained_fit_drops_the_lag_untested(self, monkeypatch):
        # the estimator's handling: the lag drops with a NaN test, even a real one
        def failing_fit_leaf(design, h=None, *, start=None, **kwargs):
            if start is not None and h is not None and h < start.h:
                raise NotConverged(0)
            return fit_leaf(design, h, start=start, **kwargs)

        monkeypatch.setattr("vlmcx.algorithm.fit_leaf", failing_fit_leaf)
        data = covariate_chain(4000, 7, lambda t, x, y: 0.3 + 1.2 * x[t - 1] - 2.0 * x[t - 2])
        test, out = pastmost_beta_test(self.fixture_tree(), (0, 0), data, FitConfig(gamma=0.01))
        assert math.isnan(test.statistic) and math.isnan(test.p_value)
        assert out.block((0, 0)).h == 1

    def test_not_collected_by_pytest(self):
        assert pastmost_beta_test.__test__ is False

    def test_agrees_with_the_fit_deepest_lag_test(self):
        # the helper refits each leaf from its block; for a converged leaf
        # that refit stops at once, so it must reproduce fit()'s first test
        # exactly.  Separated leaves are left out: fit()'s free fit stops at
        # SEPARATION_BOUND before its log-likelihood converges, and the
        # refit goes on from there (statistic 12.517 against 12.512 here).
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        rep = fit(data)
        tau_max = build_maximal_tree(data, horizon=rep.horizon)
        first = {}
        for rec in rep.audit:
            if rec.test == "deepest_lag":
                first.setdefault(rec.contexts[0], rec)
        checked = 0
        for u in tau_max.leaves():
            if len(u) != rep.horizon:
                continue
            free = fit_leaf(build_design(data, tau_max, u, horizon=rep.horizon))
            if not free.converged or free.separated:
                continue
            test, _ = pastmost_beta_test(tau_max, u, data, horizon=rep.horizon)
            assert (test.statistic, test.p_value) == (
                first[u].statistic, first[u].p_value
            )
            checked += 1
        assert checked >= 2

    def test_deep_wide_user_tree(self):
        # depth 20 over 10 states: 10**20 histories, past any int64 code
        depth, p, n = 20, 10, 3000
        rng = np.random.default_rng(11)
        states = np.where(rng.random(n) < 0.9, 0, rng.integers(0, p, size=n))
        data = Dataset(states=states, covariates=rng.normal(size=n))
        spine = (0,) * depth
        lag_free = ParamBlock(alpha=np.zeros(p - 1), beta=np.zeros((p - 1, 0, 1)))
        nodes = {spine[:k]: None for k in range(depth)}
        for k in range(depth):
            for w in range(1, p):
                nodes[spine[:k] + (w,)] = lag_free
        nodes[spine] = ParamBlock(alpha=np.zeros(p - 1), beta=np.full((p - 1, 1, 1), 0.1))
        tree = ContextTree(p=p, d=1, nodes=nodes)
        test, out = pastmost_beta_test(tree, spine, data)
        assert test.df == p - 1
        assert out.block(spine).h in (0, 1)
        leaves = [spine, spine[:-1] + (3,), spine[:5] + (7,), (2,)]
        engine = algorithm._seeded_engine(tree, leaves, data, None, None)
        for u in leaves:
            rows = context_rows(data, u, depth)
            assert rows.size > 0
            np.testing.assert_array_equal(engine.leaves[u].rows, rows)
            design = build_design(data, tree, u, h=len(u))
            np.testing.assert_array_equal(design.X, lagged_design(data, rows, len(u)))
            np.testing.assert_array_equal(design.y, states[rows])


class TestMergeSiblingsTest:
    def fixture_tree(self):
        b = ParamBlock.binary(0.3, [1.2])
        return ContextTree(
            p=2, d=1,
            nodes={(): None, (0,): None, (1,): b, (0, 0): b, (0, 1): b},
        )

    def test_identical_laws_merge(self):
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        test, out = merge_siblings_test(self.fixture_tree(), (0,), data, FitConfig(gamma=1e-3))
        assert test.df == 2
        assert test.p_value >= 1e-3
        assert sorted(out.nodes) == [(), (0,), (1,)]
        assert out.is_leaf((0,))
        assert out.block((0,)).h <= 1

    def test_merged_parent_stacks_child_rows_in_child_order(self):
        # the parent is fitted on its children's rows in child order, not in
        # time order; its coefficients and the statistic differ between the
        # two orders in the last bits
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        tree = self.fixture_tree()
        test, out = merge_siblings_test(tree, (0,), data, FitConfig(gamma=1e-6))
        assert out.is_leaf((0,))
        children = tree.children((0,))
        ll_alt = sum(
            fit_leaf(build_design(data, tree, c, h=2), 1, start=tree.block(c)).loglik
            for c in children
        )
        designs = [build_design(data, tree, c, h=1) for c in children]
        stacked = LeafDesign(
            context=(0,), X=np.vstack([dz.X for dz in designs]),
            y=np.concatenate([dz.y for dz in designs]), h=1, d=1, p=2,
        )
        merged = fit_leaf(stacked)
        assert out.block((0,)) == merged.params
        assert test.statistic == lrt(merged.loglik, ll_alt, test.df).statistic

    def test_distinct_laws_stay_split(self):
        data = covariate_chain(
            4000, 5, lambda t, x, y: (2.0 if y[t - 2] else -1.5) + 1.2 * x[t - 1]
        )
        tree = self.fixture_tree()
        test, out = merge_siblings_test(tree, (0,), data, FitConfig(gamma=1e-3))
        assert test.p_value < 1e-3
        assert out is tree

    def test_degrees_of_freedom_count_parameter_difference(self):
        # children fitted with h=1 each (4 parameters) against a merged
        # depth-1 leaf (2 parameters)
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        test, _ = merge_siblings_test(self.fixture_tree(), (0,), data)
        assert test.df == 2

    def test_merge_to_root_drops_covariates(self):
        # the root context has no lags, so merging to it removes the
        # covariate effect and a real effect blocks the merge
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        b = ParamBlock.binary(0.3, [1.2])
        tree = ContextTree(p=2, d=1, nodes={(): None, (0,): b, (1,): b})
        test, out = merge_siblings_test(tree, (), data, FitConfig(gamma=1e-3))
        assert test.p_value < 1e-3
        assert out is tree

    def test_internal_children_rejected(self):
        data = covariate_chain(500, 5, lambda t, x, y: 0.3)
        with pytest.raises(ChildrenNotLeaves):
            merge_siblings_test(self.fixture_tree(), (), data)

    def test_no_children_rejected(self):
        data = covariate_chain(500, 5, lambda t, x, y: 0.3)
        with pytest.raises(ChildrenNotLeaves):
            merge_siblings_test(self.fixture_tree(), (0, 0), data)

    def test_unknown_parent_rejected(self):
        data = covariate_chain(500, 5, lambda t, x, y: 0.3)
        with pytest.raises(MalformedModel, match="^unknown context 1,1$"):
            merge_siblings_test(self.fixture_tree(), (1, 1), data)

    def test_merge_without_free_parameters_is_not_tested(self):
        # intercept-only children (2 parameters) against a parent fitted
        # with one lag (2 parameters): df = 0, a merge fit() never tests
        data = covariate_chain(4000, 5, lambda t, x, y: 0.3 + 1.2 * x[t - 1])
        b0 = ParamBlock.binary(0.3, [])
        tree = ContextTree(
            p=2, d=1,
            nodes={(): None, (0,): None, (1,): ParamBlock.binary(0.3, [1.2]),
                   (0, 0): b0, (0, 1): b0},
        )
        with pytest.raises(DomainError, match="merge at 0 "):
            merge_siblings_test(tree, (0,), data)


class TestSequentialBetaPrune:
    def ragged_tree(self, h, beta):
        block = ParamBlock.binary(0.2, beta)
        nodes = {(0,) * k: None for k in range(h)}
        nodes[()] = None
        nodes[(0,) * h] = block
        return ContextTree(p=2, d=1, nodes=nodes)

    def test_drops_down_to_real_depth(self):
        data = covariate_chain(6000, 9, lambda t, x, y: 0.2 + 1.5 * x[t - 1])
        tree = self.ragged_tree(3, [1.5, 0.01, 0.01])
        out = sequential_beta_prune(tree, (0, 0, 0), data, FitConfig(gamma=0.01))
        assert out.block((0, 0, 0)).h == 1
        assert out.same_structure(tree)

    def test_stops_at_first_rejection(self):
        # only the deepest lag matters; the sweep must stop there and keep
        # the shallower (irrelevant) lags as well
        data = covariate_chain(6000, 9, lambda t, x, y: 0.2 + 1.8 * x[t - 3])
        tree = self.ragged_tree(3, [0.01, 0.01, 1.8])
        out = sequential_beta_prune(tree, (0, 0, 0), data, FitConfig(gamma=0.01))
        assert out.block((0, 0, 0)).h == 3

    def test_can_reach_intercept_only(self):
        data = covariate_chain(6000, 9, lambda t, x, y: 0.2)
        tree = self.ragged_tree(2, [0.01, 0.01])
        out = sequential_beta_prune(tree, (0, 0), data, FitConfig(gamma=0.01))
        assert out.block((0, 0)).h == 0


class TestReplayAudit:
    def test_audit_determines_final_tree(self, model2_data):
        rep = fit(model2_data)
        tau_max = build_maximal_tree(model2_data)
        state = replay_audit(tau_max, rep.audit)
        want = {
            u: (rep.tree.block(u).h if rep.tree.is_leaf(u) else None)
            for u in rep.tree.nodes
        }
        assert state == want

    def test_empty_audit_is_identity(self, model2_data):
        tau_max = build_maximal_tree(model2_data)
        state = replay_audit(tau_max, [])
        for u in tau_max.nodes:
            if tau_max.is_leaf(u):
                assert state[u] == tau_max.block(u).h
            else:
                assert state[u] is None


class TestSelectTuning:
    def test_winner_minimizes_bic(self, model2_data):
        result = select_tuning(model2_data, s_grid=[2, 5], gamma_grid=[1e-3, 1e-2])
        assert isinstance(result, TuningResult)
        assert len(result.candidates) == 4
        assert result.report.bic == min(c.bic for c in result.candidates)
        winner = min(
            result.candidates, key=lambda c: (c.bic, c.n_alpha, c.gamma, c.s)
        )
        assert (result.config.s, result.config.gamma) == (winner.s, winner.gamma)

    def test_unpacks_as_pair(self, model2_data):
        cfg, rep = select_tuning(model2_data, s_grid=[5], gamma_grid=[1e-2])
        assert isinstance(cfg, FitConfig)
        assert isinstance(rep, FitReport)

    def test_single_point_grid_equals_direct_fit(self, model2_data):
        result = select_tuning(model2_data, s_grid=[5], gamma_grid=[1e-2])
        direct = fit(model2_data, FitConfig(s=5, gamma=1e-2))
        assert result.report.tree.serialize() == direct.tree.serialize()
        assert result.report.bic == direct.bic

    def test_base_config_flags_propagate(self, model2_data):
        result = select_tuning(
            model2_data,
            s_grid=[5],
            gamma_grid=[1e-2],
            config=FitConfig(ic_include_intercepts=True),
        )
        assert result.config.ic_include_intercepts
        rep = result.report
        k = rep.n_beta + rep.n_alpha * (rep.tree.p - 1)
        assert rep.bic == -2.0 * rep.loglik + k * math.log(rep.n_eff)

    def test_empty_grid_rejected(self, model2_data):
        with pytest.raises(DataError):
            select_tuning(model2_data, s_grid=[], gamma_grid=[1e-2])

    def test_non_integer_s_rejected(self, model2_data):
        with pytest.raises(DataError, match="s must be an integer, got 2.5"):
            select_tuning(model2_data, s_grid=(2.5,), gamma_grid=(1e-3,))

    def test_non_integer_p_rejected(self, model2_data):
        with pytest.raises(DataError, match="p must be an integer, got 2.5"):
            select_tuning(model2_data, s_grid=(2,), gamma_grid=(1e-3,), p=2.5)

    def test_invalid_s_rejected_before_growing(self):
        # s=0 grows the tree to depth log2 n, which would set the shared
        # horizon for the valid grid points before s=0 itself failed
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        with pytest.raises(DataError, match="s must be >= 1, got 0"):
            select_tuning(data, s_grid=(0, 2, 5), gamma_grid=(1e-3,))

    def test_hopeless_data_raises(self):
        # no s can grow a tree, a data error, not a numerical one
        data = Dataset(states=np.zeros(30, dtype=int), covariates=np.zeros(30))
        with pytest.raises(DataTooShort):
            select_tuning(data, s_grid=[5], gamma_grid=[1e-2])

    @staticmethod
    def tune_recording_reports(data, base, monkeypatch):
        """``select_tuning`` at ``p=2`` with every grid point's report kept."""
        reports = []
        engine_report = algorithm._Engine.report

        def recording_report(engine):
            reports.append(engine_report(engine))
            return reports[-1]

        monkeypatch.setattr(algorithm._Engine, "report", recording_report)
        result = select_tuning(data, config=base, p=2)
        monkeypatch.setattr(algorithm._Engine, "report", engine_report)
        return result, reports

    @staticmethod
    def assert_points_match_fits(data, base, result, reports):
        """Each candidate and grid-point report equals a plain ``fit`` at its
        (s, gamma) and the tuned horizon; returns those fits."""
        assert len(reports) == len(result.candidates) == 12
        fields = ("bic", "aic", "loglik", "n_alpha", "n_beta")
        directs = []
        for c, rep in zip(result.candidates, reports):
            cfg = base.replace(s=c.s, gamma=c.gamma)
            direct = fit(data, cfg, p=2, horizon=result.report.horizon)
            assert [getattr(c, f) for f in fields] == [getattr(direct, f) for f in fields]
            assert rep.config == cfg
            assert rep.to_json() == direct.to_json()
            if cfg == result.config:
                assert result.report.to_json() == direct.to_json()
            directs.append(direct)
        return directs

    @pytest.mark.parametrize(
        "model, n, seed, stall, note",
        [
            # constrained fits raise NotConverged, so their lags drop unfitted
            ("model2", 1000, 1000000, False, "no convergence after"),
            ("model1", 2000, 1000003, False, "separation at"),
            # lagged fits from scratch on an odd number of rows stall, so
            # those leaves and merged parents fall back to intercept only
            ("model2", 1000, 1000000, True, "fell back to intercept only"),
        ],
    )
    def test_shared_fits_match_uncached_fits(self, model, n, seed, stall, note, monkeypatch):
        fallbacks = []
        if stall:
            def stalling_fit_leaf(design, h=None, *, start=None, **kwargs):
                if start is None and h and design.m % 2:
                    raise NotConverged(0)
                if start is None and h == 0:
                    fallbacks.append(design.context)
                return fit_leaf(design, h, start=start, **kwargs)

            monkeypatch.setattr("vlmcx.algorithm.fit_leaf", stalling_fit_leaf)
        data = vlmcx.generate(vlmcx.builtin_model(model), n, seed=seed)
        base = FitConfig(ic_include_intercepts=True)
        result, reports = self.tune_recording_reports(data, base, monkeypatch)
        tuned_fallbacks = len(fallbacks)
        directs = self.assert_points_match_fits(data, base, result, reports)
        assert any(note in msg for direct in directs for msg in direct.notes)
        if stall:
            # the tuning grid reuses intercept-only fallbacks across s and gamma
            assert 0 < tuned_fallbacks < len(fallbacks) - tuned_fallbacks

    @pytest.mark.parametrize("model, n, seed", [
        ("model2", 1000, 1000000),
        ("model1", 2000, 1000003),
    ])
    def test_shared_fits_match_uncached_fits_under_bonferroni(self, model, n, seed,
                                                             monkeypatch):
        data = vlmcx.generate(vlmcx.builtin_model(model), n, seed=seed)
        base = FitConfig(ic_include_intercepts=True, bonferroni=True)
        result, reports = self.tune_recording_reports(data, base, monkeypatch)
        self.assert_points_match_fits(data, base, result, reports)

    def test_each_test_runs_once_per_grid(self, monkeypatch):
        # the gamma values of one s share each test's outcome, so no LRT
        # reaches lrt twice
        seen = []

        def spy(ll_null, ll_alt, df):
            seen.append((ll_null, ll_alt, df))
            return lrt(ll_null, ll_alt, df)

        monkeypatch.setattr("vlmcx.algorithm.lrt", spy)
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        result = select_tuning(data, s_grid=[2])
        assert len(result.candidates) == 4
        assert len(seen) > 0
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("spec, n", [
        ("model2", 1000), ("model1", 2000), ("model3", 2000), ("tri", 3000),
    ])
    def test_each_pruning_test_runs_once_across_the_grid(self, spec, n, monkeypatch):
        # the s engines share their initial leaf states and one outcome memo,
        # so no test on content-equal states runs twice in one call
        keys = []

        def key(u, states):
            return (u, *((st.rows.tobytes(), st.fit.params.alpha.tobytes(),
                          st.fit.params.beta.tobytes()) for st in states))

        lag_drop_outcome = algorithm._Engine._lag_drop_outcome
        merge_outcome = algorithm._Engine._merge_outcome

        def spy_lag_drop(engine, u, st, notes):
            keys.append(key(u, (st,)))
            return lag_drop_outcome(engine, u, st, notes)

        def spy_merge(engine, parent, states, notes):
            keys.append(key(parent, states))
            return merge_outcome(engine, parent, states, notes)

        monkeypatch.setattr(algorithm._Engine, "_lag_drop_outcome", spy_lag_drop)
        monkeypatch.setattr(algorithm._Engine, "_merge_outcome", spy_merge)
        model = tri_model() if spec == "tri" else vlmcx.builtin_model(spec)
        data = vlmcx.generate(model, n, seed=1_000_000)
        result = select_tuning(data, config=FitConfig(ic_include_intercepts=True), p=model.p)
        assert len(result.candidates) == 12
        repeats = len(keys) - len(set(keys))
        assert keys and repeats == 0

    def test_no_memo_outlives_a_call(self, monkeypatch):
        # a second call on the same data fits everything again
        calls = []

        def counting_fit_leaf(design, h=None, **kwargs):
            calls.append(h)
            return fit_leaf(design, h, **kwargs)

        monkeypatch.setattr("vlmcx.algorithm.fit_leaf", counting_fit_leaf)
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        counts = []
        for _ in range(2):
            calls.clear()
            select_tuning(data, s_grid=[2, 5], gamma_grid=[1e-3, 1e-2])
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_failed_fits_are_fitted_once(self, monkeypatch):
        # cold lagged fits on an odd number of rows stall; the memo shares the
        # failed initial fits, their fallbacks and the tests on them across s
        # and gamma, so no distinct fit reaches Newton twice
        reached, stalled = [], []

        def counting_fit_leaf(design, h=None, *, start=None, **kwargs):
            warm = None if start is None else (start.alpha.tobytes(), start.beta.tobytes())
            reached.append((design.X.tobytes(), design.y.tobytes(), h, warm))
            if start is None and h and design.m % 2:
                stalled.append(design.context)
                raise NotConverged(0)
            return fit_leaf(design, h, start=start, **kwargs)

        monkeypatch.setattr("vlmcx.algorithm.fit_leaf", counting_fit_leaf)
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        base = FitConfig(ic_include_intercepts=True)
        result = select_tuning(data, config=base, p=2)
        assert stalled
        assert len(reached) == len(set(reached))
        direct = fit(data, result.config, p=2, horizon=result.report.horizon)
        assert result.report.to_json() == direct.to_json()

    def test_builds_one_history_index_per_call(self, model2_data, monkeypatch):
        built = []

        class CountingIndex(algorithm.HistoryIndex):
            def __init__(self, data):
                built.append(data)
                super().__init__(data)

        monkeypatch.setattr(algorithm, "HistoryIndex", CountingIndex)
        result = select_tuning(model2_data, s_grid=[2, 5, 10], gamma_grid=[1e-3, 1e-2])
        assert len(result.candidates) == 6
        assert built == [model2_data]

    def test_leaves_no_reference_cycles(self):
        data = vlmcx.generate(vlmcx.builtin_model("model2"), 1000, seed=1000000)
        gc.collect()
        gc.disable()
        try:
            select_tuning(data, config=FitConfig(ic_include_intercepts=True))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBonferroni:
    @staticmethod
    def replay_levels(data, config):
        """Replay the audit on the maximal tree and check each action against
        the pass's Bonferroni level; returns the number of tests per pass."""
        rep = fit(data, config)
        tau_max = build_maximal_tree(data, config)
        p = tau_max.p
        leaves = {u: tau_max.block(u).h for u in tau_max.leaves()}
        per_pass, depth, level = [], None, None
        for rec in rep.audit:
            if len(rec.contexts[0]) != depth:  # a new pass: count its planned tests
                depth = len(rec.contexts[0])
                at = [u for u in leaves if len(u) == depth]
                complete = {
                    u[:-1] for u in at if all(u[:-1] + (w,) in leaves for w in range(p))
                }
                n_tests = sum(1 for u in at if leaves[u] > 0) + len(complete)
                per_pass.append(n_tests)
                level = config.gamma / n_tests
            if rec.test == "sibling_merge":
                assert rec.action == ("merge" if rec.p_value >= level else "no_merge"), rec
                if rec.action == "merge":
                    for c in rec.contexts:
                        del leaves[c]
                    leaves[rec.contexts[0][:-1]] = depth - 1
            else:
                dropped = math.isnan(rec.p_value) or rec.p_value > level
                assert rec.action == ("drop" if dropped else "keep"), rec
                if dropped:
                    leaves[rec.contexts[0]] = rec.lag - 1
        assert leaves == {u: rep.tree.block(u).h for u in rep.tree.leaves()}
        return per_pass

    @pytest.mark.parametrize("spec", ["model2", "tri"])
    @pytest.mark.parametrize("config", [
        FitConfig(bonferroni=True),
        FitConfig(bonferroni=True, s=5, gamma=1e-2),
    ])
    def test_actions_follow_the_per_pass_level(self, spec, config):
        model = tri_model() if spec == "tri" else vlmcx.builtin_model(spec)
        data = vlmcx.generate(model, 1000 if spec == "model2" else 3000, seed=1_000_000)
        per_pass = self.replay_levels(data, config)
        assert len(per_pass) > 1 and max(per_pass) > 1


class TestGammaLimits:
    def test_gamma_near_one_keeps_maximal_structure(self, model2_data):
        rep = fit(model2_data, FitConfig(gamma=1.0 - 1e-9))
        tau_max = build_maximal_tree(model2_data)
        assert rep.tree.same_structure(tau_max)
        assert not any(rec.action == "merge" for rec in rep.audit)
        # lags can still drop, but only through degenerate fits whose
        # clamped deviance yields p = 1 (or a recorded failure)
        for rec in rep.audit:
            if rec.action == "drop":
                assert rec.p_value == 1.0 or math.isnan(rec.p_value)

    def test_gamma_near_zero_collapses_to_root(self, model2_data):
        rep = fit(model2_data, FitConfig(gamma=1e-300))
        assert rep.tree.order == 0
        assert rep.tree.block(()).h == 0
