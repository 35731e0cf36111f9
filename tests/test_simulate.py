import json
import math

import numpy as np
import pytest

import vlmcx
from vlmcx import ContextTree, FitConfig, ParamBlock, TuningGrid
from vlmcx.algorithm import FitReport
from vlmcx.errors import AlphabetMismatch, DataError, UnknownModel
from vlmcx.glm import build_design, fit_leaf, hessian
from vlmcx.simulate import (
    BUILTIN_MODELS,
    EvalMetrics,
    ModelSpec,
    builtin_model,
    compare_trees,
    generate,
    monte_carlo,
)

from conftest import BASE_SEED


def report_for(tree, p=2):
    """Minimal FitReport wrapper; compare_trees only reads the tree/scores."""
    return FitReport(
        tree=tree,
        loglik=0.0,
        aic=0.0,
        bic=0.0,
        n_alpha=0,
        n_beta=0,
        n_eff=0,
        horizon=0,
        config=FitConfig(),
        leaf_stats=[],
        audit=[],
        notes=[],
    )


class TestBuiltinModels:
    def test_names(self):
        assert BUILTIN_MODELS == ("model1", "model2", "model3")
        for name in BUILTIN_MODELS:
            spec = builtin_model(name)
            assert (spec.p, spec.d) == (2, 1)

    def test_unknown_name(self):
        with pytest.raises(UnknownModel):
            builtin_model("model9")

    def test_model1_lag_counts_follow_zero_tails(self):
        tree = builtin_model("model1").tree
        assert tree.block((0, 0)).h == 1
        assert tree.block((0, 1, 0)).h == 2
        assert tree.block((0, 1, 1, 0)).h == 4
        assert tree.block((0, 1, 1, 1)).h == 2
        assert tree.block((1, 0)).h == 0
        assert tree.block((1, 1)).h == 0

    def test_model2_intercepts_and_lags(self):
        tree = builtin_model("model2").tree
        assert tree.block((0, 0, 0)).alpha[0] == 0.5
        assert tree.block((0, 0, 0)).h == 3
        assert tree.block((0, 0, 1)).h == 1
        assert tree.block((0, 1)).h == 2
        assert tree.block((1, 0)).h == 1
        assert tree.block((1, 1)).h == 0

    def test_model3_has_no_covariate_effects(self):
        tree = builtin_model("model3").tree
        assert all(tree.block(u).h == 0 for u in tree.leaves())
        two = builtin_model("model2").tree
        assert sorted(tree.nodes) == sorted(two.nodes)

    def test_case_and_whitespace_tolerant(self):
        assert builtin_model(" Model1 ").tree.same_structure(builtin_model("model1").tree)


class TestModelSpec:
    def test_rejects_unfitted_leaf(self):
        tree = ContextTree(
            p=2, d=1,
            nodes={(): None, (0,): ParamBlock.binary(0.1, [1.0]), (1,): None},
        )
        with pytest.raises(DataError):
            ModelSpec(tree=tree)

    def test_rejects_unresolved_history(self):
        # internal node with one child cannot generate: histories ending in
        # the missing symbol have no law
        b = ParamBlock.binary(0.1, [1.0])
        tree = ContextTree(
            p=2, d=1,
            nodes={(): None, (0,): None, (1,): b, (0, 0): b},
        )
        with pytest.raises(DataError):
            ModelSpec(tree=tree)

    def test_rejects_unknown_covariate_law(self):
        tree = builtin_model("model2").tree
        with pytest.raises(DataError):
            ModelSpec(tree=tree, covariate_law="cauchy")


class TestGenerate:
    def test_same_seed_same_data(self):
        spec = builtin_model("model2")
        a = generate(spec, 300, seed=9)
        b = generate(spec, 300, seed=9)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_seed_changes_data(self):
        spec = builtin_model("model2")
        a = generate(spec, 300, seed=9)
        b = generate(spec, 300, seed=10)
        assert not np.array_equal(a.states, b.states)

    def test_burn_in_shifts_the_stream(self):
        spec = builtin_model("model2")
        a = generate(spec, 300, seed=9, burn_in=0)
        b = generate(spec, 300, seed=9, burn_in=50)
        assert not np.array_equal(a.states, b.states)

    def test_shapes_and_alphabet(self):
        spec = builtin_model("model1")
        data = generate(spec, 500, seed=3)
        assert data.n == 500
        assert data.covariates.shape == (500, 1)
        assert set(np.unique(data.states)) <= {0, 1}

    def test_rejects_bad_sizes(self):
        spec = builtin_model("model1")
        with pytest.raises(DataError):
            generate(spec, 0, seed=1)
        with pytest.raises(DataError):
            generate(spec, 100, seed=1, burn_in=-1)

    @pytest.mark.parametrize("n, burn_in, message", [
        (300.5, 1000, "n must be an integer, got 300.5"),
        (300, 10.0, "burn_in must be an integer, got 10.0"),
    ])
    def test_sizes_must_be_integers(self, n, burn_in, message):
        with pytest.raises(DataError, match=message):
            generate(builtin_model("model2"), n, seed=1, burn_in=burn_in)

    def test_conditional_frequencies_match_intercepts(self):
        # model 3 is a plain VLMC, so windowed frequencies estimate the
        # logistic intercepts directly
        spec = builtin_model("model3")
        data = generate(spec, 50000, seed=78)
        s = data.states
        for u in spec.tree.leaves():
            a = float(spec.tree.block(u).alpha[0])
            idx = np.arange(len(u), data.n)
            mask = np.ones(idx.size, dtype=bool)
            for j, sym in enumerate(u):
                mask &= s[idx - 1 - j] == sym
            sel = idx[mask]
            phat = float(s[sel].mean())
            ptrue = 1.0 / (1.0 + math.exp(-a))
            z = (phat - ptrue) / math.sqrt(ptrue * (1.0 - ptrue) / sel.size)
            assert abs(z) < 3.0, (u, phat, ptrue)

    def test_covariate_effect_recoverable(self):
        # refitting the true tree's leaf 10 on generated data recovers its
        # coefficients within three standard errors
        spec = builtin_model("model2")
        data = generate(spec, 40000, seed=77)
        design = build_design(data, spec.tree, (1, 0), h=1)
        res = fit_leaf(design)
        theta = np.concatenate([res.params.alpha, res.params.beta.ravel()])
        se = np.sqrt(np.diag(np.linalg.inv(-hessian(design, theta))))
        np.testing.assert_array_less(np.abs(theta - [-0.2, -1.2]), 3 * se)


class TestCompareTrees:
    def test_truth_is_fixed_point(self):
        for name in BUILTIN_MODELS:
            spec = builtin_model(name)
            em = compare_trees(spec, report_for(spec.tree))
            assert em.missing == 0 and em.extra == 0
            assert em.identical_tau and em.identical_tau_theta

    def test_merged_branch_counts_missing_nodes(self):
        spec = builtin_model("model2")
        nodes = dict(spec.tree.nodes)
        del nodes[(0, 0, 0)]
        del nodes[(0, 0, 1)]
        nodes[(0, 0)] = ParamBlock.binary(0.5, [1.0])
        fitted = ContextTree(p=2, d=1, nodes=nodes)
        em = compare_trees(spec, report_for(fitted))
        assert em.missing == 2 and em.extra == 0
        assert not em.identical_tau

    def test_spurious_split_counts_extra_nodes(self):
        spec = builtin_model("model2")
        nodes = dict(spec.tree.nodes)
        b = nodes.pop((1, 1))
        nodes[(1, 1)] = None
        nodes[(1, 1, 0)] = b
        nodes[(1, 1, 1)] = b
        fitted = ContextTree(p=2, d=1, nodes=nodes)
        em = compare_trees(spec, report_for(fitted))
        assert em.missing == 0 and em.extra == 2
        assert not em.identical_tau

    def test_lag_shortfall_breaks_theta_only(self):
        spec = builtin_model("model2")
        nodes = dict(spec.tree.nodes)
        nodes[(0, 0, 1)] = ParamBlock.binary(0.8, [])
        fitted = ContextTree(p=2, d=1, nodes=nodes)
        em = compare_trees(spec, report_for(fitted))
        assert em.identical_tau
        assert not em.identical_tau_theta

    def test_alphabet_mismatch(self):
        spec = builtin_model("model2")
        b = ParamBlock(alpha=[0.0, 0.0], beta=np.zeros((2, 0, 1)))
        fitted = ContextTree(p=3, d=1, nodes={(): None, (0,): b, (1,): b, (2,): b})
        with pytest.raises(AlphabetMismatch):
            compare_trees(spec, report_for(fitted))


class TestMonteCarlo:
    def test_summary_arithmetic(self):
        spec = builtin_model("model2")
        summary = monte_carlo(spec, 500, 3, FitConfig(s=5), base_seed=11)
        assert summary.runs == 3 and summary.tuned is False
        kept = summary.per_run
        assert len(kept) == 3 - summary.failures
        assert summary.means["bic"] == pytest.approx(
            np.mean([em.bic for em in kept])
        )
        assert summary.rates["identical_tau"] == pytest.approx(
            np.mean([em.identical_tau for em in kept])
        )
        assert sum(summary.hist_missing.values()) == len(kept)
        assert sum(summary.hist_extra.values()) == len(kept)

    def test_runs_are_seeded_independently(self):
        spec = builtin_model("model2")
        first = monte_carlo(spec, 500, 1, FitConfig(s=5), base_seed=11).per_run[0]
        again = monte_carlo(spec, 500, 3, FitConfig(s=5), base_seed=11).per_run[0]
        assert first == again

    def test_all_failures_give_nan_summaries(self):
        spec = builtin_model("model2")
        summary = monte_carlo(spec, 4, 2, FitConfig(), base_seed=1)
        assert summary.failures == 2
        assert len(summary.failure_notes) == 2
        assert math.isnan(summary.means["bic"])
        assert math.isnan(summary.rates["identical_tau"])
        doc = json.loads(summary.to_json())
        assert doc["rates"]["identical_tau"] is None

    def test_tuned_runs_record_selections(self):
        spec = builtin_model("model2")
        grid = TuningGrid(s_grid=(2, 5), gamma_grid=(1e-3,))
        summary = monte_carlo(spec, 400, 2, grid, base_seed=11)
        assert summary.tuned is True
        assert sum(summary.selected.values()) == 2 - summary.failures
        for key in summary.selected:
            assert key.startswith("s=")

    @pytest.mark.parametrize(
        "kwargs",
        [{"s_grid": (0,)}, {"s_grid": ()}, {"gamma_grid": (1.5,)}, {"s_grid": (2.9,)}],
    )
    def test_invalid_grid_rejected_on_construction(self, kwargs):
        # an invalid grid is a usage error, not a study of failed runs
        with pytest.raises(DataError):
            TuningGrid(**kwargs)

    def test_rejects_zero_runs(self):
        with pytest.raises(DataError):
            monte_carlo(builtin_model("model1"), 100, 0)

    def test_coefficient_cells_track_true_leaves(self, mc_model2_n1000):
        cells = {
            (c.context, c.lag, c.covariate): c for c in mc_model2_n1000.coefficients
        }
        truth = builtin_model("model2").tree
        want = {
            (u, lag + 1, 1)
            for u in truth.leaves()
            for lag in range(truth.block(u).h)
        }
        assert set(cells) == want
        assert cells[((1, 0), 1, 1)].true == -1.2
        assert cells[((0, 1), 2, 1)].true == -2.0
        for c in cells.values():
            assert 0 <= c.n_clean <= c.n <= mc_model2_n1000.runs

    def test_recovered_coefficient_means_are_sane(self, mc_model2_n1000):
        cell = next(
            c for c in mc_model2_n1000.coefficients
            if c.context == (0, 1) and c.lag == 1
        )
        assert cell.n > 50
        assert abs(cell.mean - (-1.0)) < 0.2


class TestSummaryOutputs:
    def test_format_table_tokens(self, mc_model2_n1000):
        text = mc_model2_n1000.format_table()
        assert "results over 200 runs, n=1000" in text
        assert "tuned per run" in text
        assert "BIC" in text and "ident_tau" in text
        assert "missing node counts" in text
        assert "selected settings" in text

    def test_json_round_trip(self, mc_model2_n1000):
        doc = json.loads(mc_model2_n1000.to_json())
        assert set(doc) == {
            "model", "n", "runs", "failures", "tuned", "means", "rates",
            "hist_missing", "hist_extra", "coefficients", "selected",
            "failure_notes",
        }
        assert doc["runs"] == 200
        assert doc["model"] == {"p": 2, "d": 1}
        assert all(isinstance(k, str) for k in doc["hist_missing"])


class TestRecoveryInvariants:
    def test_metric_definitions_agree(self, mc_model1_n1000, mc_model1_n2000,
                                      mc_model2_n1000, mc_model2_n2000,
                                      mc_model3_n2000):
        summaries = [mc_model1_n1000, mc_model1_n2000, mc_model2_n1000,
                     mc_model2_n2000, mc_model3_n2000]
        for summary in summaries:
            for em in summary.per_run:
                assert em.identical_tau == (em.missing == 0 and em.extra == 0)
                if em.identical_tau_theta:
                    assert em.identical_tau
                assert em.order_covar <= em.order_tree

    def test_more_data_never_hurts_much(self, mc_model1_n1000, mc_model1_n2000,
                                         mc_model2_n1000, mc_model2_n2000):
        # recovery rate at n=2000 can trail n=1000 by at most noise
        for small, large in [
            (mc_model1_n1000, mc_model1_n2000),
            (mc_model2_n1000, mc_model2_n2000),
        ]:
            rate_small = np.mean([em.identical_tau for em in small.per_run[:100]])
            rate_large = np.mean([em.identical_tau for em in large.per_run[:100]])
            assert rate_large >= rate_small - 0.03

    def test_beta_count_monotone_in_gamma(self):
        # without covariate effects, stricter pruning levels can only shrink
        # the average number of fitted lag coefficients
        spec = builtin_model("model3")
        means = []
        for gamma in (1e-5, 1e-4, 1e-3, 1e-2):
            summary = monte_carlo(
                spec, 1000, 100, FitConfig(s=5, gamma=gamma), base_seed=BASE_SEED
            )
            means.append(summary.means["n_beta"])
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
        assert means[0] < means[-1]
