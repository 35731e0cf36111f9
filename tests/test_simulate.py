import bisect
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import vlmcx
from vlmcx import ContextTree, FitConfig, ParamBlock, TuningGrid, simulate
from vlmcx.algorithm import FitReport
from vlmcx.errors import AlphabetMismatch, DataError, UnknownModel
from vlmcx.glm import build_design, fit_leaf, hessian
from vlmcx.simulate import (
    BUILTIN_MODELS,
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

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(DataError, match=message):
            generate(builtin_model("model2"), 100, seed=seed)

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


def _reference_law(z, binary):
    if binary:
        return 1.0 / (1.0 + math.exp(-float(z[0])))
    full = np.concatenate(([0.0], z))
    full -= np.maximum.reduce(full)
    probs = np.exp(full)
    probs /= np.add.reduce(probs)
    return np.add.accumulate(probs).tolist()


def reference_generate(spec, n, seed, burn_in=1000):
    """The per-step generator that ``generate`` replaced, kept as an oracle:
    every step computes its own law, with no blocks and no hot leaves."""
    tree = spec.tree
    p, d, eta = tree.p, tree.d, tree.order
    binary = p == 2
    rng = np.random.default_rng(seed)
    total = burn_in + n
    cov = rng.standard_normal((total, d)) if d > 0 else np.zeros((total, 0))
    uniforms = rng.random(total).tolist()
    H = tree.covariate_order
    lagged = np.zeros((total, H * d))
    for lag in range(1, min(H, total) + 1):
        lagged[lag:, (lag - 1) * d : lag * d] = cov[: total - lag]
    params = {}
    for u in tree.leaves():
        block = tree.nodes[u]
        alpha = np.asarray(block.alpha)
        width = block.h * d
        fixed = None if width else _reference_law(alpha, binary)
        params[u] = (alpha, np.asarray(block.beta.reshape(block.n_targets, -1)), width, fixed)
    leaf_of = {}
    states = np.zeros(total, dtype=np.int64)
    hist = (0,) * eta
    for i in range(total):
        leaf = leaf_of.get(hist)
        if leaf is None:
            leaf = leaf_of[hist] = params[tree.lookup(hist)]
        alpha, bflat, width, law = leaf
        if law is None:
            law = _reference_law(alpha + bflat @ lagged[i, :width], binary)
        if binary:
            yi = 1 if uniforms[i] < law else 0
        else:
            yi = min(bisect.bisect_right(law, uniforms[i]), p - 1)
        states[i] = yi
        if eta:
            hist = (yi,) + hist[:-1]
    return states[burn_in:], cov[burn_in:]


def _tri_model():
    """The benchmark's 3-state, 2-covariate generating tree."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tri_model()


def _root_only(alpha=0.3):
    """A tree of one leaf; the root has no lags to reach covariates with."""
    block = ParamBlock.binary(alpha, [0.0])
    return ModelSpec(tree=ContextTree(p=2, d=1, nodes={(): block}))


def _two_leaves(alpha=0.3, beta=1.5):
    """Two leaves of depth 1 with the same law, one covariate lag each."""
    nodes = {(): None, (0,): ParamBlock.binary(alpha, [beta]),
             (1,): ParamBlock.binary(alpha, [beta])}
    return ModelSpec(tree=ContextTree(p=2, d=1, nodes=nodes))


def _no_covariates():
    """p = 3, d = 0: every leaf has a fixed law."""
    nodes = {(): None}
    for s, alpha in enumerate(([0.2, -0.4], [1.0, 0.5], [-0.3, 0.8])):
        nodes[(s,)] = ParamBlock(alpha=np.array(alpha), beta=np.zeros((2, 0, 0)))
    return ModelSpec(tree=ContextTree(p=3, d=0, nodes=nodes))


SPECS = {
    "model1": lambda: builtin_model("model1"),
    "model2": lambda: builtin_model("model2"),
    "model3": lambda: builtin_model("model3"),
    "tri": _tri_model,
    "root_only": _root_only,
    "two_leaves": _two_leaves,
    "no_covariates": _no_covariates,
}


@pytest.fixture(scope="module")
def fitted_tri_tree():
    """A generating tree of over 100 leaves: a fit to 10 000 steps of tri."""
    report = vlmcx.fit(generate(_tri_model(), 10_000, seed=2_000_000))
    assert len(report.tree.leaves()) >= 100
    return ModelSpec(tree=report.tree)


class _PathCounter:
    """Counts per-step laws and hot blocks by wrapping the module helpers."""

    def __init__(self, monkeypatch):
        self.cold = 0
        self.hot_leaves = []
        step_law, hot_block = simulate._next_state_law, simulate._hot_block

        def counted_law(z, binary):
            self.cold += 1
            return step_law(z, binary)

        def counted_block(leaf, *args):
            self.hot_leaves.append(leaf[0])
            return hot_block(leaf, *args)

        monkeypatch.setattr(simulate, "_next_state_law", counted_law)
        monkeypatch.setattr(simulate, "_hot_block", counted_block)


def assert_same_as_reference(spec, n, seed, burn_in):
    data = generate(spec, n, seed, burn_in=burn_in)
    states, cov = reference_generate(spec, n, seed, burn_in=burn_in)
    assert data.states.dtype == states.dtype
    np.testing.assert_array_equal(data.states, states)
    np.testing.assert_array_equal(data.covariates, cov)


class TestBlockDraw:
    """``generate`` draws busy leaves a block at a time and must give the
    per-step generator's streams exactly."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("n, burn_in", [
        (1, 0),
        (1, 1000),
        (300, 0),
        (5000, 1000),
        (3 * simulate.BLOCK_ROWS + 7, 0),
    ])
    def test_matches_per_step_generator(self, name, n, burn_in):
        assert_same_as_reference(SPECS[name](), n, seed=11, burn_in=burn_in)

    @pytest.mark.parametrize("name", ["model1", "model2", "tri", "two_leaves"])
    def test_hot_and_cold_paths_both_run(self, monkeypatch, name):
        counter = _PathCounter(monkeypatch)
        generate(SPECS[name](), 2 * simulate.BLOCK_ROWS + 100, seed=5, burn_in=0)
        assert counter.cold > 0
        assert counter.hot_leaves

    def test_fixed_laws_never_go_hot(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        generate(_no_covariates(), 5000, seed=5)
        assert counter.hot_leaves == []

    def test_large_fitted_tree_mostly_cold(self, monkeypatch, fitted_tri_tree):
        tree = fitted_tri_tree.tree
        covariate_leaves = sum(1 for u in tree.leaves() if tree.block(u).h > 0)
        counter = _PathCounter(monkeypatch)
        generate(fitted_tri_tree, 20_000, seed=3)
        went_hot = set(counter.hot_leaves)
        assert counter.cold > 0 and went_hot
        assert len(went_hot) < covariate_leaves / 2

    @pytest.mark.parametrize("n, burn_in", [(5000, 1000), (20_000, 0)])
    def test_large_fitted_tree_matches_per_step_generator(self, fitted_tri_tree, n, burn_in):
        assert_same_as_reference(fitted_tri_tree, n, seed=3, burn_in=burn_in)

    @pytest.mark.parametrize("name", ["model1", "tri"])
    def test_hot_block_has_the_per_step_bits(self, name):
        # a state hides most rounding, so compare the numbers themselves:
        # binary rows against the per-step predictor, multinomial rows with
        # each uniform set exactly on a per-step cumulative probability
        tree = SPECS[name]().tree
        p, binary = tree.p, tree.p == 2
        rng = np.random.default_rng(8)
        lagged = rng.standard_normal((600, 4))
        for k, u in enumerate(tree.leaves()):
            block = tree.block(u)
            width = block.h * tree.d
            if not width:
                continue
            alpha, bflat = block.alpha, block.beta.reshape(block.n_targets, -1)
            steps = [alpha + bflat @ lagged[r, :width] for r in range(600)]
            laws = [simulate._next_state_law(z, binary) for z in steps]
            if binary:
                uniforms = rng.random(600)
            else:
                on = rng.integers(0, p - 1, 600)
                uniforms = np.array([law[j] for law, j in zip(laws, on)])
            leaf = (k, alpha, bflat, width, None)
            rows = simulate._hot_block(leaf, lagged, uniforms, 100, 150, 600, binary)
            assert rows[:50] == [None] * 50
            if binary:
                assert rows[50:] == [float(z[0]) for z in steps[150:]]
            else:
                want = [min(bisect.bisect_right(law, v), p - 1)
                        for law, v in zip(laws[150:], uniforms[150:].tolist())]
                assert rows[50:] == want

    @pytest.mark.parametrize("w", range(1, 13))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stacked_matvec_is_the_per_row_matvec(self, w, k):
        # the premise of the block draw: a numpy or BLAS build that breaks it
        # would change generated streams silently
        rng = np.random.default_rng(100 * k + w)
        bflat = rng.standard_normal((k, w))
        rows = rng.standard_normal((500, 12))[:, :w]
        stacked = np.matmul(bflat, rows[:, :, np.newaxis])[:, :, 0]
        per_row = np.array([bflat @ row for row in rows])
        assert stacked.tobytes() == per_row.tobytes()


class TestExpRange:
    """A binary predictor below about -709.8 overflows ``math.exp(-z)``; its
    P(state 1) is 0.0, so the step gives state 0."""

    def test_fixed_law_leaf(self):
        data = generate(_root_only(alpha=-800.0), 500, seed=1)
        assert not data.states.any()

    def test_covariate_leaf_on_both_paths(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        total = simulate.BLOCK_ROWS
        data = generate(_two_leaves(alpha=0.0, beta=-900.0), total, seed=4, burn_in=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((total, 1))[:, 0].tolist()
        uniforms = rng.random(total).tolist()
        z = [0.0] + [-900.0 * v for v in x[:-1]]
        want = [
            0 if z[i] < -709.8 else int(uniforms[i] < 1.0 / (1.0 + math.exp(-z[i])))
            for i in range(total)
        ]
        assert data.states.tolist() == want
        # each leaf's first HOT_VISITS - 1 visits are per-step draws, and the
        # rest of the block is drawn hot; both see predictors below the range
        assert counter.cold == 2 * (simulate.HOT_VISITS - 1)
        assert sorted(counter.hot_leaves) == [0, 1]
        visits = {0: [], 1: []}
        for i in range(total):
            visits[want[i - 1] if i else 0].append(i)
        cold = {i for rows in visits.values() for i in rows[: simulate.HOT_VISITS - 1]}
        below = {i for i in range(total) if z[i] < -709.8}
        assert below & cold and below - cold


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"runs": 0}, "runs must be >= 1, got 0"),
        ({"runs": 2.5}, "runs must be an integer, got 2.5"),
        ({"runs": True}, "runs must be an integer, got True"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ({"base_seed": 0.5}, "base_seed must be an integer, got 0.5"),
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"burn_in": -1}, "burn_in must be >= 0, got -1"),
    ])
    def test_counts_and_seed_checked_before_any_run(self, monkeypatch, kwargs, message):
        # a bad argument is a usage error, not a study of failed runs
        def no_run(*args, **kw):
            raise AssertionError("generate called before the arguments were checked")

        monkeypatch.setattr(simulate, "generate", no_run)
        args = {"n": 100, "runs": 2, "base_seed": 0, "burn_in": 10} | kwargs
        with pytest.raises(DataError, match=message):
            monte_carlo(builtin_model("model1"), setting=FitConfig(), **args)

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
