import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlmcx
from vlmcx import ContextTree, Dataset, ParamBlock, glm
from vlmcx.core import ROOT, HistoryIndex, context_label, count_occurrences
from vlmcx.errors import (
    ChildrenNotLeaves,
    DataError,
    HistoryTooShort,
    MalformedModel,
    RootHasNoSiblings,
)

from conftest import context_rows, lagged_design


def leaf_block(alpha=0.0, beta_rows=()):
    return ParamBlock.binary(alpha, np.asarray(beta_rows, dtype=float).reshape(-1, 1))


def small_tree():
    """Leaves 00, 01, 1 with h = 2, 1, 0."""
    return ContextTree(
        p=2,
        d=1,
        nodes={
            ROOT: None,
            (0,): None,
            (1,): leaf_block(-1.0),
            (0, 0): leaf_block(0.1, [2.0, 0.5]),
            (0, 1): leaf_block(0.25, [-1.0]),
        },
    )


class TestContextLabel:
    def test_root(self):
        assert context_label(()) == "<root>"

    def test_reverse_time_order(self):
        assert context_label((1, 0, 0)) == "1,0,0"


class TestParamBlock:
    def test_binary_shapes(self):
        b = ParamBlock.binary(0.5, [1.0, 2.0])
        assert (b.p, b.h, b.d) == (2, 2, 1)
        assert b.alpha.tolist() == [0.5]
        assert b.beta.shape == (1, 2, 1)

    def test_trailing_zero_lags_trimmed(self):
        b = ParamBlock.binary(2.0, [1.5, 2.0, 0.0, 0.0])
        assert b.h == 2
        assert b.beta[0, :, 0].tolist() == [1.5, 2.0]

    def test_interior_zero_rows_kept(self):
        b = ParamBlock.binary(0.0, [1.0, 0.0, 3.0])
        assert b.h == 3

    def test_all_zero_beta_becomes_h0(self):
        b = ParamBlock.binary(0.3, [0.0, 0.0])
        assert b.h == 0
        assert b.beta.shape == (1, 0, 1)

    def test_arrays_read_only(self):
        b = ParamBlock.binary(0.0, [1.0])
        with pytest.raises(ValueError):
            b.alpha[0] = 9.0
        with pytest.raises(ValueError):
            b.beta[0, 0, 0] = 9.0

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 3)),
        data=st.data(),
    )
    def test_checks_match_the_numpy_rules(self, shape, data):
        # mostly zeros, so trailing lag rows of ±0.0 are common
        value = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 5e-324, math.nan, math.inf, -math.inf])
        k, h, d = shape
        alpha = np.array(data.draw(st.lists(value, min_size=k, max_size=k)))
        beta = np.array(data.draw(st.lists(value, min_size=k * h * d, max_size=k * h * d)))
        beta = beta.reshape(k, h, d)
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            with pytest.raises(MalformedModel, match="^coefficients must be finite$"):
                ParamBlock(alpha=alpha, beta=beta)
            return
        want = beta
        while want.shape[1] > 0 and not want[:, -1, :].any():
            want = want[:, :-1, :]
        block = ParamBlock(alpha=alpha, beta=beta)
        assert block.alpha.tobytes() == alpha.tobytes()
        assert block.beta.shape == want.shape
        assert block.beta.tobytes() == want.tobytes()
        for stored, source in ((block.alpha, alpha), (block.beta, beta)):
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, source)

    def test_truncated(self):
        b = ParamBlock.binary(0.0, [1.0, 2.0, 3.0])
        t = b.truncated(1)
        assert t.h == 1 and t.beta[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            b.truncated(4)

    def test_equality_is_by_value_and_shape(self):
        a = ParamBlock.binary(0.0, [1.0])
        b = ParamBlock.binary(0.0, [1.0])
        c = ParamBlock.binary(0.0, [1.0, 2.0])
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            ([], np.zeros((0, 1, 1)), "alpha must be a non-empty vector"),
            ([[0.1]], np.zeros((1, 1, 1)), "alpha must be a non-empty vector"),
            ([0.1], np.zeros((1, 1)), r"beta must have shape \(p - 1, h, d\)"),
            ([0.1, 0.2], np.zeros((1, 1, 1)), "beta has 1 target rows, alpha has 2"),
            ([float("nan")], np.ones((1, 1, 1)), "coefficients must be finite"),
            ([0.1], [[[1.0], [float("inf")]]], "coefficients must be finite"),
        ],
        ids=["empty_alpha", "matrix_alpha", "beta_not_3d", "target_count", "nan_alpha", "inf_beta"],
    )
    def test_malformed_rejected(self, alpha, beta, message):
        with pytest.raises(MalformedModel, match=f"^{message}$"):
            ParamBlock(alpha=alpha, beta=beta)

    def test_scalar_alpha_is_a_one_vector(self):
        b = ParamBlock(alpha=0.5, beta=np.zeros((1, 0, 2)))
        assert b.alpha.shape == (1,) and b.alpha.tolist() == [0.5]
        assert (b.p, b.h, b.d) == (2, 0, 2)


class TestContextTreeValidation:
    def test_prefix_closure_required(self):
        with pytest.raises(MalformedModel):
            ContextTree(p=2, d=1, nodes={ROOT: None, (0, 0): leaf_block()})

    def test_symbols_below_p(self):
        with pytest.raises(MalformedModel):
            ContextTree(p=2, d=1, nodes={ROOT: None, (2,): leaf_block()})

    def test_blocks_only_on_leaves(self):
        with pytest.raises(MalformedModel):
            ContextTree(
                p=2,
                d=1,
                nodes={ROOT: None, (0,): leaf_block(), (0, 0): leaf_block(), (1,): leaf_block()},
            )

    def test_h_bounded_by_depth(self):
        with pytest.raises(MalformedModel):
            ContextTree(p=2, d=1, nodes={ROOT: None, (0,): leaf_block(0.0, [1.0, 1.0]), (1,): leaf_block()})

    def test_root_only_tree(self):
        t = ContextTree(p=2, d=1, nodes={ROOT: leaf_block(0.0)})
        assert t.order == 0
        assert t.leaves() == [ROOT]


class TestTreeQueries:
    def test_leaves_internal_split(self):
        t = small_tree()
        assert t.leaves() == [(0, 0), (0, 1), (1,)]
        assert t.is_leaf((0, 1))
        assert not t.is_leaf((0,))

    def test_order_and_covariate_order(self):
        t = small_tree()
        assert t.order == 2
        assert t.covariate_order == 2

    def test_lookup_walks_most_recent_first(self):
        t = small_tree()
        assert t.lookup([0, 1, 1, 0]) == (0, 1)
        assert t.lookup([1, 0, 0]) == (1,)

    def test_lookup_needs_enough_history(self):
        with pytest.raises(HistoryTooShort):
            small_tree().lookup([0])

    def test_siblings(self):
        t = small_tree()
        assert t.siblings((0, 0)) == [(0, 1)]
        with pytest.raises(RootHasNoSiblings):
            t.siblings(ROOT)

    def test_block_access(self):
        t = small_tree()
        assert t.block((1,)).alpha[0] == -1.0
        with pytest.raises(MalformedModel):
            t.block((0,))


class TestStructuralEdits:
    def test_merge_leaves(self):
        t = small_tree()
        merged = t.merge_leaves((0,))
        assert merged.leaves() == [(0,), (1,)]
        assert merged.nodes[(0,)] is None
        # the original is untouched
        assert t.leaves() == [(0, 0), (0, 1), (1,)]

    def test_merge_requires_leaf_children(self):
        t = ContextTree(
            p=2,
            d=1,
            nodes={
                ROOT: None,
                (0,): None,
                (1,): leaf_block(),
                (0, 0): None,
                (0, 1): leaf_block(),
                (0, 0, 0): leaf_block(),
                (0, 0, 1): leaf_block(),
            },
        )
        with pytest.raises(ChildrenNotLeaves):
            t.merge_leaves(ROOT)
        assert t.merge_leaves((0, 0)).is_leaf((0, 0))

    def test_merge_then_resplit_is_identity_on_structure(self):
        t = small_tree()
        merged = t.merge_leaves((0,))
        nodes = dict(merged.nodes)
        nodes[(0,)] = None
        nodes[(0, 0)] = t.nodes[(0, 0)]
        nodes[(0, 1)] = t.nodes[(0, 1)]
        resplit = ContextTree(p=2, d=1, nodes=nodes)
        assert resplit.same_structure(t)

    def test_with_block(self):
        t = small_tree()
        new = t.with_block((1,), leaf_block(3.0))
        assert new.block((1,)).alpha[0] == 3.0
        assert t.block((1,)).alpha[0] == -1.0
        with pytest.raises(MalformedModel):
            t.with_block((0,), leaf_block())


class TestSerialization:
    def test_round_trip_preserves_structure_and_values(self):
        t = small_tree()
        back = ContextTree.parse(t.serialize())
        assert back.same_structure(t)
        for u in t.leaves():
            assert back.block(u) == t.block(u)

    def test_serialization_is_byte_deterministic(self):
        t = small_tree()
        assert t.serialize() == t.serialize()
        shuffled = ContextTree(p=2, d=1, nodes=dict(reversed(list(t.nodes.items()))))
        assert shuffled.serialize() == t.serialize()

    def test_schema_fields(self):
        doc = json.loads(small_tree().serialize())
        assert set(doc) == {"p", "d", "leaves"}
        assert [leaf["context"] for leaf in doc["leaves"]] == [[0, 0], [0, 1], [1]]

    def test_unfitted_leaf_cannot_serialize(self):
        t = ContextTree(p=2, d=1, nodes={ROOT: None, (0,): None, (1,): leaf_block()})
        with pytest.raises(MalformedModel):
            t.serialize()

    def test_serialized_bytes(self):
        multi = ContextTree(
            p=3,
            d=2,
            nodes={
                ROOT: None,
                (0,): ParamBlock(alpha=[-0.0, 1e-300], beta=[[[0.1, -0.0]], [[2.5e10, 0.0]]]),
                (1,): ParamBlock(alpha=[0.5, -1 / 3], beta=np.zeros((2, 0, 2))),
                (2,): ParamBlock(alpha=[1.0, 2.0], beta=np.zeros((2, 1, 2))),
            },
        )
        assert small_tree().serialize() == (
            '{"p":2,"d":1,"leaves":[{"context":[0,0],"alpha":[0.1],"beta":[[[2.0],[0.5]]]},'
            '{"context":[0,1],"alpha":[0.25],"beta":[[[-1.0]]]},'
            '{"context":[1],"alpha":[-1.0],"beta":[[]]}]}'
        )
        assert multi.serialize() == (
            '{"p":3,"d":2,"leaves":[{"context":[0],"alpha":[-0.0,1e-300],'
            '"beta":[[[0.1,-0.0]],[[25000000000.0,0.0]]]},'
            '{"context":[1],"alpha":[0.5,-0.3333333333333333],"beta":[[],[]]},'
            '{"context":[2],"alpha":[1.0,2.0],"beta":[[],[]]}]}'
        )
        for tree in (small_tree(), multi):
            assert json.loads(tree.serialize()) == tree.to_dict()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("p"),
            lambda d: d["leaves"].append(d["leaves"][0]),
            lambda d: d["leaves"][0].update(context=[0]),  # ancestor of leaf 0,1
            lambda d: d["leaves"][0].update(context=[5, 0]),
            lambda d: d["leaves"][0].update(alpha=[]),
            lambda d: d["leaves"][0].update(beta=[[[1.0], [1.0], [1.0]]]),  # h > depth
            # leaf 0 listed after its descendants 0,0 and 0,1
            lambda d: d["leaves"].append({**d["leaves"][2], "context": [0]}),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = json.loads(small_tree().serialize())
        mutate(doc)
        with pytest.raises(MalformedModel):
            ContextTree.parse(json.dumps(doc))

    @pytest.mark.parametrize("where", [0, 3])
    def test_ancestor_leaf_rejected_in_either_order(self, where):
        doc = json.loads(small_tree().serialize())
        doc["leaves"].insert(where, {**doc["leaves"][2], "context": [0]})
        with pytest.raises(MalformedModel, match="^internal node 0 carries parameters$"):
            ContextTree.parse(json.dumps(doc))

    def test_parse_rejects_non_json(self):
        with pytest.raises(MalformedModel):
            ContextTree.parse("not json at all {")


class TestDataset:
    def test_basic_properties(self):
        d = Dataset(states=np.array([0, 1, 0]), covariates=np.zeros((3, 2)))
        assert (d.n, d.d) == (3, 2)
        assert d.states.dtype == np.int64

    def test_one_dimensional_covariates_promoted(self):
        d = Dataset(states=np.array([0, 1]), covariates=np.array([0.5, -0.5]))
        assert d.covariates.shape == (2, 1)

    def test_read_only(self):
        d = Dataset(states=np.array([0, 1]), covariates=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            d.states[0] = 1

    @pytest.mark.parametrize(
        "states, cov",
        [
            (np.array([0, -1]), np.zeros((2, 1))),
            (np.array([0.5, 1.0]), np.zeros((2, 1))),
            (np.array([0, 1]), np.zeros((3, 1))),
            (np.array([0, 1]), np.array([[np.inf], [0.0]])),
            (np.array([], dtype=np.int64), np.zeros((0, 1))),
        ],
    )
    def test_invalid_inputs(self, states, cov):
        with pytest.raises(DataError):
            Dataset(states=states, covariates=cov)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30, 2.0**63])
    def test_non_integer_float_states_rejected_before_the_cast(self, bad):
        # casting these to int64 warns, which must not pre-empt the DataError
        with pytest.raises(DataError, match="^states must be integers$"):
            Dataset(states=[0, bad, 1], covariates=np.zeros((3, 1)))


def brute_count(states, v):
    ell = len(v)
    if ell == 0:
        return len(states)
    hits = 0
    for i in range(ell - 1, len(states)):
        if all(states[i - j] == v[j] for j in range(ell)):
            hits += 1
    return hits


class TestCountOccurrences:
    def test_hand_example(self):
        d = Dataset(states=np.array([0, 0, 1, 0, 0, 1, 1]), covariates=np.zeros((7, 0)))
        assert count_occurrences(d, ()) == 7
        assert count_occurrences(d, (0,)) == 4
        assert count_occurrences(d, (1, 0)) == 2  # ..0,1 at positions 2 and 5
        assert count_occurrences(d, (0, 0)) == 2
        assert count_occurrences(d, (1, 1, 0, 1, 0, 0, 0)) == 0

    def test_window_longer_than_data(self):
        d = Dataset(states=np.array([0, 1]), covariates=np.zeros((2, 0)))
        assert count_occurrences(d, (0, 1, 0)) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(st.integers(0, 2), min_size=1, max_size=40),
        v=st.lists(st.integers(0, 2), min_size=0, max_size=5),
    )
    def test_matches_brute_force(self, states, v):
        d = Dataset(states=np.array(states), covariates=np.zeros((len(states), 0)))
        assert count_occurrences(d, tuple(v)) == brute_count(states, tuple(v))

    @settings(max_examples=50, deadline=None)
    @given(
        states=st.lists(st.integers(0, 1), min_size=2, max_size=60),
        v=st.lists(st.integers(0, 1), min_size=0, max_size=4),
    )
    def test_extension_sum_differs_only_at_the_boundary(self, states, v):
        d = Dataset(states=np.array(states), covariates=np.zeros((len(states), 0)))
        total = sum(count_occurrences(d, tuple(v) + (w,)) for w in (0, 1))
        gap = count_occurrences(d, tuple(v)) - total
        assert 0 <= gap <= len(v) + 1


class TestHistoryIndex:
    @settings(max_examples=150, deadline=None)
    @given(draw=st.data(), p=st.sampled_from([2, 3, 4]), d=st.integers(0, 2))
    def test_matches_the_scans(self, draw, p, d):
        states = draw.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=50))
        n = len(states)
        u = tuple(draw.draw(st.lists(st.integers(0, p - 1), max_size=5)))
        start = draw.draw(st.integers(len(u), max(len(u), n + 1)))
        stop = draw.draw(st.none() | st.integers(start, max(start, n + 1)))
        cov = np.random.default_rng(n * 7 + d).normal(size=(n, d))
        data = Dataset(states=np.array(states), covariates=cov)
        index = HistoryIndex(data)

        rows = index.rows(u, start, stop)
        want = context_rows(data, u, start, stop)
        assert rows.dtype == want.dtype
        np.testing.assert_array_equal(rows, want)
        # every window, the one that ends at t = n included
        if u:
            assert index.rows(u, len(u), n + 1).size == brute_count(states, u)
        counts = index.child_counts([u], p)
        assert counts.tolist() == [[brute_count(states, u + (w,)) for w in range(p)]]

        rows = rows[rows < n]
        h = draw.draw(st.integers(0, len(u)))
        X = glm._design(index, u, rows, h, p).X
        want = lagged_design(data, rows, h)
        assert X.dtype == want.dtype and X.flags.c_contiguous
        np.testing.assert_array_equal(X, want)

    def test_shallow_gather_after_a_deep_one(self):
        data = Dataset(states=[0, 1, 1, 0, 1, 0], covariates=np.arange(12.0).reshape(6, 2))
        index = HistoryIndex(data)
        rows = index.rows((1, 0), 2)
        deep = glm._design(index, (1, 0), rows, 2, 2).X
        shallow = glm._design(index, (1, 0), rows, 1, 2).X
        np.testing.assert_array_equal(deep[:, :3], shallow)
        assert shallow.shape == (rows.size, 3) and shallow.flags.c_contiguous


class TestPublicSurface:
    def test_version_string(self):
        assert vlmcx.__version__.count(".") == 2

    def test_reexports(self):
        for name in ("fit", "select_tuning", "generate", "monte_carlo", "builtin_model"):
            assert hasattr(vlmcx, name)
