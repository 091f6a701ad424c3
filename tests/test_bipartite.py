"""Tests for the bipartite graph L (repro.sparse.bipartite)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, ValidationError
from repro.sparse.bipartite import BipartiteGraph


def small() -> BipartiteGraph:
    return BipartiteGraph.from_edges(
        3, 2, [2, 0, 1, 0], [1, 0, 1, 1], [4.0, 1.0, 3.0, 2.0]
    )


class TestConstruction:
    def test_edges_sorted_row_major(self):
        g = small()
        keys = g.edge_a * g.n_b + g.edge_b
        assert np.all(np.diff(keys) > 0)

    def test_n_edges(self):
        assert small().n_edges == 4

    def test_dedup_max_default(self):
        g = BipartiteGraph.from_edges(1, 1, [0, 0], [0, 0], [1.0, 9.0])
        assert g.n_edges == 1
        assert g.weights[0] == 9.0

    def test_dedup_sum(self):
        g = BipartiteGraph.from_edges(
            1, 1, [0, 0], [0, 0], [1.0, 9.0], dedup="sum"
        )
        assert g.weights[0] == 10.0

    def test_dedup_first_is_input_order(self):
        g = BipartiteGraph.from_edges(
            1, 1, [0, 0], [0, 0], [5.0, 9.0], dedup="first"
        )
        assert g.weights[0] == 5.0

    def test_dedup_error(self):
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(
                1, 1, [0, 0], [0, 0], [1.0, 2.0], dedup="error"
            )

    def test_scalar_weight(self):
        g = BipartiteGraph.from_edges(2, 2, [0, 1], [1, 0], 1.0)
        assert np.array_equal(g.weights, [1.0, 1.0])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(2, 2, [5], [0], [1.0])
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(2, 2, [0], [5], [1.0])

    def test_direct_ctor_requires_sorted(self):
        with pytest.raises(ValidationError):
            BipartiteGraph(2, 2, [1, 0], [0, 0], [1.0, 1.0])

    def test_empty(self):
        g = BipartiteGraph.from_edges(3, 3, [], [], [])
        assert g.n_edges == 0
        assert np.array_equal(g.degrees_a(), [0, 0, 0])


class TestViews:
    def test_row_ptr_groups_by_a(self):
        g = small()
        for i in range(g.n_a):
            eids = g.edges_of_a(i)
            assert np.all(g.edge_a[eids] == i)

    def test_col_view_groups_by_b(self):
        g = small()
        for j in range(g.n_b):
            eids = g.edges_of_b(j)
            assert np.all(g.edge_b[eids] == j)

    def test_col_perm_is_permutation(self):
        g = small()
        assert np.array_equal(np.sort(g.col_perm), np.arange(g.n_edges))

    def test_degrees_sum_to_edges(self):
        g = small()
        assert g.degrees_a().sum() == g.n_edges
        assert g.degrees_b().sum() == g.n_edges

    def test_lookup_edges_hits(self):
        g = small()
        eids = g.lookup_edges(g.edge_a, g.edge_b)
        assert np.array_equal(eids, np.arange(g.n_edges))

    def test_lookup_edges_misses(self):
        g = small()
        eids = g.lookup_edges([2], [0])
        assert eids[0] == -1

    def test_lookup_on_empty_graph(self):
        g = BipartiteGraph.from_edges(2, 2, [], [], [])
        assert g.lookup_edges([0], [0])[0] == -1

    def test_lookup_out_of_range_is_absent(self):
        # Keys a * n_b + b of these probes equal the key of edge (1, 1).
        g = BipartiteGraph.from_edges(3, 3, [0, 1, 2], [0, 1, 2], 1.0)
        assert g.lookup_edges([1], [1])[0] == 1
        eids = g.lookup_edges([0, 2, -1, 3, 1], [4, -2, 4, -2, 3])
        assert np.all(eids == -1)

    def test_keys_cached_and_sorted(self):
        g = small()
        assert np.array_equal(g.keys, g.edge_a * g.n_b + g.edge_b)
        assert np.all(np.diff(g.keys) > 0)
        assert g.with_weights(g.weights * 2).keys is g.keys


class TestGeneralGraph:
    def test_shapes(self):
        g = small()
        indptr, neighbors, half_eid, half_w = g.as_general_graph()
        assert len(indptr) == g.n_a + g.n_b + 1
        assert len(neighbors) == 2 * g.n_edges
        assert len(half_eid) == 2 * g.n_edges

    def test_each_edge_appears_twice(self):
        g = small()
        _, _, half_eid, _ = g.as_general_graph()
        counts = np.bincount(half_eid, minlength=g.n_edges)
        assert np.all(counts == 2)

    def test_weights_match_eids(self):
        g = small()
        _, _, half_eid, half_w = g.as_general_graph()
        assert np.allclose(half_w, g.weights[half_eid])

    def test_adjacency_consistent(self):
        g = small()
        indptr, neighbors, half_eid, _ = g.as_general_graph()
        for a in range(g.n_a):
            nbrs = neighbors[indptr[a] : indptr[a + 1]]
            assert np.array_equal(
                np.sort(nbrs - g.n_a), np.sort(g.edge_b[g.edges_of_a(a)])
            )


class TestDerivedGraphs:
    def test_subgraph(self):
        g = small()
        mask = g.weights > 2.0
        sub = g.subgraph(mask)
        assert sub.n_edges == int(mask.sum())
        assert sub.n_a == g.n_a and sub.n_b == g.n_b

    def test_subgraph_wrong_mask(self):
        with pytest.raises(DimensionError):
            small().subgraph(np.ones(2, dtype=bool))

    def test_with_weights_view_shares_structure(self):
        g = small()
        w2 = g.weights * 2
        g2 = g.with_weights(w2)
        assert g2.row_ptr is g.row_ptr
        assert np.array_equal(g2.weights, w2)

    def test_with_weights_wrong_length(self):
        with pytest.raises(DimensionError):
            small().with_weights(np.ones(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100000))
def test_views_consistent_random(seed):
    """Property: row and column views partition the same edge-id set."""
    rng = np.random.default_rng(seed)
    n_a, n_b = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    m = int(rng.integers(0, 25))
    g = BipartiteGraph.from_edges(
        n_a, n_b, rng.integers(0, n_a, m), rng.integers(0, n_b, m),
        rng.random(m),
    )
    seen = np.concatenate([g.edges_of_a(i) for i in range(n_a)]) if g.n_edges else np.array([])
    assert np.array_equal(np.sort(seen), np.arange(g.n_edges))
    seen_b = np.concatenate([g.edges_of_b(j) for j in range(n_b)]) if g.n_edges else np.array([])
    assert np.array_equal(np.sort(seen_b), np.arange(g.n_edges))
