"""Tests for the squares matrix S construction (repro.core.squares)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.squares import _plan, build_squares, squares_coo
from repro.errors import DimensionError
from repro.graph import Graph
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.permutation import check_structural_symmetry


def count_squares_bruteforce(
    a_graph: Graph, b_graph: Graph, ell: BipartiteGraph
) -> int:
    """O(|E_L|²) reference count of nnz(S)."""
    count = 0
    for e in range(ell.n_edges):
        i, ip = int(ell.edge_a[e]), int(ell.edge_b[e])
        for f in range(ell.n_edges):
            j, jp = int(ell.edge_a[f]), int(ell.edge_b[f])
            if a_graph.has_edge(i, j) and b_graph.has_edge(ip, jp):
                count += 1
    return count


def _rand_graph(rng, n, p_edge):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if rng.random() < p_edge]
    u, v = zip(*chosen) if chosen else ((), ())
    return Graph.from_edges(n, np.array(u, dtype=int), np.array(v, dtype=int))


def _random_problem(rng, n_a=6, n_b=6, p_edge=0.3, p_l=0.4):
    a = _rand_graph(rng, n_a, p_edge)
    b = _rand_graph(rng, n_b, p_edge)
    ea, eb = [], []
    for i in range(n_a):
        for j in range(n_b):
            if rng.random() < p_l:
                ea.append(i)
                eb.append(j)
    ell = BipartiteGraph.from_edges(
        n_a, n_b, np.array(ea, dtype=int), np.array(eb, dtype=int),
        rng.random(len(ea)),
    )
    return a, b, ell


def _a_hub_problem(rng, hub=0):
    """An A-hub whose neighbours carry few L edges, next to L-heavy columns.

    Rows on the hub are cheapest from A (join 1): the Cartesian block is
    ``deg_A(hub)·deg_B(i')`` and the B side's columns are crowded by the
    extra A vertices, which are not adjacent to the hub.
    """
    n_leaf, n_extra, n_b = 30, 30, 8
    n_a = 1 + n_leaf + n_extra
    others = np.array([v for v in range(n_a) if v != hub])
    leaves, extra = others[:n_leaf], others[n_leaf:]
    a_u = [hub] * n_leaf + [int(x) for x in extra[:-1]]
    a_v = [int(x) for x in leaves] + [int(x) for x in extra[1:]]
    a = Graph.from_edges(n_a, np.array(a_u), np.array(a_v))
    b = _rand_graph(rng, n_b, 0.5)
    ea = [hub] * n_b
    eb = list(range(n_b))
    for v in leaves:
        if rng.random() < 0.3:
            ea.append(int(v))
            eb.append(int(rng.integers(n_b)))
    for v in extra:
        for j in rng.choice(n_b, size=3, replace=False):
            ea.append(int(v))
            eb.append(int(j))
    ell = BipartiteGraph.from_edges(n_a, n_b, np.array(ea), np.array(eb),
                                    rng.random(len(ea)))
    return a, b, ell


def _swap_sides(a, b, ell):
    """The same instance with A and B exchanged (L transposed)."""
    return b, a, BipartiteGraph.from_edges(
        ell.n_b, ell.n_a, ell.edge_b, ell.edge_a, ell.weights)


def _joins(a, b, ell, upper):
    rows = np.arange(ell.n_edges, dtype=np.int64)
    _, _, _, _, join, cost = _plan(a, b, ell, rows, upper)
    return join[cost > 0]


def _assert_s_correct(a, b, ell):
    """S equals the definition; row subsets and chunking agree with it."""
    s = build_squares(a, b, ell)
    assert s.nnz == count_squares_bruteforce(a, b, ell)
    # Entry-level check against the definition.
    dense = s.to_dense()
    for e in range(ell.n_edges):
        for f in range(ell.n_edges):
            expected = float(
                a.has_edge(int(ell.edge_a[e]), int(ell.edge_a[f]))
                and b.has_edge(int(ell.edge_b[e]), int(ell.edge_b[f]))
            )
            assert dense[e, f] == expected
    tiny = build_squares(a, b, ell, chunk_pairs=1)
    for got, want in zip((tiny.indptr, tiny.indices, tiny.data),
                         (s.indptr, s.indices, s.data)):
        assert np.array_equal(got, want)
    _assert_rows_match(a, b, ell, s, np.arange(ell.n_edges))
    return s


def _assert_rows_match(a, b, ell, s, rows, **kwargs):
    """``squares_coo`` over ``rows`` yields exactly those rows of S."""
    r, c = squares_coo(a, b, ell, rows, **kwargs)
    got = sorted(zip(r.tolist(), c.tolist()))
    s_rows = s.row_of_nonzero()
    want_mask = np.isin(s_rows, rows)
    want = sorted(zip(s_rows[want_mask].tolist(),
                      s.indices[want_mask].tolist()))
    assert got == want


class TestSmallCases:
    def test_single_square(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        s = build_squares(a, b, ell)
        # edges (0,0) and (1,1) overlap: S has the symmetric pair.
        assert s.nnz == 2
        assert s.to_dense()[0, 1] == 1 and s.to_dense()[1, 0] == 1

    def test_no_squares_without_b_edge(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [], [])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        assert build_squares(a, b, ell).nnz == 0

    def test_empty_l(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [], [], [])
        s = build_squares(a, b, ell)
        assert s.shape == (0, 0)

    def test_dimension_mismatch(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(3, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0], [0], [1.0])
        with pytest.raises(DimensionError):
            build_squares(a, b, ell)
        with pytest.raises(DimensionError):
            squares_coo(a, b, ell)

    def test_values_are_ones(self, rng):
        a, b, ell = _random_problem(rng)
        s = build_squares(a, b, ell)
        if s.nnz:
            assert np.all(s.data == 1.0)

    def test_no_diagonal(self, rng):
        """An L edge never overlaps with itself (simple graphs)."""
        for _ in range(5):
            a, b, ell = _random_problem(rng)
            s = build_squares(a, b, ell)
            assert not np.any(s.row_of_nonzero() == s.indices)


class TestChunking:
    def test_chunk_size_invariance(self, rng):
        a, b, ell = _random_problem(rng, n_a=8, n_b=8)
        full = build_squares(a, b, ell)
        tiny_chunks = build_squares(a, b, ell, chunk_pairs=4)
        assert full.same_structure(tiny_chunks)

    def test_chunked_rows_match(self, rng):
        a, b, ell = _a_hub_problem(rng)
        s = build_squares(a, b, ell)
        for chunk_pairs in (1, 7, 1 << 22):
            _assert_rows_match(a, b, ell, s, np.arange(ell.n_edges),
                               chunk_pairs=chunk_pairs)


class TestJoins:
    """Instances on which each of the three joins expands some rows."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("hub", [0, 60])
    def test_a_hub_sparse_l_expands_from_a(self, seed, hub):
        a, b, ell = _a_hub_problem(np.random.default_rng(seed), hub)
        for upper in (False, True):
            assert 1 in _joins(a, b, ell, upper)
        _assert_s_correct(a, b, ell)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("hub", [0, 60])
    def test_b_hub_sparse_l_expands_from_b(self, seed, hub):
        a, b, ell = _swap_sides(
            *_a_hub_problem(np.random.default_rng(seed), hub))
        for upper in (False, True):
            assert 2 in _joins(a, b, ell, upper)
        _assert_s_correct(a, b, ell)

    @pytest.mark.parametrize("n", [3, 6])
    def test_dense_l_low_degree_is_cartesian(self, n):
        a = Graph.from_edges(n, np.arange(n), (np.arange(n) + 1) % n)
        b = Graph.from_edges(n + 1, np.arange(n), np.arange(1, n + 1))
        ea, eb = np.divmod(np.arange(n * (n + 1)), n + 1)
        ell = BipartiteGraph.from_edges(n, n + 1, ea, eb, 1.0)
        for upper in (False, True):
            joins = _joins(a, b, ell, upper)
            assert len(joins) and np.all(joins == 0)
        _assert_s_correct(a, b, ell)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_of_random_subsets(self, seed):
        rng = np.random.default_rng(seed)
        a, b, ell = _a_hub_problem(rng, hub=int(rng.integers(61)))
        if seed % 2:
            a, b, ell = _swap_sides(a, b, ell)
        s = build_squares(a, b, ell)
        for size in (0, 1, 5, ell.n_edges // 2):
            rows = np.sort(rng.choice(ell.n_edges, size=size, replace=False))
            _assert_rows_match(a, b, ell, s, rows)
            _assert_rows_match(a, b, ell, s, rows, chunk_pairs=1)


class TestDegenerate:
    def test_isolated_vertices(self):
        # A-vertex 3 and B-vertices 0 and 4 have no graph edges.
        a = Graph.from_edges(5, [0, 1, 2], [1, 2, 4])
        b = Graph.from_edges(5, [1, 2], [2, 3])
        ell = BipartiteGraph.from_edges(
            5, 5, [0, 1, 2, 3, 3, 4, 0], [1, 2, 3, 0, 4, 2, 0], 1.0)
        s = _assert_s_correct(a, b, ell)
        assert s.nnz > 0

    @pytest.mark.parametrize("n_a,n_b", [(0, 4), (4, 0), (0, 0)])
    def test_empty_vertex_set(self, n_a, n_b):
        a = Graph.from_edges(n_a, [], [])
        b = Graph.from_edges(n_b, [], [])
        ell = BipartiteGraph.from_edges(n_a, n_b, [], [], [])
        assert _assert_s_correct(a, b, ell).shape == (0, 0)

    def test_empty_graph_edges(self, rng):
        a = Graph.from_edges(4, [], [])
        b = _rand_graph(rng, 4, 0.8)
        ea, eb = np.divmod(np.arange(16), 4)
        ell = BipartiteGraph.from_edges(4, 4, ea, eb, 1.0)
        assert _assert_s_correct(a, b, ell).nnz == 0
        assert _assert_s_correct(b, a, ell).nnz == 0

    def test_empty_l_on_nonempty_graphs(self, rng):
        a = _rand_graph(rng, 5, 0.6)
        b = _rand_graph(rng, 5, 0.6)
        ell = BipartiteGraph.from_edges(5, 5, [], [], [])
        assert _assert_s_correct(a, b, ell).shape == (0, 0)

    def test_l_vertices_without_l_edges(self, rng):
        # Every vertex of A and B has graph edges; only half carry L edges.
        a = Graph.from_edges(8, np.arange(8), (np.arange(8) + 1) % 8)
        b = Graph.from_edges(8, np.arange(8), (np.arange(8) + 3) % 8)
        ell = BipartiteGraph.from_edges(
            8, 8, [0, 1, 1, 2, 3], [0, 1, 3, 4, 4], 1.0)
        _assert_s_correct(a, b, ell)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_bruteforce(seed):
    """Property: vectorized construction equals the O(m²) definition."""
    rng = np.random.default_rng(seed)
    _assert_s_correct(*_random_problem(rng, n_a=5, n_b=5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_structurally_symmetric(seed):
    """Property: S is structurally symmetric (undirected A, B)."""
    rng = np.random.default_rng(seed)
    a, b, ell = _random_problem(rng)
    s = build_squares(a, b, ell)
    assert check_structural_symmetry(s)
