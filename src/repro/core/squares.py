"""Construction of the squares matrix **S** (paper §II).

``S`` is |E_L|-by-|E_L|; ``S[(i,i'), (j,j')] = 1`` exactly when ``(i, j)``
is an edge of A and ``(i', j')`` is an edge of B.  Each nonzero therefore
witnesses a *square* ``i–j`` / ``i'–j'`` / the two L edges, i.e. a
potential overlapped edge pair.  ``S`` is structurally symmetric and
0/1-valued, and its row distribution is highly irregular (the paper's
motivation for dynamic loop scheduling).

The partners ``f = (j, j')`` of an L edge ``e = (i, i')`` can be reached
from any side of the square, so each row is expanded by the cheapest of
three exact joins.  Each join's cost, the number of candidates it probes,
is known before any candidate is formed:

0. *Cartesian*: every pair of ``N_A(i) × N_B(i')`` is looked up among
   L's sorted edge keys; ``deg_A(i)·deg_B(i')`` probes.
1. *From A*: the L edges of every ``j ∈ N_A(i)`` (a contiguous range of
   L's row view), keeping those whose ``(i', j')`` is among B's sorted
   adjacency keys; ``Σ_{j ∈ N_A(i)} deg_L(j)`` probes.
2. *From B*: the L edges of every ``j' ∈ N_B(i')`` (L's column view),
   keeping those whose ``(i, j)`` is among A's adjacency keys;
   ``Σ_{j' ∈ N_B(i')} deg_Lᵀ(j')`` probes.

On power-law graphs with a sparse L the Cartesian blocks of hub vertices
dominate the probe count, and joins 1 and 2 avoid them.
:func:`build_squares` expands only the partners with ``j > i`` (a suffix
of each sorted adjacency or column range) and mirrors them, since ``S``
is symmetric.  Rows are expanded in chunks of bounded probe count, which
bounds peak memory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.graph.graph import Graph
from repro.sparse.bipartite import BipartiteGraph, find_sorted
from repro.sparse.build import coo_to_csr
from repro.sparse.csr import CSRMatrix

__all__ = ["build_squares", "squares_coo"]

_EMPTY = np.empty(0, dtype=np.int64)


def _ranges(starts: np.ndarray, lengths: np.ndarray):
    """Flatten the ranges ``[starts[k], starts[k] + lengths[k])``.

    Returns ``(owner, pos)``: the range index ``k`` and the position of
    every element, in range order.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    owner = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    pos = np.arange(total, dtype=np.int64) + (starts - ends + lengths)[owner]
    return owner, pos


def _adjacency_keys(g: Graph) -> np.ndarray:
    """Sorted ``u * n + v`` keys of every adjacency entry of ``g``."""
    heads = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
    return heads * g.n + g.adj


def _plan(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    row_ids: np.ndarray,
    upper: bool,
):
    """Adjacency ranges of the L edges ``row_ids`` and their cheapest join.

    Returns ``(a_start, a_len, b_start, b_len, join, cost)`` per row: the
    range of ``i``'s A-neighbours in ``a_graph.adj`` (only ``j > i`` when
    ``upper``), the range of ``i'``'s B-neighbours in ``b_graph.adj``, the
    join (0, 1 or 2, see the module docstring) and its probe count.
    """
    a_ptr, b_ptr = a_graph.indptr, b_graph.indptr
    ei, eip = ell.edge_a[row_ids], ell.edge_b[row_ids]
    if upper:
        # First neighbour j > i (simple graphs have no j == i).
        a_start = np.searchsorted(_adjacency_keys(a_graph),
                                  ei * a_graph.n + ei)
    else:
        a_start = a_ptr[ei]
    a_len = a_ptr[ei + 1] - a_start
    b_start, b_len = b_ptr[eip], b_ptr[eip + 1] - b_ptr[eip]
    # Segment sums of the L degrees over each adjacency range.
    cum_a = np.concatenate([[0], np.cumsum(ell.degrees_a()[a_graph.adj])])
    cum_b = np.concatenate([[0], np.cumsum(ell.degrees_b()[b_graph.adj])])
    # Join 2's cost counts whole columns; with ``upper`` it probes only
    # their ``j > i`` suffixes, so there the cost is an upper bound.
    costs = np.stack([
        a_len * b_len,
        cum_a[a_start + a_len] - cum_a[a_start],
        cum_b[b_start + b_len] - cum_b[b_start],
    ])
    join = np.argmin(costs, axis=0)
    cost = costs[join, np.arange(len(row_ids))]
    return a_start, a_len, b_start, b_len, join, cost


def _expand(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    row_ids: np.ndarray,
    upper: bool,
    chunk_pairs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """COO ``(rows, cols)`` of the squares of the L edges ``row_ids``.

    With ``upper`` only the partners ``f`` with ``edge_a[f] > edge_a[e]``
    are produced; otherwise whole rows.
    """
    n_a, n_b = a_graph.n, b_graph.n
    a_adj, b_adj = a_graph.adj, b_graph.adj
    row_ptr, col_ptr, col_perm = ell.row_ptr, ell.col_ptr, ell.col_perm
    ei, eip = ell.edge_a[row_ids], ell.edge_b[row_ids]
    a_start, a_len, b_start, b_len, join, cost = _plan(
        a_graph, b_graph, ell, row_ids, upper)
    if (join == 1).any():
        b_keys = _adjacency_keys(b_graph)
    if (join == 2).any():
        a_keys = _adjacency_keys(a_graph)
        if upper:
            col_keys = ell.edge_b[col_perm] * n_a + ell.edge_a[col_perm]

    # Each join maps row positions ``k`` to ``(k, f)`` per square found.
    def cartesian(k):
        owner, off = _ranges(np.zeros(len(k), dtype=np.int64),
                             a_len[k] * b_len[k])
        width = b_len[k][owner]
        j = a_adj[a_start[k][owner] + off // width]
        jp = b_adj[b_start[k][owner] + off % width]
        f = find_sorted(ell.keys, j * n_b + jp)
        hit = f >= 0
        return k[owner[hit]], f[hit]

    def from_a(k):
        owner, pa = _ranges(a_start[k], a_len[k])
        j = a_adj[pa]
        o2, f = _ranges(row_ptr[j], row_ptr[j + 1] - row_ptr[j])
        k2 = k[owner[o2]]
        hit = find_sorted(b_keys, eip[k2] * n_b + ell.edge_b[f]) >= 0
        return k2[hit], f[hit]

    def from_b(k):
        owner, pb = _ranges(b_start[k], b_len[k])
        jp = b_adj[pb]
        k1 = k[owner]
        if upper:
            lo = np.searchsorted(col_keys, jp * n_a + ei[k1], side="right")
        else:
            lo = col_ptr[jp]
        o2, pc = _ranges(lo, col_ptr[jp + 1] - lo)
        f = col_perm[pc]
        k2 = k1[o2]
        hit = find_sorted(a_keys, ei[k2] * n_a + ell.edge_a[f]) >= 0
        return k2[hit], f[hit]

    rows_out, cols_out = [_EMPTY], [_EMPTY]
    for which, run in enumerate((cartesian, from_a, from_b)):
        k = np.flatnonzero((join == which) & (cost > 0))
        cum = np.cumsum(cost[k])
        start = 0
        while start < len(k):
            # Greedy chunks of at most ``chunk_pairs`` probes; a costlier
            # row forms a chunk of its own.
            base = cum[start - 1] if start else 0
            stop = max(int(np.searchsorted(cum, base + chunk_pairs, "right")),
                       start + 1)
            rows, cols = run(k[start:stop])
            rows_out.append(row_ids[rows])
            cols_out.append(cols)
            start = stop
    return np.concatenate(rows_out), np.concatenate(cols_out)


def _check_dims(a_graph: Graph, b_graph: Graph, ell: BipartiteGraph) -> None:
    if a_graph.n != ell.n_a or b_graph.n != ell.n_b:
        raise DimensionError(
            "L vertex sets do not match A and B "
            f"({ell.n_a}/{a_graph.n}, {ell.n_b}/{b_graph.n})"
        )


def squares_coo(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    row_ids: np.ndarray | None = None,
    *,
    chunk_pairs: int = 1 << 22,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand the squares of a set of L edges to COO ``(rows, cols)``.

    For each L edge ``e`` in ``row_ids`` (all edges when ``None``) this
    yields one ``(e, f)`` pair per square, i.e. the whole row ``e`` of
    **S**, in no particular order.  The incremental delta path
    (:mod:`repro.incremental`) runs it over just the dirty rows of a
    perturbed problem.
    """
    _check_dims(a_graph, b_graph, ell)
    if row_ids is None:
        row_ids = np.arange(ell.n_edges, dtype=np.int64)
    else:
        row_ids = np.asarray(row_ids, dtype=np.int64)
    return _expand(a_graph, b_graph, ell, row_ids, False, chunk_pairs)


def build_squares(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    *,
    chunk_pairs: int = 1 << 22,
) -> CSRMatrix:
    """Build **S** for the alignment instance ``(A, B, L)``.

    Parameters
    ----------
    a_graph, b_graph:
        The two undirected input graphs.
    ell:
        The candidate-match graph L; rows/cols of **S** are its edges.
    chunk_pairs:
        Upper bound on the number of candidates probed at once (memory
        knob; the result is identical for any value).
    """
    _check_dims(a_graph, b_graph, ell)
    m = ell.n_edges
    rows, cols = _expand(a_graph, b_graph, ell,
                         np.arange(m, dtype=np.int64), True, chunk_pairs)
    # Each (e, f) pair is produced at most once, so "error" dedup doubles
    # as a structural sanity check.
    return coo_to_csr(np.concatenate([rows, cols]),
                      np.concatenate([cols, rows]), 1.0, (m, m),
                      dedup="error")
