"""CSR graph representation, validation, symmetric normalization, and the
sparse row-aggregation kernels shared by the graph models.

``normalize_adjacency`` returns the self-looped, normalized adjacency as a
``scipy.sparse.csr_array``: both graph models aggregate over its pattern.
``segment_sum`` and ``spmm`` run as CSR-times-dense products;
``segment_max`` stays on ``np.maximum.reduceat``.

Feature matrices are plain 2-D float arrays (rows = nodes); node labels are
1-D integer arrays. Everything here is immutable after construction and safe
to share across workers.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array


class GraphFormatError(ValueError):
    """A CSR structure violates the graph invariants."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form.

    ``row_offsets`` has length num_nodes+1; ``col_indices`` holds the
    neighbors of node i in ``col_indices[row_offsets[i]:row_offsets[i+1]]``,
    sorted ascending. Edges are stored in both directions.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def num_edges(self) -> int:
        """Stored directed entries (twice the undirected edge count)."""
        return int(self.col_indices.shape[0])


def _csr_from_pairs(num_nodes: int, rows: np.ndarray, cols: np.ndarray):
    """Deduplicated CSR arrays from parallel (row, col) index arrays."""
    if rows.size:
        keys = np.unique(rows.astype(np.int64) * num_nodes + cols.astype(np.int64))
        rows = keys // num_nodes
        cols = keys % num_nodes
    counts = np.bincount(rows, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, cols.astype(np.int64)


def from_edge_list(num_nodes: int, edges) -> Graph:
    """Build a Graph from (i, j) pairs.

    Input edges are symmetrized and deduplicated; self loops are dropped
    (normalization re-adds them uniformly). Out-of-range endpoints raise.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError("edge list must be pairs of node ids")
    if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
        raise GraphFormatError("edge endpoint out of range")
    arr = arr[arr[:, 0] != arr[:, 1]]
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    offsets, cols = _csr_from_pairs(num_nodes, rows, cols)
    return Graph(num_nodes, offsets, cols)


def edge_rows(g) -> np.ndarray:
    """Per-entry row index (the CSR expansion of row_offsets)."""
    return np.repeat(
        np.arange(g.num_nodes, dtype=np.int64), np.diff(g.row_offsets)
    )


def validate_graph(g: Graph) -> None:
    """Full CSR validation: offsets, bounds, per-row order, symmetry."""
    off, col, n = np.asarray(g.row_offsets), np.asarray(g.col_indices), g.num_nodes
    if off.shape != (n + 1,):
        raise GraphFormatError(f"row_offsets must have length {n + 1}")
    if off[0] != 0 or off[-1] != col.shape[0]:
        raise GraphFormatError("row_offsets must start at 0 and end at nnz")
    if np.any(np.diff(off) < 0):
        raise GraphFormatError("row_offsets must be non-decreasing")
    if col.size and (col.min() < 0 or col.max() >= n):
        raise GraphFormatError("column index out of range")
    rows = edge_rows(g)
    same_row = rows[1:] == rows[:-1]
    if np.any(same_row & (np.diff(col) <= 0)):
        raise GraphFormatError("columns must be strictly increasing within a row")
    keys = rows * n + col
    swapped = np.sort(col * n + rows)
    if not np.array_equal(keys, swapped):  # keys already sorted by construction
        raise GraphFormatError("adjacency is not symmetric")


def with_self_loops(g: Graph) -> Graph:
    """The graph with every (i, i) entry present (deduplicated)."""
    n = g.num_nodes
    rows = np.concatenate([edge_rows(g), np.arange(n, dtype=np.int64)])
    cols = np.concatenate([g.col_indices, np.arange(n, dtype=np.int64)])
    offsets, cols = _csr_from_pairs(n, rows, cols)
    return Graph(n, offsets, cols)


def normalize_adjacency(g: Graph) -> csr_array:
    """D^{-1/2} (A+I) D^{-1/2}: weight(i, j) = 1 / sqrt(deg(i) * deg(j)).

    The degrees count A+I rows, so an isolated node keeps a self-weight of
    exactly 1 and no row is all-zero. Each row's columns stay sorted.
    """
    loops = with_self_loops(g)
    n = loops.num_nodes
    deg = np.diff(loops.row_offsets).astype(np.float64)
    weights = 1.0 / np.sqrt(deg[edge_rows(loops)] * deg[loops.col_indices])
    return csr_array((weights, loops.col_indices, loops.row_offsets), shape=(n, n))


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive segments delimited by ``offsets``.

    Segment i covers values[offsets[i]:offsets[i+1]] along axis 0; empty
    segments yield zeros. Computed as the product of the (segments, E)
    0/1 incidence matrix with ``values`` flattened to (E, rest), which
    sums each segment in storage order.
    """
    n, e = offsets.shape[0] - 1, values.shape[0]
    incidence = csr_array(
        (np.ones(e, dtype=values.dtype), np.arange(e), offsets), shape=(n, e)
    )
    flat = values.reshape(e, math.prod(values.shape[1:]))  # explicit width: E may be 0
    return (incidence @ flat).reshape((n,) + values.shape[1:])


def segment_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment maximum; empty segments yield -inf."""
    n = offsets.shape[0] - 1
    out = np.full((n,) + values.shape[1:], -np.inf, dtype=values.dtype)
    nonempty = np.flatnonzero(np.diff(offsets) > 0)
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def spmm(adj: csr_array, h: np.ndarray) -> np.ndarray:
    """Row-aggregation kernel: out[i] = sum_j adj[i, j] * h[j].

    ``adj`` is a square ``csr_array`` or its ``.T`` (CSC) view; each output
    row sums its entries in storage order, so the result is bit-identical
    across calls for the same inputs.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != adj.shape[1]:
        raise ValueError(
            f"feature matrix has {h.shape[0] if h.ndim == 2 else '?'} rows, "
            f"adjacency has {adj.shape[1]} nodes"
        )
    return adj @ h
