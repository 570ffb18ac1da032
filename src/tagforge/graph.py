"""The graph as a scipy CSR, its symmetric normalization, and the sparse
row-aggregation kernels shared by the graph models.

A graph is a symmetric 0/1 ``scipy.sparse.csr_array`` in canonical format
(each row's columns sorted and unique) with no diagonal, as
``from_edge_list`` builds it. ``normalize_adjacency`` returns the
self-looped, normalized adjacency in the same format: both graph models
aggregate over its pattern. ``segment_sum`` and ``spmm`` run as
CSR-times-dense products; ``segment_max`` stays on ``np.maximum.reduceat``.

Feature matrices are plain 2-D float arrays (rows = nodes); node labels are
1-D integer arrays. Nothing here mutates its inputs, so graphs are safe to
share across workers.
"""

import math

import numpy as np
from scipy.sparse import csr_array, eye_array


class GraphFormatError(ValueError):
    """An edge list is not pairs of in-range node ids."""


def from_edge_list(num_nodes: int, edges) -> csr_array:
    """The graph of (i, j) pairs as a symmetric 0/1 ``csr_array``.

    Input edges are symmetrized and deduplicated; self loops are dropped
    (normalization re-adds them uniformly). The result is in canonical
    format: each row's columns are sorted and unique. Out-of-range
    endpoints raise.
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
    g = csr_array((np.ones(rows.size), (rows, cols)), shape=(num_nodes, num_nodes))
    g.data[:] = 1.0  # the conversion sums a duplicated pair to its count
    return g


def normalize_adjacency(g: csr_array) -> csr_array:
    """D^{-1/2} (A+I) D^{-1/2}: weight(i, j) = 1 / sqrt(deg(i) * deg(j)).

    The degrees count A+I rows, so an isolated node keeps a self-weight of
    exactly 1 and no row is all-zero. Each row's columns stay sorted.
    """
    loops = g + eye_array(g.shape[0], format="csr")
    deg = np.diff(loops.indptr).astype(np.float64)
    rows = np.repeat(np.arange(g.shape[0]), np.diff(loops.indptr))
    loops.data = 1.0 / np.sqrt(deg[rows] * deg[loops.indices])
    return loops


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
