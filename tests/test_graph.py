"""Graph construction, normalization, and the segment_sum and
spmm kernels against dense oracles and the reduceat reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from conftest import (
    assert_graph,
    dense_normalized_adjacency,
    random_graph,
    reference_segment_sum,
    reference_spmm,
)
from tagforge.graph import (
    GraphFormatError,
    from_edge_list,
    normalize_adjacency,
    segment_sum,
    spmm,
)


def test_single_undirected_edge_layout():
    g = from_edge_list(2, [(0, 1)])
    assert g.indices.tolist() == [1, 0]
    assert g.indptr.tolist() == [0, 1, 2]


def test_edgeless_graph_has_flat_offsets():
    g = from_edge_list(3, [])
    assert g.indptr.tolist() == [0, 0, 0, 0]
    assert g.indices.size == 0
    assert_graph(g)


def test_duplicates_self_loops_and_direction_are_cleaned():
    g = from_edge_list(4, [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)])
    assert_graph(g)
    assert g.nnz == 4  # {0-1, 1-3} stored both ways
    assert g.indices[g.indptr[1] : g.indptr[2]].tolist() == [0, 3]


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_list(3, [(0, 3)])


@given(
    n=st.integers(min_value=1, max_value=20),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_generated_graphs_always_validate(n, data):
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    # repeat some pairs as they are and some reversed, and add self loops
    repeats = data.draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    loops = data.draw(st.lists(ids, max_size=n))
    edges = pairs + repeats + [(j, i) for i, j in repeats] + [(i, i) for i in loops]
    g = from_edge_list(n, edges)
    assert_graph(g)
    expected = {(i, j) for i, j in pairs if i != j}
    expected |= {(j, i) for i, j in expected}
    assert g.nnz == len(expected)
    dense = dense_normalized_adjacency(g)
    np.testing.assert_allclose(normalize_adjacency(g).toarray(), dense, rtol=0, atol=1e-12)


def test_two_node_path_weights_are_half():
    adj = normalize_adjacency(from_edge_list(2, [(0, 1)]))
    assert np.allclose(adj.data, 0.5)
    assert adj.indices.tolist() == [0, 1, 0, 1]


def test_edgeless_normalization_is_identity():
    adj = normalize_adjacency(from_edge_list(3, []))
    assert adj.indices.tolist() == [0, 1, 2]
    assert np.array_equal(adj.data, np.ones(3))


def test_triangle_weights_are_third():
    adj = normalize_adjacency(from_edge_list(3, [(0, 1), (1, 2), (2, 0)]))
    assert np.allclose(adj.data, 1.0 / 3.0)
    assert adj.data.size == 9


def test_isolated_node_keeps_unit_self_weight():
    adj = normalize_adjacency(from_edge_list(3, [(0, 1)]))
    start, end = adj.indptr[2], adj.indptr[3]
    assert adj.indices[start:end].tolist() == [2]
    assert adj.data[start:end].tolist() == [1.0]


@pytest.mark.parametrize("seed", range(8))
def test_normalization_matches_dense_oracle(seed):
    g = random_graph(3 + seed * 3, 0.4, seed)
    adj = normalize_adjacency(g)
    dense = dense_normalized_adjacency(g)
    rebuilt = np.zeros_like(dense)
    rows = np.repeat(np.arange(g.shape[0]), np.diff(adj.indptr))
    rebuilt[rows, adj.indices] = adj.data
    assert np.abs(rebuilt - dense).max() < 1e-12
    assert np.all(adj.data > 0) and np.all(adj.data <= 1.0)


@pytest.mark.parametrize(
    "edges,n",
    [
        ([(i, j) for i in range(5) for j in range(i + 1, 5)], 5),  # clique K5
        ([(i, (i + 1) % 6) for i in range(6)], 6),  # cycle C6
    ],
)
def test_row_sums_are_one_on_regular_graphs(edges, n):
    adj = normalize_adjacency(from_edge_list(n, edges))
    sums = segment_sum(adj.data[:, None], adj.indptr).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_spmm_identity_weights_is_identity():
    adj = normalize_adjacency(from_edge_list(4, []))
    h = np.arange(12, dtype=np.float64).reshape(4, 3)
    assert np.array_equal(spmm(adj, h), h)


def test_spmm_path_hand_case():
    adj = normalize_adjacency(from_edge_list(2, [(0, 1)]))
    out = spmm(adj, np.array([[2.0], [4.0]]))
    assert np.allclose(out, [[3.0], [3.0]])


@pytest.mark.parametrize("seed", range(6))
def test_spmm_matches_dense_product(seed):
    n = 6 + seed * 4  # up to 26 <= 32
    g = random_graph(n, 0.3, seed)
    adj = normalize_adjacency(g)
    h = np.random.default_rng(seed).normal(size=(n, 5))
    dense = dense_normalized_adjacency(g) @ h
    assert np.abs(spmm(adj, h) - dense).max() < 1e-12


def test_spmm_is_bit_deterministic():
    g = random_graph(20, 0.4, 3)
    adj = normalize_adjacency(g)
    h = np.random.default_rng(7).normal(size=(20, 8))
    assert np.array_equal(spmm(adj, h), spmm(adj, h))


def test_spmm_dimension_mismatch():
    adj = normalize_adjacency(from_edge_list(3, [(0, 1)]))
    with pytest.raises(ValueError):
        spmm(adj, np.zeros((4, 2)))


def test_segment_sum_handles_empty_segments():
    values = np.array([[1.0], [2.0], [3.0]])
    offsets = np.array([0, 0, 2, 2, 3])
    out = segment_sum(values, offsets)
    assert out.ravel().tolist() == [0.0, 3.0, 0.0, 3.0]


@given(
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=0.0, max_value=1.0),
    self_loops=st.booleans(),
    trailing=st.sampled_from([(), (3,), (2, 3)]),
)
@example(n=5, seed=0, p=0.0, self_loops=False, trailing=())  # edgeless: E = 0
@example(n=5, seed=0, p=0.0, self_loops=False, trailing=(2, 3))
@settings(max_examples=80, deadline=None)
def test_csr_kernels_match_reduceat_reference(n, seed, p, self_loops, trailing):
    # without self loops, isolated nodes are empty rows
    g = random_graph(n, p, seed)
    if self_loops:
        g = normalize_adjacency(g)  # the self-looped pattern
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=g.nnz)  # weight(i, j) != weight(j, i)
    adj = csr_array((weights, g.indices, g.indptr), shape=(n, n))
    values = rng.normal(size=(g.nnz,) + trailing)
    np.testing.assert_allclose(
        segment_sum(values, g.indptr),
        reference_segment_sum(values, g.indptr),
        rtol=0,
        atol=1e-12,
    )
    h = rng.normal(size=(n, 4))
    np.testing.assert_allclose(spmm(adj, h), reference_spmm(adj, h), rtol=0, atol=1e-12)
