"""Dataset loading, split protocols, and the synthetic generator."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_graph, reference_synthetic_graph, write_planetoid
from tagforge import data
from tagforge.data import (
    DatasetFormatError,
    generate_synthetic,
    load_planetoid,
    split_high,
    split_low,
)
from tagforge.models import ModelSpec, init_parameters
from tagforge.train import TrainSpec, train


def _toy_files(tmp_path, **overrides):
    kwargs = dict(
        edges=[(0, 1), (1, 2), (3, 0)],
        labels=[0, 1, 0, 1],
        features=np.arange(8, dtype=np.float32).reshape(4, 2),
        texts=["alpha beta", "beta gamma", "alpha", "gamma gamma"],
    )
    kwargs.update(overrides)
    return write_planetoid(tmp_path / "ds", "toy", **kwargs)


def test_load_roundtrip(tmp_path):
    directory = _toy_files(tmp_path)
    ds = load_planetoid(directory, "toy")
    assert ds.num_nodes == 4
    assert ds.num_classes == 2
    assert_graph(ds.graph)
    assert ds.features is None  # a features file is read through a file encoder
    assert ds.texts[3] == "gamma gamma"


def test_loader_symmetrizes_directed_input(tmp_path):
    directory = _toy_files(tmp_path, edges=[(0, 1), (1, 0), (2, 0)])
    ds = load_planetoid(directory, "toy")
    row0 = ds.graph.indices[ds.graph.indptr[0] : ds.graph.indptr[1]]
    assert row0.tolist() == [1, 2]


def test_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_planetoid(str(tmp_path), "nope")


def test_loader_accepts_empty_edge_file(tmp_path):
    directory = _toy_files(tmp_path, edges=[])
    ds = load_planetoid(directory, "toy")
    assert ds.graph.nnz == 0
    assert ds.graph.indptr.tolist() == [0, 0, 0, 0, 0]


def test_loader_rejects_edge_beyond_node_count(tmp_path):
    directory = _toy_files(tmp_path, edges=[(0, 9)])
    with pytest.raises(DatasetFormatError):
        load_planetoid(directory, "toy")


@pytest.mark.parametrize("line", ["0 1 2", "0 x", "-1 2", "0 4"])  # the toy has 4 nodes
def test_loader_names_the_file_and_line_of_a_bad_edge(tmp_path, line):
    directory = _toy_files(tmp_path)
    edges = directory / "toy.edges"
    with open(edges, "a") as fh:
        fh.write(line + "\n")  # line 4, after the toy's three edges
    with pytest.raises(DatasetFormatError, match=re.escape(f"{edges}:4: ")):
        load_planetoid(directory, "toy")


def test_loader_skips_blank_edge_lines_and_keeps_line_numbers(tmp_path):
    directory = _toy_files(tmp_path)  # edges (0, 1), (1, 2), (3, 0), one a line
    edges = directory / "toy.edges"
    plain = load_planetoid(directory, "toy").graph
    edges.write_text("\n0 1\n\n1 2\n   \n3 0\n\n")
    spaced = load_planetoid(directory, "toy").graph
    assert np.array_equal(spaced.indptr, plain.indptr)
    assert np.array_equal(spaced.indices, plain.indices)
    with open(edges, "a") as fh:
        fh.write("0 x\n")  # line 8, after seven lines, four of them blank
    with pytest.raises(DatasetFormatError, match=re.escape(f"{edges}:8: ")):
        load_planetoid(directory, "toy")


@pytest.mark.parametrize("lines,bad_line", [
    (["0", "1", "", "1", "0"], 3),  # a blank line would make line 4 node 2's label
    (["0", "1.0", "1", "0"], 2),
    (["0", "1", "-1", "0"], 3),
    (["0", "1", "1", "0", "", " "], None),  # trailing blank lines load
])
def test_loader_names_the_file_and_line_of_a_bad_label(tmp_path, lines, bad_line):
    directory = _toy_files(tmp_path)
    labels = directory / "toy.labels"
    labels.write_text("\n".join(lines) + "\n")
    if bad_line is None:
        assert load_planetoid(directory, "toy").labels.tolist() == [0, 1, 1, 0]
    else:
        with pytest.raises(DatasetFormatError, match=re.escape(f"{labels}:{bad_line}: ")):
            load_planetoid(directory, "toy")


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
def test_loader_rejects_a_labels_file_without_labels(tmp_path, text):
    directory = _toy_files(tmp_path)
    labels = directory / "toy.labels"
    labels.write_text(text)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{labels}: no labels")):
        load_planetoid(directory, "toy")


def test_loader_rejects_missing_class(tmp_path):
    directory = _toy_files(tmp_path, labels=[0, 2, 0, 2])  # class 1 absent
    with pytest.raises(DatasetFormatError):
        load_planetoid(directory, "toy")


def test_loader_rejects_text_count_mismatch(tmp_path):
    directory = _toy_files(tmp_path, texts=["only", "three", "lines"])
    with pytest.raises(DatasetFormatError):
        load_planetoid(directory, "toy")


# ---------------------------------------------------------------------------
# split protocols


def _cora_shaped_labels():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=2708)
    labels[:7] = np.arange(7)  # every class present
    return labels


def test_split_low_cora_shape_counts():
    mask = split_low(_cora_shaped_labels(), num_classes=7, seed=1)
    assert mask.train.size == 140
    assert mask.val.size == 500
    assert mask.test.size == 1000


def test_split_low_tiny_counts():
    mask = split_low(np.array([0, 1, 0, 1]), per_class=1, n_val=1, n_test=1, seed=0)
    assert (mask.train.size, mask.val.size, mask.test.size) == (2, 1, 1)


def test_split_low_respects_per_class_quota():
    labels = _cora_shaped_labels()
    mask = split_low(labels, num_classes=7, seed=3)
    for c in range(7):
        assert (labels[mask.train] == c).sum() == 20


def test_split_low_deterministic_and_seed_sensitive():
    labels = _cora_shaped_labels()
    a = split_low(labels, seed=5)
    b = split_low(labels, seed=5)
    c = split_low(labels, seed=6)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)
    assert c.train.size == a.train.size


def test_split_low_insufficient_nodes():
    with pytest.raises(ValueError):
        split_low(np.array([0, 0, 1]), per_class=2, n_val=1, n_test=1)
    with pytest.raises(ValueError):
        split_low(np.array([0, 0, 1, 1]), per_class=1, n_val=5, n_test=5)


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("key", ["per_class", "n_val", "n_test"])
def test_split_low_refuses_sizes_below_one(key, size):
    sizes = {"per_class": 1, "n_val": 1, "n_test": 1, key: size}
    with pytest.raises(ValueError, match=f"{key} must be >= 1, got {size}"):
        split_low(np.arange(300) % 3, **sizes)


@pytest.mark.parametrize(
    "n,expected",
    [(1000, (600, 200, 200)), (10, (6, 2, 2)), (2708, (1624, 541, 543))],
)
def test_split_high_sizes(n, expected):
    mask = split_high(n, seed=0)
    assert (mask.train.size, mask.val.size, mask.test.size) == expected


def test_split_high_sizes_match_the_float_formula(monkeypatch):
    """The integer sizes against floor(0.6 n + 1e-9) and floor(0.2 n + 1e-9),
    the float formula they replaced; a stub stream and mask keep each call cheap."""
    sizes = []

    class Stream:
        def __init__(self, seed):
            pass

        def permutation(self, n):
            return np.zeros(n, dtype=np.int64)

    class Mask:
        def __init__(self, train, val, test):
            sizes.append((train.size, val.size))

        def validate(self, n):
            pass

    monkeypatch.setattr(data, "SplitMix64", Stream)
    monkeypatch.setattr(data, "SplitMask", Mask)
    n = np.arange(5, 20_001)
    for size in n.tolist():
        split_high(size)
    reference = np.stack([np.floor(0.6 * n + 1e-9), np.floor(0.2 * n + 1e-9)], axis=1)
    assert np.array_equal(np.array(sizes), reference)


def test_split_high_too_small():
    with pytest.raises(ValueError):
        split_high(4)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_split_high_partitions_exhaustively(seed):
    n = 53
    mask = split_high(n, seed=seed)
    merged = np.concatenate([mask.train, mask.val, mask.test])
    assert np.array_equal(np.sort(merged), np.arange(n))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_split_low_disjoint_cover_of_stated_sizes(seed):
    labels = np.arange(40) % 4
    mask = split_low(labels, per_class=3, n_val=10, n_test=12, seed=seed)
    merged = np.concatenate([mask.train, mask.val, mask.test])
    assert np.unique(merged).size == merged.size
    assert (mask.train.size, mask.val.size, mask.test.size) == (12, 10, 12)


# ---------------------------------------------------------------------------
# synthetic generator


def test_extreme_probabilities_give_disjoint_cliques():
    ds = generate_synthetic(4, 2, p_in=1.0, p_out=0.0, dim=3, sep=1.0, seed=9)
    # round-robin labels [0,1,0,1] -> cliques {0,2} and {1,3}
    assert ds.graph.indices.tolist() == [2, 3, 0, 1]
    assert ds.labels.tolist() == [0, 1, 0, 1]


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(30, 3, 0.5, 0.1, dim=5, sep=2.0, seed=4)
    b = generate_synthetic(30, 3, 0.5, 0.1, dim=5, sep=2.0, seed=4)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features, b.features)
    assert a.texts == b.texts
    c = generate_synthetic(30, 3, 0.5, 0.1, dim=5, sep=2.0, seed=5)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_invariants():
    ds = generate_synthetic(31, 4, 0.6, 0.05, dim=6, sep=1.5, seed=2)
    assert_graph(ds.graph)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert np.isfinite(ds.features).all()
    assert len(ds.texts) == 31


@pytest.mark.parametrize("block", [7, data._PAIR_BLOCK])
@pytest.mark.parametrize(
    "n,classes,p_in,p_out,seed",
    [(2, 2, 1.0, 0.9, 0), (2, 2, 0.9, 0.0, 3), (31, 4, 0.6, 0.05, 2), (97, 3, 0.3, 0.02, 11),
     (700, 7, 0.05, 0.002, 5), (700, 2, 1.0, 0.0, 1)],
)
def test_synthetic_graph_equals_the_whole_triangle_draw(
    monkeypatch, n, classes, p_in, p_out, seed, block
):
    monkeypatch.setattr(data, "_PAIR_BLOCK", block)
    got = generate_synthetic(n, classes, p_in, p_out, dim=2, seed=seed).graph
    want = reference_synthetic_graph(n, classes, p_in, p_out, seed)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_synthetic_graph_memory_grows_with_edges_not_pairs():
    # 4.5 million node pairs, about 210 MB if drawn at once
    tracemalloc.start()
    try:
        ds = generate_synthetic(3000, 7, p_in=0.00827, p_out=0.000344, dim=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.graph.nnz > 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("p_in,p_out", [(0.5, 0.5), (0.2, 0.3), (1.2, 0.0), (0.5, -0.1)])
def test_synthetic_invalid_probabilities(p_in, p_out):
    with pytest.raises(ValueError):
        generate_synthetic(10, 2, p_in, p_out)


@pytest.mark.parametrize("n,classes,dim", [(-3, 2, 16), (40, 1, 16), (40, 2, 0), (40, 2, -2)])
def test_synthetic_refuses_bad_sizes(n, classes, dim):
    # dim < 1 once gave an (n, 0) feature matrix and a negative draw count
    with pytest.raises(ValueError):
        generate_synthetic(n, classes, 0.9, 0.05, dim=dim)


def test_homophilous_structure_helps_gcn_over_mlp():
    # features weakly separable, structure strongly informative
    ds = generate_synthetic(200, 3, p_in=0.2, p_out=0.01, dim=16, sep=3.0, seed=0)
    split = split_high(ds.num_nodes, seed=0)
    spec_args = dict(in_dim=16, num_classes=3, layers=4, hidden=64, dropout=0.5)
    accs = {}
    for arch in ("gcn", "mlp"):
        model = init_parameters(ModelSpec(arch=arch, **spec_args), seed=0)
        result = train(model, ds, split, TrainSpec(epochs=200), seed=0)
        accs[arch] = result.test_acc_at_best_val
    assert accs["gcn"] > accs["mlp"]
