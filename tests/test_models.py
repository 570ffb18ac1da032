"""Architecture assembly: layer semantics, dense-oracle equivalence,
equivariances, initialization statistics.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import tagforge.models as models
from conftest import (
    dense_gt_attention,
    dense_normalized_adjacency,
    random_graph,
    reference_gt_layer,
    transpose_order,
)
from tagforge.data import Dataset, generate_synthetic, split_high
from tagforge.gradcheck import TOLERANCE, numeric_grad, rel_error
from tagforge.graph import from_edge_list, normalize_adjacency, spmm
from tagforge.models import (
    ARCHITECTURES,
    ModelSpec,
    build_context,
    forward_backward,
    gcn_layer,
    glorot_uniform,
    graph_transformer_layer,
    init_parameters,
    mlp_layer,
)
from tagforge.nn import cross_entropy
from tagforge.rng import SplitMix64
from tagforge.train import TrainSpec, adam_step, AdamState, train


def _gt_params(rng, d_in, width):
    return {
        "W_Q": rng.normal((d_in, width)),
        "W_K": rng.normal((d_in, width)),
        "W_V": rng.normal((d_in, width)),
        "W_S": rng.normal((d_in, width)),
        "b": rng.normal((1, width)),
    }


# ---------------------------------------------------------------------------
# ModelSpec


def test_spec_validation():
    ModelSpec("gcn", in_dim=5, num_classes=3)
    with pytest.raises(ValueError):
        ModelSpec("resnet", in_dim=5, num_classes=3)
    with pytest.raises(ValueError):
        ModelSpec("gcn", in_dim=5, num_classes=3, layers=1)
    with pytest.raises(ValueError):
        ModelSpec("graph_transformer", in_dim=5, num_classes=3, hidden=30, heads=4)
    with pytest.raises(ValueError):
        ModelSpec("gcn", in_dim=5, num_classes=3, dropout=1.0)


def test_parameter_shape_table():
    spec = ModelSpec("graph_transformer", in_dim=10, num_classes=3, layers=3, hidden=8, heads=2)
    model = init_parameters(spec, seed=0)
    shapes = {name: p.shape for name, p in model.parameters.items()}
    assert shapes["layer0.W_Q"] == (10, 8)
    assert shapes["layer1.W_Q"] == (8, 8)
    # final layer: one head of width num_classes
    assert shapes["layer2.W_Q"] == (8, 3)
    assert shapes["layer2.b"] == (1, 3)
    assert [heads for _, heads in model.layers] == [2, 2, 1]
    assert model.layers[2][0]["W_Q"] is model.parameters["layer2.W_Q"]

    gcn = init_parameters(ModelSpec("gcn", in_dim=10, num_classes=3, layers=2, hidden=8), 0)
    assert {n: p.shape for n, p in gcn.parameters.items()} == {
        "layer0.W": (10, 8),
        "layer0.b": (1, 8),
        "layer1.W": (8, 3),
        "layer1.b": (1, 3),
    }
    assert [heads for _, heads in gcn.layers] == [1, 1]


def test_init_deterministic_and_biases_zero():
    spec = ModelSpec("gcn", in_dim=6, num_classes=2, layers=2, hidden=4)
    a = init_parameters(spec, seed=3)
    b = init_parameters(spec, seed=3)
    c = init_parameters(spec, seed=4)
    for name in a.parameters:
        assert np.array_equal(a.parameters[name], b.parameters[name])
    assert not np.array_equal(a.parameters["layer0.W"], c.parameters["layer0.W"])
    assert np.array_equal(a.parameters["layer0.b"], np.zeros((1, 4)))


def test_glorot_standard_deviation():
    fan_in, fan_out = 100, 100
    sample = glorot_uniform(SplitMix64(1), fan_in, fan_out)
    target = np.sqrt(2.0 / (fan_in + fan_out))  # std of U(-a, a) with a = sqrt(6/(in+out))
    assert abs(sample.std() - target) / target < 0.10
    assert np.abs(sample).max() <= np.sqrt(6.0 / (fan_in + fan_out))


# ---------------------------------------------------------------------------
# layer semantics


def test_mlp_layer_identity_and_bias():
    h = np.arange(6.0).reshape(3, 2)
    W = np.eye(2)
    b = np.zeros((1, 2))
    out, _ = mlp_layer(h, W, b)
    assert np.array_equal(out, h)
    bias = np.array([[1.0, -2.0]])
    out, _ = mlp_layer(np.zeros((3, 2)), W, bias)
    assert np.array_equal(out, np.tile([1.0, -2.0], (3, 1)))


def test_gcn_layer_edgeless_reduces_to_linear():
    adj = normalize_adjacency(from_edge_list(3, []))
    h = SplitMix64(0).normal((3, 4))
    W = SplitMix64(1).normal((4, 2))
    b = SplitMix64(2).normal((1, 2))
    out, _ = gcn_layer(h, adj, W, b)
    assert np.abs(out - (h @ W + b)).max() < 1e-15


def test_gcn_layer_path_hand_case():
    adj = normalize_adjacency(from_edge_list(2, [(0, 1)]))
    out, _ = gcn_layer(
        np.array([[2.0], [4.0]]),
        adj,
        np.eye(1),
        np.zeros((1, 1)),
    )
    assert np.allclose(out, [[3.0], [3.0]])


def test_gt_layer_isolated_node_is_value_plus_skip():
    g = from_edge_list(3, [(0, 1)])  # node 2 isolated
    rng = SplitMix64(7)
    params = _gt_params(rng, 4, 6)
    h = rng.normal((3, 4))
    out, _ = graph_transformer_layer(h, build_context(g), params, heads=2)
    expected = h[2] @ params["W_V"] + h[2] @ params["W_S"] + params["b"]
    assert np.abs(out[2] - expected).max() < 1e-12


def test_gt_layer_identical_features_give_uniform_attention():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    rng = SplitMix64(3)
    params = _gt_params(rng, 3, 4)
    row = rng.normal((1, 3))
    h = np.tile(row, (4, 1))
    out, _ = graph_transformer_layer(h, build_context(g), params, heads=2)
    # uniform attention over identical rows averages to the same row transform
    expected = row @ params["W_V"] + row @ params["W_S"] + params["b"]
    assert np.abs(out - np.tile(expected, (4, 1))).max() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_gt_layer_matches_dense_masked_oracle(seed):
    n = 5 + seed * 6  # up to 29 <= 32
    g = random_graph(n, 0.35, seed)
    rng = SplitMix64(seed + 100)
    heads = 2
    params = _gt_params(rng, 5, 8)
    h = rng.normal((n, 5))
    out, _ = graph_transformer_layer(h, build_context(g), params, heads=heads)
    expected, alphas = dense_gt_attention(h, g, params, heads)
    assert np.abs(out - expected).max() < 1e-10
    for alpha in alphas:  # neighborhood coefficients are a proper distribution
        assert np.all(alpha >= 0.0)
        assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_gcn_layer_matches_dense_oracle(seed):
    n = 6 + seed * 5
    g = random_graph(n, 0.3, seed)
    adj = normalize_adjacency(g)
    rng = SplitMix64(seed + 50)
    h = rng.normal((n, 4))
    W = rng.normal((4, 3))
    b = rng.normal((1, 3))
    out, _ = gcn_layer(h, adj, W, b)
    dense = dense_normalized_adjacency(g) @ h @ W + b
    assert np.abs(out - dense).max() < 1e-10


def test_gcn_backward_follows_an_asymmetric_adjacency():
    rng = SplitMix64(5)
    adj = csr_array(np.triu(rng.normal((5, 5))))  # weight(i, j) != weight(j, i)
    h = rng.normal((5, 3))
    params = {"W": rng.normal((3, 2)), "b": rng.normal((1, 2))}
    weights = rng.normal((5, 2))

    def loss():
        return float((gcn_layer(h, adj, params["W"], params["b"])[0] * weights).sum())

    _, backward = gcn_layer(h, adj, params["W"], params["b"])
    d_h, grads = backward(weights)
    assert rel_error(d_h, numeric_grad(loss, h)) < 1e-8
    for short, value in params.items():
        assert rel_error(grads[short], numeric_grad(loss, value)) < 1e-8, short


# ---------------------------------------------------------------------------
# full forward


def _random_dataset(arch_dim=6, n=10, seed=0):
    ds = generate_synthetic(n, 2, p_in=0.7, p_out=0.3, dim=arch_dim, sep=1.0, seed=seed)
    return ds


@pytest.mark.parametrize("arch", ["gcn", "graph_transformer", "mlp"])
def test_eval_forward_is_deterministic(arch):
    ds = _random_dataset()
    spec = ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4, heads=2)
    model = init_parameters(spec, seed=1)
    context = build_context(ds.graph)
    a = forward_backward(model, ds, context)[0]
    b = forward_backward(model, ds, context)[0]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("arch", ["gcn", "graph_transformer", "mlp"])
def test_training_forward_without_dropout_is_deterministic(arch):
    ds = _random_dataset()
    spec = ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4, heads=2, dropout=0.0)
    model = init_parameters(spec, seed=1)
    context = build_context(ds.graph)
    a = forward_backward(model, ds, context, rng=SplitMix64(0))[0]
    b = forward_backward(model, ds, context, rng=SplitMix64(99))[0]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_takes_forward_backward_argument_order(arch):
    ds = _random_dataset()
    spec = ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4, heads=2)
    model = init_parameters(spec, seed=1)
    context = build_context(ds.graph)
    a = forward_backward(model, ds, context, SplitMix64(4))[0]
    b = forward_backward(model, ds, context, rng=SplitMix64(4))[0]
    assert np.array_equal(a, b)


def test_mlp_ignores_graph_structure():
    ds = _random_dataset()
    spec = ModelSpec("mlp", in_dim=6, num_classes=2, layers=3, hidden=4)
    model = init_parameters(spec, seed=2)
    logits = forward_backward(model, ds, build_context(ds.graph))[0]
    rewired = Dataset(
        from_edge_list(ds.num_nodes, [(i, (i + 1) % ds.num_nodes) for i in range(ds.num_nodes)]),
        ds.features,
        ds.labels,
        ds.num_classes,
    )
    rewired_logits = forward_backward(model, rewired, build_context(rewired.graph))[0]
    assert np.array_equal(rewired_logits, logits)


@pytest.mark.parametrize("arch", ["gcn", "graph_transformer"])
def test_graph_models_are_permutation_equivariant(arch):
    ds = _random_dataset(n=10, seed=3)
    spec = ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4, heads=2)
    model = init_parameters(spec, seed=5)
    logits = forward_backward(model, ds, build_context(ds.graph))[0]

    perm = np.random.default_rng(0).permutation(ds.num_nodes)
    inv = np.argsort(perm)
    # relabel: node i becomes perm[i]
    old_rows = np.repeat(np.arange(ds.num_nodes), np.diff(ds.graph.indptr))
    edges = np.stack([perm[old_rows], perm[ds.graph.indices]], axis=1)
    permuted = Dataset(
        from_edge_list(ds.num_nodes, edges),
        ds.features[inv],
        ds.labels[inv],
        ds.num_classes,
    )
    permuted_logits = forward_backward(model, permuted, build_context(permuted.graph))[0]
    assert np.abs(permuted_logits - logits[inv]).max() < 1e-10


@pytest.mark.parametrize("arch", ["gcn", "graph_transformer", "mlp"])
def test_single_step_decreases_training_loss(arch):
    ds = generate_synthetic(12, 2, p_in=1.0, p_out=0.0, dim=4, sep=3.0, seed=1)
    spec = ModelSpec(arch, in_dim=4, num_classes=2, layers=2, hidden=4, heads=2, dropout=0.0)
    model = init_parameters(spec, seed=0)
    mask = np.arange(12)
    context = build_context(ds.graph)
    state = AdamState(model.parameters)

    logits, backward = forward_backward(model, ds, context, SplitMix64(0))
    loss_before, d_logits = cross_entropy(logits, ds.labels, mask)
    grads = backward(d_logits)
    adam_step(model.parameters, grads, state, TrainSpec())
    loss_after, _ = cross_entropy(forward_backward(model, ds, context=context)[0], ds.labels, mask)
    assert loss_after < loss_before


def _sparse_features(ds, dim=40, seed=0):
    """About 5% random nonzeros plus one label-indicator entry per row."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random((ds.num_nodes, dim)) < 0.05, rng.random((ds.num_nodes, dim)), 0.0)
    x[np.arange(ds.num_nodes), ds.labels] += 1.0
    return x


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_csr_features_match_dense_features(arch):
    ds = generate_synthetic(30, 3, p_in=0.3, p_out=0.02, dim=4, seed=2)
    dense = _sparse_features(ds)
    spec = ModelSpec(arch, in_dim=40, num_classes=3, layers=3, hidden=8, heads=2)
    context = build_context(ds.graph)
    d_logits = np.random.default_rng(3).normal(size=(30, 3))
    runs = []
    for x in (dense, csr_array(dense)):
        model = init_parameters(spec, seed=1)
        data = Dataset(ds.graph, x, ds.labels, 3)
        logits, backward = forward_backward(model, data, context, SplitMix64(2))
        runs.append((logits, backward(d_logits)))
    (dense_logits, dense_grads), (csr_logits, csr_grads) = runs
    np.testing.assert_allclose(csr_logits, dense_logits, rtol=0, atol=1e-12)
    for name, grad in dense_grads.items():
        np.testing.assert_allclose(csr_grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

    split = split_high(30, seed=0)
    dense_run, csr_run = (
        train(init_parameters(spec, 1), Dataset(ds.graph, x, ds.labels, 3), split,
              TrainSpec(epochs=25, patience=25), seed=0)
        for x in (dense, csr_array(dense))
    )
    assert csr_run.best_val_acc == dense_run.best_val_acc
    assert csr_run.test_acc_at_best_val == dense_run.test_acc_at_best_val
    assert csr_run.val_curve == dense_run.val_curve
    np.testing.assert_allclose(csr_run.loss_curve, dense_run.loss_curve, rtol=0, atol=1e-9)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_returns_one_gradient_per_parameter_with_its_shape(arch, sparse):
    ds = _random_dataset()
    features = csr_array(np.maximum(ds.features, 0.0)) if sparse else ds.features
    model = init_parameters(ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4,
                                      heads=2), seed=1)
    data = Dataset(ds.graph, features, ds.labels, 2)
    logits, backward = forward_backward(model, data, build_context(ds.graph), SplitMix64(2))
    grads = backward(np.ones_like(logits))
    assert grads.keys() == model.parameters.keys()
    for name, value in model.parameters.items():
        assert grads[name].shape == value.shape, name


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_skips_only_the_layer0_input_gradient(arch, monkeypatch):
    ds = _random_dataset()
    spec = ModelSpec(arch, in_dim=6, num_classes=2, layers=3, hidden=4, heads=2)
    context = build_context(ds.graph)
    d_logits = np.random.default_rng(0).normal(size=(ds.num_nodes, 2))

    def walk(force_input_grad):
        """The parameter gradients, and the input_grad each layer backward got."""
        seen = []

        def spy(layer):
            def call(*args):
                out, back = layer(*args)

                def backward(d, input_grad=True):
                    seen.append(input_grad)
                    return back(d) if force_input_grad else back(d, input_grad)

                return out, backward

            return call

        with monkeypatch.context() as m:
            for name in ("gcn_layer", "graph_transformer_layer", "mlp_layer"):
                m.setattr(models, name, spy(getattr(models, name)))
            model = init_parameters(spec, seed=1)
            logits, backward = forward_backward(model, ds, context, SplitMix64(2))
            grads = backward(d_logits)
            assert grads.keys() == model.parameters.keys()
        return grads, seen

    skipped, seen = walk(force_input_grad=False)
    assert seen == [True, True, False]  # walked from the last layer to layer 0
    full, _ = walk(force_input_grad=True)
    for name, grad in full.items():
        assert np.array_equal(skipped[name], grad), name


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_whole_model_gradients_match_finite_differences(arch, sparse):
    """Every parameter gradient of a 3-layer model, from forward_backward's
    backward, against central differences of the same loss. Each forward
    draws its dropout masks from a fresh SplitMix64(3), so every loss
    evaluation sees the same masks; the tape's order, layer 0's
    ``input_grad=False`` and the layers' in-place adds are all under test."""
    ds = generate_synthetic(8, 2, p_in=0.9, p_out=0.3, dim=3, sep=1.0, seed=4)
    features = ds.features
    if sparse:
        features = csr_array(np.where(SplitMix64(5).random(features.shape) < 0.4, 0.0, features))
    data = Dataset(ds.graph, features, ds.labels, 2)
    model = init_parameters(ModelSpec(arch, in_dim=3, num_classes=2, layers=3, hidden=8,
                                      heads=2), seed=2)
    rng = SplitMix64(6)
    for name, p in model.parameters.items():
        if name.endswith(".b"):  # non-zero biases keep zero-feature rows off ReLU's kink
            p[...] = rng.normal(p.shape)
    context = build_context(ds.graph)
    weights = rng.normal((8, 2))

    def loss():
        return float((forward_backward(model, data, context, SplitMix64(3))[0] * weights).sum())

    logits, backward = forward_backward(model, data, context, SplitMix64(3))
    grads = backward(weights)  # d loss / d logits
    for name, p in model.parameters.items():
        assert rel_error(grads[name], numeric_grad(loss, p)) <= TOLERANCE, name


def test_tperm_reordered_weights_give_transposed_product():
    n = 12
    context = build_context(random_graph(n, 0.3, 5))
    indptr, indices = context.adj.indptr, context.adj.indices
    rng = np.random.default_rng(5)
    weights = rng.normal(size=indices.size)  # weight(i, j) != weight(j, i)
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = weights
    assert not np.allclose(dense, dense.T)
    x = rng.normal(size=(n, 3))
    transposed = csr_array((weights[transpose_order(context.adj)], indices, indptr), shape=(n, n))
    np.testing.assert_allclose(spmm(transposed, x), dense.T @ x, rtol=0, atol=1e-12)


@st.composite
def _graphs_with_isolated_nodes(draw):
    """A graph on 2..12 nodes whose edges avoid at least one node, ids shuffled."""
    n = draw(st.integers(2, 12))
    linked = draw(st.integers(1, n - 1))
    ids = st.integers(0, linked - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    perm = draw(st.permutations(range(n)))
    return from_edge_list(n, [(perm[i], perm[j]) for i, j in pairs])


@given(
    graph=_graphs_with_isolated_nodes(),
    heads=st.sampled_from([1, 2, 4]),
    d_head=st.integers(1, 3),
    d_in=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_gt_layer_is_bit_identical_to_per_head_reference(graph, heads, d_head, d_in, seed):
    _assert_gt_layer_matches_reference(graph, heads, d_head, d_in, seed)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("d_in", [3, 4, 5], ids=["narrower", "as_wide", "wider"])
def test_gt_layer_is_bit_identical_on_both_sides_of_the_width_rule(d_in, sparse):
    # width 4 (2 heads of 2): an input narrower than that has q, k and v
    # recomputed in backward, an input as wide or wider has them saved
    _assert_gt_layer_matches_reference(random_graph(10, 0.3, 7), 2, 2, d_in, d_in, sparse)


def _assert_gt_layer_matches_reference(graph, heads, d_head, d_in, seed, sparse=False):
    rng = np.random.default_rng(seed)
    n, width = graph.shape[0], heads * d_head
    values = {short: rng.normal(size=(d_in, width)) for short in ("W_Q", "W_K", "W_V", "W_S")}
    values["b"] = rng.normal(size=(1, width))
    h = rng.normal(size=(n, d_in))
    if sparse:
        h = csr_array(h * (rng.random(size=h.shape) < 0.4))
    d_out = rng.normal(size=(n, width))
    context = build_context(graph)

    out, backward = graph_transformer_layer(h, context, values, heads)
    ref_out, ref_backward = reference_gt_layer(h, context, values, heads)
    assert np.array_equal(out, ref_out)
    (d_h, grads), (ref_d_h, ref_grads) = backward(d_out), ref_backward(d_out)
    assert np.array_equal(d_h, ref_d_h)
    for short in values:
        assert np.array_equal(grads[short], ref_grads[short]), short


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_gt_layer_blocks_of_entries_are_bit_identical(monkeypatch, block, heads):
    # Two isolated nodes, then three triangles: E = 2 + 3 * 9 = 29 entries, so
    # blocks of 2 and 3 split rows and end on a partial block inside a
    # triangle's row (a one-entry row's softmax would hide a skipped score).
    graph = from_edge_list(
        11, [(a + i, a + j) for a in (2, 5, 8) for i, j in ((0, 1), (1, 2), (0, 2))]
    )
    context = build_context(graph)
    assert context.adj.indices.size == 29
    d_head = 2
    monkeypatch.setattr(models, "_BLOCK_BYTES", block * heads * d_head * 8)
    _assert_gt_layer_matches_reference(graph, heads, d_head, 3, seed=block * 10 + heads)


def _gt_layer_on_800_nodes(d_in):
    """(h, context, params) for one GT layer, d_in -> 64 wide at 4 heads, on an
    800-node synthetic graph, with the context's 4-head layout already built."""
    context = build_context(generate_synthetic(800, 7, 0.02, 0.001, dim=8, seed=0).graph)
    context.head_csr(np.zeros((context.adj.nnz, 4)))
    rng = SplitMix64(3)
    return rng.normal((800, d_in)), context, _gt_params(rng, d_in, 64)


def test_gt_layer_keeps_no_projection_of_a_narrower_input():
    # saved q, k and v would add 3 * out.nbytes; at this size the pair retained
    # 2.85 * (out.nbytes + 2 * alpha.nbytes) with them and 0.85 without
    h, context, params = _gt_layer_on_800_nodes(d_in=32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, backward = graph_transformer_layer(h, context, params, heads=4)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    alpha_nbytes = context.adj.nnz * 4 * 8  # (E, heads) float64
    assert retained < out.nbytes + 2 * alpha_nbytes


def test_gt_backward_drops_each_saved_array_after_its_last_use():
    # 64 -> 64 wide, as a hidden layer: the peak above backward's start read
    # 4.58 * out.nbytes with every saved array alive to the end, 3.77 without
    h, context, params = _gt_layer_on_800_nodes(d_in=64)
    d_out = SplitMix64(4).normal(h.shape)
    tracemalloc.start()  # before the forward, so that freeing what it saved counts
    try:
        out, backward = graph_transformer_layer(h, context, params, heads=4)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        backward(d_out)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4.2 * out.nbytes


@pytest.mark.parametrize("arch, bound", [("mlp", 1.5), ("gcn", 2.5)])
def test_layer_adds_its_bias_in_place(arch, bound):
    # 64 -> 64 on 800 nodes: the forward peaked at 1.16 (MLP) and 2.17 (GCN)
    # times out.nbytes adding in place, 2.16 and 3.17 with a separate x + b
    context = build_context(generate_synthetic(800, 7, 0.02, 0.001, dim=8, seed=0).graph)
    rng = SplitMix64(3)
    h = rng.normal((800, 64))
    W, b = rng.normal((64, 64)), rng.normal((1, 64))
    layer = {"mlp": lambda: mlp_layer(h, W, b), "gcn": lambda: gcn_layer(h, context.adj, W, b)}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out, _ = layer[arch]()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < bound * out.nbytes


def test_head_index_built_once_per_structure_and_heads(monkeypatch):
    built = []
    build = models._head_layout
    monkeypatch.setattr(
        models,
        "_head_layout",
        lambda adj, heads: built.append(heads) or build(adj, heads),
    )
    graph = random_graph(8, 0.4, 1)
    context = build_context(graph)
    rng = SplitMix64(4)
    params = _gt_params(rng, 3, 4)
    h = rng.normal((8, 3))
    for heads in (2, 2, 1, 4, 1, 2):
        graph_transformer_layer(h, context, params, heads)
    assert built == [2, 1, 4]
    weights = np.ones((context.adj.nnz, 2))
    assert context.head_csr(weights).nnz == context.head_csr(weights).nnz == weights.size
    assert built == [2, 1, 4]
    build_context(graph).head_csr(weights)
    assert built == [2, 1, 4, 2]


def test_build_context_adds_self_loops_once():
    graph = random_graph(10, 0.3, 2)
    context = build_context(graph)
    assert context.adj.shape == (10, 10)
    assert context.adj.nnz == graph.nnz + 10
    rows = np.repeat(np.arange(10), np.diff(context.adj.indptr))
    on_diagonal = rows[rows == context.adj.indices]
    assert on_diagonal.tolist() == list(range(10))  # each node's self loop, once


def test_gt_layer_reads_the_adjacency_pattern_of_its_context():
    # Point node 0's neighbor at node 2 instead of node 1, in place: a layer
    # that kept its own copy of the pattern would still attend to node 1.
    context = build_context(from_edge_list(3, [(0, 1)]))
    assert context.adj.indices[:2].tolist() == [0, 1]
    context.adj.indices[1] = 2
    rng = SplitMix64(9)
    params = _gt_params(rng, 3, 4)
    h = rng.normal((3, 3))
    out, backward = graph_transformer_layer(h, context, params, heads=2)
    expected, _ = dense_gt_attention(h, context.adj, params, heads=2)
    assert np.abs(out - expected).max() < 1e-12

    # the pattern is now asymmetric, so the backward's transposed products
    # must follow it too
    weights = rng.normal((3, 4))

    def loss():
        return float((graph_transformer_layer(h, context, params, heads=2)[0] * weights).sum())

    d_h, grads = backward(weights)
    assert rel_error(d_h, numeric_grad(loss, h)) < 1e-8
    for short, p in params.items():
        assert rel_error(grads[short], numeric_grad(loss, p)) < 1e-8, short


def test_gt_backward_handles_isolated_nodes():
    # node 3 has only its self-loop; finite differences must still agree
    context = build_context(from_edge_list(4, [(0, 1), (1, 2)]))
    rng = SplitMix64(21)
    params = _gt_params(rng, 3, 4)
    h = rng.normal((4, 3))
    weights = rng.normal((4, 4))

    def loss():
        return float((graph_transformer_layer(h, context, params, heads=2)[0] * weights).sum())

    _, backward = graph_transformer_layer(h, context, params, heads=2)
    d_h, grads = backward(weights)
    assert rel_error(d_h, numeric_grad(loss, h)) < 1e-5
    for short, p in params.items():
        assert rel_error(grads[short], numeric_grad(loss, p)) < 1e-5


def test_dropout_mask_regenerated_each_training_step():
    ds = _random_dataset()
    spec = ModelSpec("mlp", in_dim=6, num_classes=2, layers=2, hidden=32, dropout=0.5)
    model = init_parameters(spec, seed=0)
    rng, context = SplitMix64(0), build_context(ds.graph)
    first = forward_backward(model, ds, context, rng=rng)[0]
    second = forward_backward(model, ds, context, rng=rng)[0]  # same stream advances
    assert not np.array_equal(first, second)


def test_forward_requires_features_and_matching_dim():
    ds = _random_dataset()
    spec = ModelSpec("gcn", in_dim=9, num_classes=2)
    model = init_parameters(spec, seed=0)
    context = build_context(ds.graph)
    with pytest.raises(ValueError):
        forward_backward(model, ds, context)  # dim mismatch 6 vs 9
    bare = Dataset(ds.graph, None, ds.labels, ds.num_classes)
    with pytest.raises(ValueError):
        model = init_parameters(ModelSpec("gcn", in_dim=6, num_classes=2), 0)
        forward_backward(model, bare, context)

