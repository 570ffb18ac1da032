"""The three node-classification architectures assembled from nn primitives.

``ARCH_TABLE`` maps each arch to what differs between them: per-layer
parameter shapes ``(d_in, d_out) -> {short: shape}``, the layer call
``(h, context, params, heads) -> (out, backward)``, whether hidden layers
are multi-head, and whether the layer reads a ``PropagationContext`` (MLP
does not). The context holds one self-looped CSR per graph: GCN
multiplies by it, the graph transformer attends over its pattern. Init,
``forward_backward`` and ``gradcheck`` all read the table.
Calls name the layer functions as module globals, looked up when they
run, so a wrapper installed on ``models.<layer>`` sees every call.

Layer l = 0..L-1 maps d_l -> d_{l+1}, with d_0 = in_dim, hidden widths in
between and d_L = num_classes. MLP and GCN layers hold ``layer{l}.W``
(d_in, d_out) and ``layer{l}.b`` (1, d_out). Graph-transformer layers
hold ``W_Q|W_K|W_V|W_S`` (d_in, d_out) and ``b`` (1, d_out), with d_out =
heads * d_head: hidden layers use spec.heads heads, the final layer one
head of width num_classes.

Weights are Glorot-uniform, U(-a, a) with a = sqrt(6 / (fan_in + fan_out));
biases start at zero. Initialization draws weights in table order from one
SplitMix64 stream, so a seed pins every parameter.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .graph import normalize_adjacency, segment_max, segment_sum, spmm
from .nn import Parameter, add_bias, dropout, dropout_backward, matmul, relu
from .rng import SplitMix64


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    in_dim: int
    num_classes: int
    layers: int = 4
    hidden: int = 64
    heads: int = 4
    dropout: float = 0.5

    def __post_init__(self):
        if self.arch not in ARCH_TABLE:
            raise ValueError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        if self.layers < 2:
            raise ValueError("need at least 2 layers")
        if self.in_dim < 1 or self.num_classes < 2 or self.hidden < 1:
            raise ValueError("in_dim/hidden must be >= 1 and num_classes >= 2")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if ARCH_TABLE[self.arch].multi_head and self.hidden % self.heads != 0:
            raise ValueError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def layer_table(self) -> list[tuple[dict[str, tuple[int, int]], int]]:
        """Per layer, ``({short: shape}, heads)`` from the arch's table row."""
        arch = ARCH_TABLE[self.arch]
        dims = [self.in_dim] + [self.hidden] * (self.layers - 1) + [self.num_classes]
        heads = [self.heads if arch.multi_head else 1] * (self.layers - 1) + [1]
        return [(arch.shapes(d_in, d_out), h) for d_in, d_out, h in zip(dims, dims[1:], heads)]


@dataclass
class Model:
    """``parameters``, keyed ``layer{l}.{short}``, feeds Adam and snapshots;
    ``layers`` holds each layer's ``({short: Parameter}, heads)``."""

    spec: ModelSpec
    parameters: dict[str, Parameter]
    layers: list[tuple[dict[str, Parameter], int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = [
            ({short: self.parameters[f"layer{layer}.{short}"] for short in shapes}, heads)
            for layer, (shapes, heads) in enumerate(self.spec.layer_table())
        ]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self.parameters.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, p in self.parameters.items():
            p.value[...] = snapshot[name]


@dataclass(frozen=True)
class HeadIndex:
    """The context's (node, head) CSR at one head count H.

    Row ``i*H + h`` holds the columns ``j*H + h`` for j in N(i) ∪ {i}, in
    the adjacency's entry order, so one ``spmm`` over an (n*H, d_head)
    operand aggregates every head at once and each row sums in the same
    order as a per-head product. ``flat`` gathers an (E, H) per-entry
    weight array, flattened, into this layout.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    flat: np.ndarray


@dataclass(frozen=True)
class PropagationContext:
    """The per-graph operator that both graph layers read, built once per run.

    ``adj`` is the normalized self-looped adjacency D^{-1/2}(A+I)D^{-1/2}
    (``normalize_adjacency``): GCN aggregates with it, and the graph
    transformer attends over its pattern, N(i) ∪ {i}, reading its
    ``indptr`` and ``indices``. ``head_index(heads)`` is built on first
    use and kept here, so it lives as long as the context.
    """

    adj: csr_array
    _head_indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def head_index(self, heads: int) -> HeadIndex:
        index = self._head_indices.get(heads)
        if index is None:
            index = self._head_indices[heads] = build_head_index(self, heads)
        return index


def build_context(g: csr_array) -> PropagationContext:
    return PropagationContext(normalize_adjacency(g))


def build_head_index(context: PropagationContext, heads: int) -> HeadIndex:
    """The (node, head) CSR of ``context.adj``'s pattern; see HeadIndex."""
    adj, head = context.adj, np.arange(heads)
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    # (E, H) entries, flattened, stably sorted by their (node, head) row
    flat = np.argsort((rows[:, None] * heads + head).ravel(), kind="stable")
    columns = (adj.indices[:, None].astype(np.int64) * heads + head).ravel()[flat]
    offsets = np.concatenate([[0], np.cumsum(np.repeat(np.diff(adj.indptr), heads))])
    return HeadIndex(offsets, columns, flat)


def glorot_uniform(rng: SplitMix64, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return (rng.random((fan_in, fan_out)) * 2.0 - 1.0) * a


def init_parameters(spec: ModelSpec, seed: int) -> Model:
    rng = SplitMix64(seed)
    params: dict[str, Parameter] = {}
    for layer, (shapes, _) in enumerate(spec.layer_table()):
        for short, shape in shapes.items():
            name = f"layer{layer}.{short}"
            value = np.zeros(shape) if short == "b" else glorot_uniform(rng, *shape)
            params[name] = Parameter(value, name)
    return Model(spec, params)


def mlp_layer(h: np.ndarray, W: Parameter, b: Parameter):
    """h @ W + b. Backward accumulates into W/b and returns dH (None when
    called with ``input_grad=False``); the layer backwards below do the same."""
    z, mm_back = matmul(h, W.value)
    out, bias_back = add_bias(z, b.value)

    def backward(d_out, input_grad: bool = True):
        d_z, d_b = bias_back(d_out)
        d_h, d_W = mm_back(d_z, input_grad)
        W.add_grad(d_W)
        b.add_grad(d_b)
        return d_h

    return out, backward


def gcn_layer(h: np.ndarray, adj: csr_array, W: Parameter, b: Parameter):
    """spmm(adj, h) @ W + b.

    Computed as spmm(adj, h @ W) + b: the aggregation is linear, so the
    transform commutes with it, and aggregating the narrower matrix is far
    cheaper when in_dim >> out_dim. Backward propagates gradients through
    the transpose view, spmm(adj.T, d_agg).
    """
    z, mm_back = matmul(h, W.value)
    agg = spmm(adj, z)
    out, bias_back = add_bias(agg, b.value)

    def backward(d_out, input_grad: bool = True):
        d_agg, d_b = bias_back(d_out)
        d_z = spmm(adj.T, d_agg)
        d_h, d_W = mm_back(d_z, input_grad)
        W.add_grad(d_W)
        b.add_grad(d_b)
        return d_h

    return out, backward


# Bytes of one operand's gather per ``entry_dots`` block: a block stays in
# cache, where a whole (E, H, d_head) gather (6.9 MB on Cora) is written and
# page-faulted on every call. At 2,708 nodes, 4 heads of 16, on a 2-vCPU VM,
# a layer forward plus backward took ~24 ms at 64-512 KiB, 27-33 ms at 16-32
# KiB or 1-4 MiB, and 45 ms with whole gathers.
_BLOCK_BYTES = 256 * 1024


def graph_transformer_layer(
    h: np.ndarray, context: PropagationContext, params: dict[str, Parameter], heads: int
):
    """Multi-head dot-product attention over each node's neighbors + self.

    Per head, attention weights are a softmax over the neighborhood of
    query-key scores scaled by 1/sqrt(d_head); head outputs are
    concatenated and a learned skip transform W_S h + b is added. The
    neighborhoods are the rows of ``context.adj``'s pattern (its weights
    are not read). Every aggregation is one ``spmm`` over the context's
    (node, head) CSR (see HeadIndex); the backward's transposed products
    multiply by that CSR's ``.T`` view, so the pattern need not be
    symmetric. The per-entry dot products (scores, ``d_alpha``) run one
    ``_BLOCK_BYTES`` block of entries at a time, each entry still one
    einsum over its d_head values.
    """
    n = context.adj.shape[0]
    if h.shape[0] != n:
        raise ValueError(f"feature rows {h.shape[0]} != num_nodes {n}")
    width = params["W_Q"].shape[1]
    if width % heads != 0:
        raise ValueError(f"attention width {width} not divisible by heads {heads}")
    d_head = width // heads
    inv_sqrt = 1.0 / math.sqrt(d_head)
    cols, offsets = context.adj.indices, context.adj.indptr
    degrees = np.diff(offsets)
    index = context.head_index(heads)

    q = (h @ params["W_Q"].value).reshape(n, heads, d_head)
    k = (h @ params["W_K"].value).reshape(n, heads, d_head)
    v = (h @ params["W_V"].value).reshape(n, heads, d_head)

    def head_csr(weights):
        """The (node, head) CSR holding the (E, H) per-entry ``weights``."""
        data = weights.reshape(-1)[index.flat]
        return csr_array((data, index.col_indices, index.row_offsets), (n * heads, n * heads))

    def aggregate(m, x):
        """(n, width): the (node, head) matrix ``m`` times every head of x."""
        return spmm(m, x.reshape(n * heads, d_head)).reshape(n, width)

    def per_entry(x):
        """Per-node rows repeated once per entry of their row (rows are sorted)."""
        return np.repeat(x, degrees, axis=0)

    block = max(1, _BLOCK_BYTES // (width * 8))

    def entry_dots(a, b):
        """(E, H): the dot product over d_head of a[rows[e]] and b[cols[e]]."""
        rows = np.repeat(np.arange(n), degrees)  # per call, so no backward closure keeps it
        dots = np.empty((cols.shape[0], heads))
        for start in range(0, cols.shape[0], block):
            e = slice(start, start + block)
            np.einsum("ehd,ehd->eh", a[rows[e]], b[cols[e]], out=dots[e])
        return dots

    scores = entry_dots(q, k) * inv_sqrt
    shifted = scores - per_entry(segment_max(scores, offsets))
    exps = np.exp(shifted)
    alpha = exps / per_entry(segment_sum(exps, offsets))

    out = h @ params["W_S"].value  # addition commutes: the bits of (agg + hW) + b
    out += aggregate(head_csr(alpha), v)
    out += params["b"].value

    def backward(d_out, input_grad: bool = True):
        params["b"].add_grad(d_out.sum(axis=0, keepdims=True))
        params["W_S"].add_grad(h.T @ d_out)
        d_h = d_out @ params["W_S"].value.T if input_grad else None

        d_msg = d_out.reshape(n, heads, d_head)
        d_v = aggregate(head_csr(alpha).T, d_msg)  # rebuilt: keeping it put a copy on every tape
        params["W_V"].add_grad(h.T @ d_v)

        # softmax backward per neighborhood segment
        d_alpha = entry_dots(d_msg, v)
        inner = segment_sum(alpha * d_alpha, offsets)
        d_scores = head_csr(alpha * (d_alpha - per_entry(inner)) * inv_sqrt)
        del d_alpha, inner

        # d_h sums the W_S, W_Q, W_K, W_V terms in order; d_q and d_k live one at a time
        for short, m, x in (("W_Q", d_scores, k), ("W_K", d_scores.T, q)):
            d_proj = aggregate(m, x)
            params[short].add_grad(h.T @ d_proj)
            if input_grad:
                d_h += d_proj @ params[short].value.T
            del d_proj
        del d_scores, m  # m is the last transposed view of d_scores
        if input_grad:
            d_h += d_v @ params["W_V"].value.T
        return d_h

    return out, backward


@dataclass(frozen=True)
class Architecture:
    """One row of ARCH_TABLE; see the module docstring."""

    shapes: Callable[[int, int], dict[str, tuple[int, int]]]
    call: Callable
    multi_head: bool = False
    needs_context: bool = True


def _shapes(*weights: str) -> Callable[[int, int], dict[str, tuple[int, int]]]:
    """Shapes of a layer with the given (d_in, d_out) weights and a (1, d_out) bias ``b``."""
    return lambda d_in, d_out: {**dict.fromkeys(weights, (d_in, d_out)), "b": (1, d_out)}


ARCH_TABLE: dict[str, Architecture] = {
    "gcn": Architecture(
        _shapes("W"), lambda h, context, p, heads: gcn_layer(h, context.adj, p["W"], p["b"])
    ),
    "graph_transformer": Architecture(
        _shapes("W_Q", "W_K", "W_V", "W_S"),
        lambda h, context, p, heads: graph_transformer_layer(h, context, p, heads),
        multi_head=True,
    ),
    "mlp": Architecture(
        _shapes("W"),
        lambda h, context, p, heads: mlp_layer(h, p["W"], p["b"]),
        needs_context=False,
    ),
}
ARCHITECTURES = tuple(ARCH_TABLE)


def forward_backward(
    model: Model,
    dataset,
    context: PropagationContext | None = None,
    training: bool = False,
    rng: SplitMix64 | None = None,
    layer0: list | None = None,
):
    """Full forward pass; returns (logits, backward), backward None unless ``training``.

    Hidden layers apply {layer -> ReLU -> dropout}; the final layer emits
    raw logits. ``dataset.features`` may be an ndarray or a
    ``scipy.sparse.csr_array``; only layer 0 reads it. ``backward(d_logits)``
    accumulates parameter gradients and returns None: the features are not
    trained, so layer 0 runs with ``input_grad=False`` and skips the
    gradient at its input.

    Only a training forward keeps a tape: each layer's closure (with what it
    saved), ReLU gate and dropout mask; evaluation drops them before the
    next layer runs. ``backward`` pops each closure before calling it, so a
    layer's saved arrays are freed once its gradient has passed; it runs
    once, and a second call raises RuntimeError.

    ``layer0`` hands layer 0's ``(out, backward)`` pair from an evaluation
    forward, which appends it, to the next training forward, which pops it
    instead of calling layer 0. Layers do not read ``training`` and dropout
    acts after layer 0, so the pair equals a fresh call while parameters
    and features stay unchanged; ``train.train`` guarantees that.
    """
    spec = model.spec
    arch = ARCH_TABLE[spec.arch]
    h = dataset.features
    if h is None:
        raise ValueError("dataset has no feature matrix")
    if h.shape[1] != spec.in_dim:
        raise ValueError(f"feature dim {h.shape[1]} != spec.in_dim {spec.in_dim}")
    if context is None and arch.needs_context:
        context = build_context(dataset.graph)
    keep_prob = 1.0 - spec.dropout
    if training and keep_prob < 1.0 and rng is None:
        raise ValueError("training with dropout requires an rng")

    tape = []
    for layer, (params, heads) in enumerate(model.layers):
        if layer == 0 and training and layer0:
            h, back = layer0.pop()
        else:
            h, back = arch.call(h, context, params, heads)
            if layer == 0 and not training and layer0 is not None:
                layer0.append((h, back))
        if training:
            tape.append(back)
        del back
        if layer < spec.layers - 1:
            h, relu_back = relu(h)
            if training:
                tape.append(relu_back)
                h, mask = dropout(h, keep_prob, rng=rng, training=True)
                tape.append(lambda d, m=mask: dropout_backward(m, d))
            del relu_back

    def backward(d_logits):
        if not tape:
            raise RuntimeError("backward runs once: it frees its tape as it walks it")
        walk = tape.copy()
        tape.clear()
        d = d_logits
        while len(walk) > 1:
            d = walk.pop()(d)
        walk.pop()(d, input_grad=False)  # layer 0

    return h, (backward if training else None)


def forward(
    model: Model,
    dataset,
    context: PropagationContext | None = None,
    training: bool = False,
    rng: SplitMix64 | None = None,
    layer0: list | None = None,
) -> np.ndarray:
    """Logits only; see forward_backward."""
    return forward_backward(model, dataset, context, training, rng, layer0)[0]
