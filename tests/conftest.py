"""Shared fixtures and independent dense oracles for the test suite.

The dense oracles here deliberately reimplement the math with dense
matrices and plain loops; they never call into the package's sparse or tape
code paths. ``reference_gt_layer`` is the exception: it is the per-head
layout that the graph-transformer layer must match bit for bit, so it runs
the package's ``spmm`` and segment kernels, which are tested against the
oracles above.
"""

import json
import math
import os
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from scipy.sparse import csr_array

from tagforge.features import tokenize
from tagforge.graph import from_edge_list, segment_max, segment_sum, spmm
from tagforge.rng import SplitMix64


# ---------------------------------------------------------------------------
# dense oracles


def dense_normalized_adjacency(graph: csr_array) -> np.ndarray:
    """Materialize D^{-1/2} (A + I) D^{-1/2} densely from scratch."""
    n = graph.shape[0]
    a = np.zeros((n, n))
    for i in range(n):
        for j in graph.indices[graph.indptr[i] : graph.indptr[i + 1]]:
            a[i, j] = 1.0
    a = np.minimum(a + np.eye(n), 1.0)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def dense_gt_attention(h, graph, params, heads):
    """Masked n x n multi-head attention oracle.

    Returns (output, alphas) where alphas[head] is the dense attention
    matrix (rows sum to 1 over each neighborhood).
    """
    n = graph.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, i] = True
        for j in graph.indices[graph.indptr[i] : graph.indptr[i + 1]]:
            mask[i, j] = True
    width = params["W_Q"].value.shape[1]
    d_head = width // heads
    out = np.zeros((n, width))
    alphas = []
    for head in range(heads):
        sl = slice(head * d_head, (head + 1) * d_head)
        q = h @ params["W_Q"].value[:, sl]
        k = h @ params["W_K"].value[:, sl]
        v = h @ params["W_V"].value[:, sl]
        scores = q @ k.T / math.sqrt(d_head)
        scores = np.where(mask, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.where(mask, np.exp(scores), 0.0)
        alpha = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = alpha @ v
        alphas.append(alpha)
    out = out + h @ params["W_S"].value + params["b"].value
    return out, alphas


def reference_segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Segment sums by np.add.reduceat, in storage order; empty segments are zero."""
    n = offsets.shape[0] - 1
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    nonempty = np.flatnonzero(np.diff(offsets) > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def reference_build_vocab(corpus: list[str], vocab_size: int) -> list[str]:
    """Top terms by document frequency, ties lexicographic, from a Counter of
    each document's token set."""
    if not corpus:
        raise ValueError("empty corpus")
    df = Counter()
    for doc in corpus:
        df.update(set(tokenize(doc)))
    ordered = sorted(df.items(), key=lambda item: (-item[1], item[0]))
    return [term for term, _ in ordered[:vocab_size]]


def reference_tfidf(corpus: list[str], vocab_size: int) -> tuple[np.ndarray, list[str]]:
    """TF-IDF by a per-token dense count loop and whole-matrix arithmetic."""
    vocab = reference_build_vocab(corpus, vocab_size)
    index = {term: j for j, term in enumerate(vocab)}
    counts = np.zeros((len(corpus), len(vocab)), dtype=np.float64)
    for i, doc in enumerate(corpus):
        for token in tokenize(doc):
            j = index.get(token)
            if j is not None:
                counts[i, j] += 1.0
    df = (counts > 0).sum(axis=0)
    idf = np.log((1.0 + len(corpus)) / (1.0 + df)) + 1.0
    weighted = counts * idf
    norms = np.linalg.norm(weighted, axis=1, keepdims=True)
    return weighted / np.where(norms == 0.0, 1.0, norms), vocab


def reference_spmm(adj, h: np.ndarray) -> np.ndarray:
    """out[i] = sum_j adj[i, j] * h[j] as a gather plus reference_segment_sum."""
    return reference_segment_sum(adj.data[:, None] * h[adj.indices], adj.indptr)


def transpose_order(adj) -> np.ndarray:
    """``adj``'s entries sorted by (column, row), built without ``.T``.

    On a symmetric pattern, per-entry weights reordered by it, on the same
    offsets and columns, form the transposed weighted matrix.
    """
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    return np.lexsort((rows, adj.indices))


def reference_gt_layer(h, context, params, heads):
    """The graph-transformer layer with one ``spmm`` per head and a concatenate.

    The per-head oracle of ``graph_transformer_layer``: per-entry rows come
    from fancy-indexing by each entry's row, and every transposed product
    reorders its weights by ``transpose_order`` (so the pattern must be
    symmetric). Returns (out, backward) like the layer, with
    ``backward(d_out)`` returning d_h.
    """
    n, width = context.adj.shape[0], params["W_Q"].shape[1]
    d_head = width // heads
    inv_sqrt = 1.0 / math.sqrt(d_head)
    cols, offsets, tperm = context.adj.indices, context.adj.indptr, transpose_order(context.adj)
    rows = np.repeat(np.arange(n), np.diff(offsets))

    q = (h @ params["W_Q"].value).reshape(n, heads, d_head)
    k = (h @ params["W_K"].value).reshape(n, heads, d_head)
    v = (h @ params["W_V"].value).reshape(n, heads, d_head)

    def aggregate(weights, x):
        return np.concatenate(
            [
                spmm(csr_array((weights[:, head], cols, offsets), shape=(n, n)), x[:, head])
                for head in range(heads)
            ],
            axis=1,
        )

    scores = np.einsum("ehd,ehd->eh", q[rows], k[cols]) * inv_sqrt
    exps = np.exp(scores - segment_max(scores, offsets)[rows])
    alpha = exps / segment_sum(exps, offsets)[rows]
    out = aggregate(alpha, v) + h @ params["W_S"].value + params["b"].value

    def backward(d_out):
        params["b"].add_grad(d_out.sum(axis=0, keepdims=True))
        params["W_S"].add_grad(h.T @ d_out)
        d_h = d_out @ params["W_S"].value.T
        d_msg = d_out.reshape(n, heads, d_head)
        d_alpha = np.einsum("ehd,ehd->eh", v[cols], d_msg[rows])
        d_v = aggregate(alpha[tperm], d_msg)
        inner = segment_sum(alpha * d_alpha, offsets)
        d_scores = alpha * (d_alpha - inner[rows]) * inv_sqrt
        d_q = aggregate(d_scores, k)
        d_k = aggregate(d_scores[tperm], q)
        for short, d_proj in (("W_Q", d_q), ("W_K", d_k), ("W_V", d_v)):
            params[short].add_grad(h.T @ d_proj)
            d_h = d_h + d_proj @ params[short].value.T
        return d_h

    return out, backward


def reference_raw(seed: int, start: int, n: int) -> np.ndarray:
    """SplitMix64 outputs ``start + 1`` to ``start + n`` of stream ``seed``,
    mixed in one whole-array pass: the formula ``SplitMix64.raw`` had before
    it ran in blocks."""
    ks = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + ks * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_graph(n: int, p: float, seed: int) -> csr_array:
    """Erdos-Renyi graph via numpy's own generator (independent of tagforge)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return from_edge_list(n, np.stack([iu[keep], ju[keep]], axis=1))


def reference_synthetic_graph(n, classes, p_in, p_out, seed) -> csr_array:
    """``generate_synthetic``'s graph from one draw over the whole upper
    triangle (every node pair in memory at once)."""
    edge_rng = SplitMix64(seed).split()
    labels = np.arange(n, dtype=np.int64) % classes
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = edge_rng.random(iu.shape[0]) < p
    return from_edge_list(n, np.stack([iu[keep], ju[keep]], axis=1))


def assert_graph(g) -> None:
    """``g`` is a graph as ``from_edge_list`` promises: a square, symmetric
    0/1 ``csr_array`` in canonical format with no diagonal."""
    assert isinstance(g, csr_array)
    assert g.shape[0] == g.shape[1]
    # a new array over the same buffers recomputes scipy's cached flag
    assert csr_array((g.data, g.indices, g.indptr), shape=g.shape).has_canonical_format
    assert np.all(g.data == 1.0)
    assert not g.diagonal().any()
    assert (g != g.T).nnz == 0


# ---------------------------------------------------------------------------
# on-disk dataset fixtures


def write_planetoid(directory, name, edges, labels, features=None, texts=None):
    """Write a dataset in the documented on-disk layout; returns the dir."""
    from tagforge.features import save_embedding_file

    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, name)
    with open(stem + ".edges", "w") as fh:
        for i, j in edges:
            fh.write(f"{i} {j}\n")
    with open(stem + ".labels", "w") as fh:
        for label in labels:
            fh.write(f"{label}\n")
    if features is not None:
        save_embedding_file(stem + ".features", np.asarray(features))
    if texts is not None:
        with open(stem + ".texts", "w") as fh:
            fh.write("\n".join(texts) + "\n")
    return directory


# ---------------------------------------------------------------------------
# mock embedding service


class _EmbedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        state["requests"].append(payload)
        if state["fail_remaining"] > 0:
            state["fail_remaining"] -= 1
            self.send_response(500)
            self.end_headers()
            return
        dim = state["dim_override"].pop(0) if state["dim_override"] else state["dim"]
        embeddings = [state["vector_fn"](text, dim) for text in payload["texts"]]
        body = json.dumps({"embeddings": embeddings}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


def _default_vector(text: str, dim: int) -> list[float]:
    # integer-valued so float32 round trips are exact
    base = sum(ord(c) for c in text) % 97
    return [float(base + k) for k in range(dim)]


class EmbedServer:
    def __init__(self):
        self.httpd = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
        self.httpd.state = {
            "requests": [],
            "fail_remaining": 0,
            "dim": 4,
            "dim_override": [],
            "vector_fn": _default_vector,
        }
        # a short poll interval lets shutdown() return without waiting out the 0.5 s default
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.httpd.server_port}"

    @property
    def requests(self) -> list:
        return self.httpd.state["requests"]

    def expected_vector(self, text: str) -> list[float]:
        return _default_vector(text, self.httpd.state["dim"])

    def set_failures(self, n: int) -> None:
        self.httpd.state["fail_remaining"] = n

    def set_dim_overrides(self, dims: list[int]) -> None:
        self.httpd.state["dim_override"] = list(dims)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def embed_server():
    server = EmbedServer()
    yield server
    server.close()
