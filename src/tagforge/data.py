"""Datasets: on-disk loading, split protocols, and a synthetic generator.

On-disk layout (all files share a ``<name>`` stem inside one directory):

* ``<name>.edges``   two whitespace-separated node ids per line (an empty
  file is a valid edgeless graph); direction is ignored, duplicates and
  self-citations are dropped, and the graph is held as the symmetric 0/1
  ``csr_array`` that ``graph.from_edge_list`` builds
* ``<name>.labels``  one integer class id per line, line i for node i - 1;
  the line count defines the node count, and blank lines may only trail
* ``<name>.texts``   optional, one raw document per line

The loader reads nothing else. Node features come from an encoder (see
``bench``); a precomputed EMB1 matrix is used through a ``file`` encoder.
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .graph import from_edge_list
from .rng import SplitMix64

# generate_synthetic draws about this many node pairs at a time
_PAIR_BLOCK = 1 << 15


class DatasetFormatError(ValueError):
    """On-disk dataset contents are inconsistent or malformed."""


@dataclass(frozen=True)
class SplitMask:
    """Disjoint train/val/test node-id sets, stored sorted."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, num_nodes: int) -> None:
        parts = [self.train, self.val, self.test]
        names = ["train", "val", "test"]
        for name, part in zip(names, parts):
            if part.size == 0:
                raise ValueError(f"{name} set is empty")
            if part.min() < 0 or part.max() >= num_nodes:
                raise ValueError(f"{name} set has node ids out of range")
            if np.unique(part).size != part.size:
                raise ValueError(f"{name} set has duplicate node ids")
        merged = np.concatenate(parts)
        if np.unique(merged).size != merged.size:
            raise ValueError("train/val/test sets overlap")


@dataclass
class Dataset:
    """A graph with node features, labels, and optional texts.

    ``graph`` is the (n, n) symmetric 0/1 ``csr_array`` adjacency, sorted,
    duplicate-free and without self loops (``graph.from_edge_list``).
    ``features`` is a dense ndarray or, for sparse encoders, a
    ``csr_array`` (see ``bench.load_features``); None until an encoder's
    features are bound (``load_planetoid`` reads none).
    """

    graph: csr_array
    features: np.ndarray | csr_array | None
    labels: np.ndarray
    num_classes: int
    texts: list[str] | None = None
    name: str = "dataset"

    @property
    def num_nodes(self) -> int:
        return self.graph.shape[0]


def _read_labels(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    while lines and not lines[-1]:
        lines.pop()  # trailing blank lines; any other would renumber the nodes after it
    labels = []
    for lineno, ln in enumerate(lines, 1):
        if not ln:
            raise DatasetFormatError(f"{path}:{lineno}: blank line before a label")
        try:
            labels.append(int(ln))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: labels must be integers") from exc
        if labels[-1] < 0:
            raise DatasetFormatError(f"{path}:{lineno}: negative class id")
    if not labels:
        raise DatasetFormatError(f"{path}: no labels")
    return np.array(labels, dtype=np.int64)


def _read_edges(path: str, n: int) -> list[tuple[int, int]]:
    edges = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DatasetFormatError(f"{path}:{lineno}: expected two node ids")
            try:
                edge = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: non-integer node id") from exc
            if not (0 <= edge[0] < n and 0 <= edge[1] < n):
                raise DatasetFormatError(f"{path}:{lineno}: node id outside 0..{n - 1}")
            edges.append(edge)
    return edges


def load_planetoid(dir: str, name: str) -> Dataset:
    """Load a dataset in the on-disk format documented in this module.

    The graph is symmetrized on load; a texts file is used when present
    and checked for a consistent node count. ``features`` is None.
    """
    stem = os.path.join(dir, name)
    labels_path, edges_path = stem + ".labels", stem + ".edges"
    for path in (labels_path, edges_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing dataset file: {path}")
    labels = _read_labels(labels_path)
    n = labels.shape[0]
    num_classes = int(labels.max()) + 1
    present = np.unique(labels)
    if present.size != num_classes:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise DatasetFormatError(f"{labels_path}: classes {missing} have no nodes")

    graph = from_edge_list(n, _read_edges(edges_path, n))

    texts = None
    if os.path.exists(stem + ".texts"):
        with open(stem + ".texts") as fh:
            texts = [ln.rstrip("\n") for ln in fh]
        if len(texts) != n:
            raise DatasetFormatError(f"{stem}.texts has {len(texts)} lines, expected {n}")

    return Dataset(graph, None, labels, num_classes, texts, name=name)


def split_low(
    labels: np.ndarray,
    num_classes: int | None = None,
    per_class: int = 20,
    n_val: int = 500,
    n_test: int = 1000,
    seed: int = 0,
) -> SplitMask:
    """Low-label protocol: ``per_class`` training nodes per class, then val
    and test drawn uniformly without replacement from the remaining pool.

    Classes are processed in ascending order, each drawing from the same
    stream, so the result is a pure function of (labels, sizes, seed).
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = int(labels.max()) + 1 if num_classes is None else num_classes
    rng = SplitMix64(seed)
    train_parts = []
    for c in range(classes):
        nodes_c = np.flatnonzero(labels == c)
        if nodes_c.size < per_class:
            raise ValueError(
                f"class {c} has {nodes_c.size} nodes, need {per_class} for training"
            )
        train_parts.append(nodes_c[rng.permutation(nodes_c.size)[:per_class]])
    train = np.sort(np.concatenate(train_parts))
    pool = np.setdiff1d(np.arange(labels.shape[0], dtype=np.int64), train)
    if pool.size < n_val + n_test:
        raise ValueError(
            f"{pool.size} nodes remain after training selection, "
            f"need {n_val + n_test} for val+test"
        )
    perm = rng.permutation(pool.size)
    val = np.sort(pool[perm[:n_val]])
    test = np.sort(pool[perm[n_val : n_val + n_test]])
    mask = SplitMask(train, val, test)
    mask.validate(labels.shape[0])
    return mask


def split_high(n: int, seed: int = 0) -> SplitMask:
    """High-label protocol: an exhaustive 60/20/20 split of all n nodes.

    Train and val take floor(0.6 n) and floor(0.2 n) nodes; test takes the
    remainder.
    """
    if n < 5:
        raise ValueError(f"need at least 5 nodes to split, got {n}")
    n_train, n_val = 3 * n // 5, n // 5
    perm = SplitMix64(seed).permutation(n)
    mask = SplitMask(
        train=np.sort(perm[:n_train]),
        val=np.sort(perm[n_train : n_train + n_val]),
        test=np.sort(perm[n_train + n_val :]),
    )
    mask.validate(n)
    return mask


def check_synthetic(n: int, classes: int, p_in: float, p_out: float, dim: int) -> None:
    """Raise ValueError, naming the argument, unless ``generate_synthetic`` can run."""
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if not 2 <= classes <= n:
        raise ValueError(f"need 2 <= classes <= n, got classes={classes} n={n}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")


def generate_synthetic(
    n: int,
    classes: int,
    p_in: float,
    p_out: float,
    dim: int = 16,
    sep: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Planted-partition graph with class-separated Gaussian features.

    Labels are assigned round-robin (balanced within one). Same-class node
    pairs are joined with probability ``p_in``, cross-class pairs with
    ``p_out``. Class c features are drawn around ``sep * u_c`` for a random
    unit vector u_c. Each node also gets a small synthetic document mixing
    class-specific and shared tokens, so text encoders run end to end.
    """
    check_synthetic(n, classes, p_in, p_out, dim)

    root = SplitMix64(seed)
    edge_rng, feat_rng, text_rng = root.split(), root.split(), root.split()

    labels = np.arange(n, dtype=np.int64) % classes

    # The pair stream is the upper triangle in row-major order, drawn a block
    # of rows at a time: the same uniforms as one whole-triangle draw, in
    # O(n + edges) memory.
    rows = max(1, _PAIR_BLOCK // n)
    edges = []
    for start in range(0, n, rows):
        iu, ju = np.triu_indices(min(rows, n - start), k=start + 1, m=n)
        iu += start
        p = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = edge_rng.random(iu.shape[0]) < p
        edges.append(np.stack([iu[keep], ju[keep]], axis=1))
    graph = from_edge_list(n, np.concatenate(edges))

    means = feat_rng.normal((classes, dim))
    means = sep * means / np.linalg.norm(means, axis=1, keepdims=True)
    features = means[labels] + feat_rng.normal((n, dim))

    class_vocab = [[f"c{c}w{k}" for k in range(6)] for c in range(classes)]
    shared_vocab = [f"common{k}" for k in range(8)]
    picks = (text_rng.random((n, 8)) * 6).astype(np.int64)  # 5 class + 3 shared slots
    texts = []
    for i in range(n):
        words = [class_vocab[labels[i]][picks[i, k] % 6] for k in range(5)]
        words += [shared_vocab[picks[i, 5 + k] % 8] for k in range(3)]
        texts.append(" ".join(words))

    return Dataset(
        graph,
        features,
        labels,
        classes,
        texts=texts,
        name=f"synthetic-n{n}-c{classes}",
    )
