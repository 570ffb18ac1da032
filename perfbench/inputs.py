"""Seeded workload inputs: a Cora-shaped planetoid directory, and config files.

Everything here draws from ``numpy.random.default_rng(seed)``, never from
tagforge's own generator, so the program under test receives only files.
"""

import json
import os

import numpy as np

# Cora's class sizes (2708 nodes, 7 classes); shuffled onto node ids per seed.
CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)
CORA_EDGES = 5400
WITHIN_CLASS_SHARE = 0.8

BACKGROUND_WORDS = 4000
TOPIC_WORDS = 60
TOPIC_SHARE = 0.25  # tokens drawn from the node's own class topic
NOISE_TOPIC_SHARE = 0.08  # tokens drawn from a random class topic
DOC_LENGTH = (20, 60)  # uniform token count per document, inclusive

_ONSETS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _word(k: int) -> str:
    """A deterministic pronounceable token for vocabulary index ``k``."""
    syllables = []
    k += 1
    while k:
        k, r = divmod(k, len(_ONSETS) * len(_VOWELS))
        syllables.append(_ONSETS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(syllables)


VOCAB = [_word(k) for k in range(BACKGROUND_WORDS + len(CORA_CLASS_SIZES) * TOPIC_WORDS)]


def _edges(rng, labels, n_edges, within_share):
    """Unique undirected edges; endpoints favour heavy-tailed node weights."""
    n = labels.shape[0]
    weight = rng.pareto(2.5, n) + 1.0
    n_within = int(round(n_edges * within_share))
    chosen = []
    for c in range(int(labels.max()) + 1):
        nodes = np.flatnonzero(labels == c)
        want = int(round(n_within * nodes.size / n))
        chosen.append(_draw_pairs(rng, nodes, weight[nodes], want, lambda a, b: a != b))
    chosen.append(_draw_pairs(rng, np.arange(n), weight, n_edges - n_within,
                              lambda a, b: labels[a] != labels[b]))
    return np.concatenate(chosen)


def _draw_pairs(rng, nodes, weight, want, keep):
    p = weight / weight.sum()
    found = np.zeros((0, 2), dtype=np.int64)
    while found.shape[0] < want:
        pairs = np.sort(rng.choice(nodes, size=(4 * want, 2), p=p), axis=1)
        pairs = pairs[keep(pairs[:, 0], pairs[:, 1])]
        found = np.unique(np.concatenate([found, pairs]), axis=0)
    return found[rng.permutation(found.shape[0])[:want]]


def _texts(rng, labels):
    """One document per node: class topic + noise topic + Zipf background."""
    n_classes = int(labels.max()) + 1
    lengths = rng.integers(DOC_LENGTH[0], DOC_LENGTH[1] + 1, size=labels.shape[0])
    owner = np.repeat(labels, lengths)
    total = owner.shape[0]
    zipf = 1.0 / np.arange(1, BACKGROUND_WORDS + 1)
    tokens = rng.choice(BACKGROUND_WORDS, size=total, p=zipf / zipf.sum())
    source = rng.random(total)
    topic_rank = rng.zipf(1.5, size=total) % TOPIC_WORDS
    own = source < TOPIC_SHARE
    noise = (source >= TOPIC_SHARE) & (source < TOPIC_SHARE + NOISE_TOPIC_SHARE)
    topic_class = np.where(noise, rng.integers(0, n_classes, size=total), owner)
    topical = own | noise
    tokens[topical] = BACKGROUND_WORDS + topic_class[topical] * TOPIC_WORDS + topic_rank[topical]
    words = [VOCAB[t] for t in tokens.tolist()]
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    return [" ".join(words[a:b]) for a, b in zip(starts, ends)]


def write_cora(directory: str, seed: int, name: str = "cora") -> None:
    """Write ``<name>.edges``, ``.labels`` and ``.texts`` for a Cora-shaped graph."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(CORA_CLASS_SIZES)), CORA_CLASS_SIZES))
    edges = _edges(rng, labels, CORA_EDGES, WITHIN_CLASS_SHARE)
    texts = _texts(rng, labels)
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, name)
    with open(stem + ".labels", "w") as fh:
        fh.write("\n".join(map(str, labels.tolist())) + "\n")
    with open(stem + ".edges", "w") as fh:
        fh.write("".join(f"{a} {b}\n" for a, b in edges.tolist()))
    with open(stem + ".texts", "w") as fh:
        fh.write("\n".join(texts) + "\n")


def write_config(path: str, config: dict) -> str:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path
