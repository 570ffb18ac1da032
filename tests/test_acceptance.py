"""Acceptance suite: one test per release criterion, at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion.

Criteria 5 and 6 need the real Cora dataset on disk (directory from
$TAGFORGE_DATA, default <repo>/data/cora, in the documented on-disk
format; see scripts/convert_cora.py). They skip when it is absent.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import dense_gt_attention, dense_normalized_adjacency, random_graph, write_planetoid
from tagforge.cli import main
from tagforge.data import generate_synthetic, load_planetoid, split_high, split_low
from tagforge.features import load_embedding_file, save_embedding_file, tfidf
from tagforge.gradcheck import CHECKS, TOLERANCE, run_gradcheck
from tagforge.graph import normalize_adjacency
from tagforge.models import (
    ModelSpec,
    build_context,
    gcn_layer,
    graph_transformer_layer,
    init_parameters,
)
from tagforge.nn import Parameter, infonce
from tagforge.rng import SplitMix64
from tagforge.train import TrainSpec, aggregate, train

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORA_DIR = os.environ.get("TAGFORGE_DATA", os.path.join(_REPO_ROOT, "data", "cora"))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_gradient_oracle():
    started = time.time()
    results = run_gradcheck(seeds=range(5))
    elapsed = time.time() - started
    assert {r.op for r in results} == set(CHECKS)  # every op exactly once
    worst = max(results, key=lambda r: r.max_rel_error)
    _report(
        1,
        all(r.ok for r in results) and elapsed < 120.0,
        f"finite differences: worst {worst.op} rel err {worst.max_rel_error:.2e} "
        f"(tol {TOLERANCE:g}), {len(results)} ops x 5 seeds in {elapsed:.1f}s",
    )


def test_criterion_2_dense_oracle_equivalence():
    worst = 0.0
    for seed in range(6):
        n = 6 + seed * 5  # 6..31 <= 32
        g = random_graph(n, 0.3, seed)
        rng = SplitMix64(seed + 1000)
        h = rng.normal((n, 6))

        W = Parameter(rng.normal((6, 4)), "W")
        b = Parameter(rng.normal((1, 4)), "b")
        gcn_out, _ = gcn_layer(h, normalize_adjacency(g), W, b)
        gcn_dense = dense_normalized_adjacency(g) @ h @ W.value + b.value
        worst = max(worst, float(np.abs(gcn_out - gcn_dense).max()))

        params = {
            name: Parameter(rng.normal((6, 8)), name)
            for name in ("W_Q", "W_K", "W_V", "W_S")
        }
        params["b"] = Parameter(rng.normal((1, 8)), "b")
        gt_out, _ = graph_transformer_layer(h, build_context(g), params, heads=2)
        gt_dense, _ = dense_gt_attention(h, g, params, heads=2)
        worst = max(worst, float(np.abs(gt_out - gt_dense).max()))
    _report(2, worst < 1e-10, f"GCN/GT layers vs dense oracles: max abs diff {worst:.2e}")


def test_criterion_3_split_protocol_counts():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, size=2708)
    labels[:7] = np.arange(7)
    low = split_low(labels, num_classes=7, seed=0)
    low_sizes = (low.train.size, low.val.size, low.test.size)
    high = split_high(1000, seed=0)
    high_sizes = (high.train.size, high.val.size, high.test.size)
    _report(
        3,
        low_sizes == (140, 500, 1000) and high_sizes == (600, 200, 200),
        f"split_low {low_sizes} (want 140/500/1000), split_high {high_sizes} "
        f"(want 600/200/200)",
    )


def test_criterion_4_separable_toy_problem():
    started = time.time()
    ds = generate_synthetic(n=100, classes=2, p_in=1.0, p_out=0.0, dim=16,
                            sep=5.0, seed=0)
    split = split_high(ds.num_nodes, seed=0)
    accs = {}
    for arch in ("gcn", "graph_transformer", "mlp"):
        spec = ModelSpec(arch, in_dim=16, num_classes=2)
        result = train(init_parameters(spec, 0), ds, split, TrainSpec(), seed=0)
        accs[arch] = result.test_acc_at_best_val
        assert result.epochs_ran <= 300
    elapsed = time.time() - started
    ok = (
        accs["gcn"] == 1.0
        and accs["graph_transformer"] == 1.0
        and accs["mlp"] >= 0.95
        and elapsed < 30.0
    )
    _report(4, ok, f"2-clique toy: {accs} in {elapsed:.1f}s (< 30s)")


def _cora_available() -> bool:
    stem = os.path.join(CORA_DIR, "cora")
    if not (os.path.exists(stem + ".labels") and os.path.exists(stem + ".edges")):
        return False
    return os.path.exists(stem + ".features") or os.path.exists(stem + ".texts")


requires_cora = pytest.mark.skipif(
    not _cora_available(),
    reason=f"real Cora dataset not present under {CORA_DIR} "
    "(see scripts/convert_cora.py)",
)


def planetoid_features(directory: str, name: str, texts: list[str] | None) -> np.ndarray:
    """Criteria 5 and 6's features: ``<name>.features`` as float64 when the
    directory has one, else TF-IDF over the dataset's texts."""
    path = os.path.join(directory, name + ".features")
    if os.path.exists(path):
        return load_embedding_file(path).astype(np.float64)
    return tfidf(texts, vocab_size=2000)[0]


def test_planetoid_features_reads_the_file_or_falls_back_to_tfidf(tmp_path):
    texts = ["alpha beta", "beta gamma", "alpha", "gamma gamma"]
    values = np.arange(8, dtype=np.float32).reshape(4, 2) / 3
    with_file = write_planetoid(tmp_path / "a", "toy", [(0, 1)], [0, 1, 0, 1],
                                features=values, texts=texts)
    features = planetoid_features(with_file, "toy", texts)
    assert features.dtype == np.float64 and np.array_equal(features, values)
    texts_only = write_planetoid(tmp_path / "b", "toy", [(0, 1)], [0, 1, 0, 1], texts=texts)
    assert np.array_equal(planetoid_features(texts_only, "toy", texts),
                          tfidf(texts, vocab_size=2000)[0])


@pytest.fixture(scope="module")
def cora_accuracies():
    """Five-seed accuracy means for all three architectures on Cora."""
    started = time.time()
    ds = load_planetoid(CORA_DIR, "cora")
    ds.features = planetoid_features(CORA_DIR, "cora", ds.texts)
    tspec = TrainSpec()  # 300 epochs, patience 10, lr 0.01, wd 5e-4, 5 seeds
    means = {}
    for arch in ("gcn", "graph_transformer", "mlp"):
        spec = ModelSpec(arch, in_dim=ds.features.shape[1], num_classes=ds.num_classes)
        results = []
        for seed in tspec.seeds:
            split = split_high(ds.num_nodes, seed=seed)
            model = init_parameters(spec, seed)
            results.append(train(model, ds, split, tspec, seed))
        means[arch], _ = aggregate(results)
    return means, time.time() - started


@requires_cora
def test_criterion_5_cora_reproduction(cora_accuracies):
    means, elapsed = cora_accuracies
    gcn, gt = means["gcn"], means["graph_transformer"]
    ok = gcn >= 0.75 and gt >= gcn - 0.01 and elapsed < 600.0
    _report(
        5,
        ok,
        f"Cora high-label bag-of-words: GCN {gcn:.4f} (>= 0.75), "
        f"GT {gt:.4f} (>= GCN - 0.01), {elapsed:.0f}s (< 600s)",
    )


@requires_cora
def test_criterion_6_structure_beats_mlp(cora_accuracies):
    means, _ = cora_accuracies
    gap = means["gcn"] - means["mlp"]
    _report(
        6,
        gap >= 0.05,
        f"Cora same features: GCN {means['gcn']:.4f} vs MLP {means['mlp']:.4f}, "
        f"gap {gap:.4f} (>= 0.05)",
    )


def test_criterion_7_one_hot_embedding_upper_bound(tmp_path):
    ds = generate_synthetic(n=150, classes=3, p_in=0.6, p_out=0.01, dim=4,
                            sep=1.0, seed=5)
    one_hot = np.eye(ds.num_classes, dtype=np.float32)[ds.labels]
    path = str(tmp_path / "onehot.emb")
    save_embedding_file(path, one_hot)
    ds.features = load_embedding_file(path).astype(np.float64)
    split = split_high(ds.num_nodes, seed=0)
    accs = {}
    for arch in ("gcn", "graph_transformer", "mlp"):
        spec = ModelSpec(arch, in_dim=ds.num_classes, num_classes=ds.num_classes)
        result = train(init_parameters(spec, 0), ds, split, TrainSpec(), seed=0)
        accs[arch] = result.test_acc_at_best_val
    _report(7, all(a >= 0.99 for a in accs.values()),
            f"one-hot-label EMB1 features: {accs} (all >= 0.99)")


def test_criterion_8_bench_determinism(tmp_path, capsys):
    ds = generate_synthetic(30, 2, p_in=0.9, p_out=0.05, dim=5, sep=3.0, seed=2)
    save_embedding_file(str(tmp_path / "native.emb"), ds.features)
    config = {
        "dataset": {"kind": "synthetic", "n": 30, "classes": 2, "p_in": 0.9,
                    "p_out": 0.05, "dim": 5, "sep": 3.0, "seed": 2},
        "encoders": [
            {"name": "tfidf6", "kind": "tfidf", "vocab_size": 6},
            {"name": "native", "kind": "file", "path": "native.emb"},
        ],
        "archs": ["gcn", "graph_transformer", "mlp"],
        "split": {"protocol": "high"},
        "train": {"epochs": 10, "patience": 10, "seeds": [0, 1]},
        "model": {"layers": 2, "hidden": 8, "heads": 2, "dropout": 0.3},
        "output": {"dir": "out", "format": "markdown"},
    }
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config))
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["bench", "--config", str(config_path)]) == 0
    first = (tmp_path / "out" / "bench.csv").read_bytes()
    assert main(["bench", "--config", str(config_path)]) == 0
    second = (tmp_path / "out" / "bench.csv").read_bytes()
    capsys.readouterr()
    _report(8, first == second and len(first) > 0,
            f"two cmd_bench invocations: {len(first)}-byte CSVs byte-identical")


def test_criterion_9_infonce_unit():
    anchor = positive = negative = np.array([[0.6, 0.8]])
    losses = [
        infonce(anchor, positive, negative, tau=t, sim=s)
        for t in (0.1, 1.0) for s in ("dot", "cosine")
    ]
    worst = max(abs(loss - math.log(2)) for loss in losses)
    _report(9, worst < 1e-12, f"equal-similarity single-negative InfoNCE: "
            f"|loss - ln 2| <= {worst:.2e}")
