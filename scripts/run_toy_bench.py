#!/usr/bin/env python3
"""End-to-end offline demo: build a synthetic benchmark and run the full
encoder x architecture matrix through the CLI (prepare, then bench).

Three encoders exercise every no-network path: TF-IDF over the synthetic
node documents, the generator's Gaussian features via an EMB1 file, and a
one-hot-label EMB1 file (an embedding-quality upper bound).
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tagforge.cli import main as cli_main
from tagforge.data import generate_synthetic
from tagforge.features import save_embedding_file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="toy_bench", help="working directory")
    parser.add_argument("--seeds", type=int, default=3, help="runs per cell")
    args = parser.parse_args()

    os.makedirs(args.dir, exist_ok=True)
    dataset = {"kind": "synthetic", "n": 200, "classes": 3, "p_in": 0.15,
               "p_out": 0.01, "dim": 16, "sep": 2.0, "seed": 7}
    ds = generate_synthetic(**{key: value for key, value in dataset.items() if key != "kind"})
    save_embedding_file(os.path.join(args.dir, "native.emb"), ds.features)
    one_hot = np.eye(ds.num_classes, dtype=np.float32)[ds.labels]
    save_embedding_file(os.path.join(args.dir, "onehot.emb"), one_hot)

    config = {
        "dataset": dataset,
        "encoders": [
            {"name": "tfidf", "kind": "tfidf", "vocab_size": 32},
            {"name": "native", "kind": "file", "path": "native.emb"},
            {"name": "onehot", "kind": "file", "path": "onehot.emb"},
        ],
        "archs": ["gcn", "mlp", "graph_transformer"],
        "split": {"protocol": "high"},
        "train": {"seeds": list(range(args.seeds))},
        "model": {"layers": 4, "hidden": 64, "heads": 4, "dropout": 0.5},
        "output": {"dir": "out", "format": "markdown"},
    }
    config_path = os.path.join(args.dir, "bench.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    print(f"config written to {config_path}")

    code = cli_main(["prepare", "--config", config_path])
    if code != 0:
        return code
    return cli_main(["bench", "--config", config_path])


if __name__ == "__main__":
    sys.exit(main())
