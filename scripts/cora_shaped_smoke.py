#!/usr/bin/env python3
"""Training-dynamics smoke test at citation-network scale, no dataset
required: a planted-partition graph shaped like Cora (2708 nodes, 7
classes, ~4 average degree, ~80% same-class edges) with moderately
separable Gaussian features.

The real-data reproduction lives in tests/test_acceptance.py (criteria 5
and 6) and needs the converted Cora files; this script checks the same
qualitative ordering — graph models above MLP, transformer near GCN —
without any download.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tagforge.data import generate_synthetic, split_high
from tagforge.models import ARCHITECTURES, ModelSpec, init_parameters
from tagforge.train import TrainSpec, aggregate, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2, help="runs per architecture")
    parser.add_argument("--sep", type=float, default=1.6, help="feature separation")
    args = parser.parse_args()

    # p_in/p_out calibrated to Cora's density: ~5400 undirected edges,
    # roughly four-fifths of them within-class
    ds = generate_synthetic(
        n=2708, classes=7, p_in=0.00827, p_out=0.000344,
        dim=32, sep=args.sep, seed=0,
    )
    degrees = ds.graph.nnz / ds.num_nodes
    print(f"dataset: {ds.num_nodes} nodes, {ds.graph.nnz // 2} undirected edges "
          f"(avg degree {degrees:.1f})")

    tspec = TrainSpec(seeds=tuple(range(args.seeds)))
    for arch in ARCHITECTURES:
        spec = ModelSpec(arch, in_dim=32, num_classes=7)
        results = []
        started = time.time()
        for seed in tspec.seeds:
            split = split_high(ds.num_nodes, seed=seed)
            model = init_parameters(spec, seed)
            results.append(train(model, ds, split, tspec, seed))
        mean, std = aggregate(results)
        epochs = [r.epochs_ran for r in results]
        print(f"{arch:<18} test {mean * 100:.2f} ± {std * 100:.2f}  "
              f"epochs {epochs}  ({time.time() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
