#!/usr/bin/env python3
"""tracemalloc peaks of each training phase, per architecture.

Trains every architecture for ``EPOCHS`` epochs on a Cora-shaped synthetic graph
(2708 nodes, 7 classes, ~4 average degree, seed 0) at two feature widths:
32 dense columns, like the ``cora_narrow`` benchmark workload's embeddings,
and 1,433 columns held as CSR at Cora's TF-IDF density (1.3% nonzero), like
``cora_wide``. For each phase of ``train`` (the training forward, its
backward, the Adam step and the ``evaluate`` that scores the validation and
test nodes) it prints the peak of traced memory while the phase runs, in
MB. Each peak is reset at the phase's start, so it includes what is alive
from earlier phases: the model, Adam state, snapshot and the tape. ``run``
is the peak of the whole ``train`` call. Tracing starts after the dataset
is built, so the feature matrix is not counted.

    python3 scripts/tape_peaks.py
"""

import os
import sys
import tracemalloc

import numpy as np
from scipy.sparse import csr_array

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import tagforge.train as train_module
from tagforge.data import Dataset, generate_synthetic, split_high
from tagforge.models import ARCHITECTURES, ModelSpec, init_parameters
from tagforge.rng import SplitMix64
from tagforge.train import TrainSpec

EPOCHS = 3
PHASES = ("forward", "backward", "adam_step", "evaluate")
_MB = 1 << 20


def cora_shaped(dim: int, sparse: bool) -> Dataset:
    """The smoke script's Cora-shaped graph; CSR features keep 1.3% of entries."""
    ds = generate_synthetic(2708, 7, p_in=0.00827, p_out=0.000344, dim=dim, sep=1.6, seed=0)
    if not sparse:
        return ds
    keep = SplitMix64(1).random(ds.features.shape) < 0.013
    features = csr_array(np.where(keep, np.abs(ds.features), 0.0))
    return Dataset(ds.graph, features, ds.labels, ds.num_classes, name=ds.name)


class PhasePeaks:
    """Wraps ``train``'s phase calls and keeps each phase's largest peak."""

    def __init__(self):
        self.peaks = dict.fromkeys(PHASES + ("run",), 0)

    def _fold_run_peak(self):
        self.peaks["run"] = max(self.peaks["run"], tracemalloc.get_traced_memory()[1])

    def measured(self, phase, fn):
        def call(*args, **kwargs):
            self._fold_run_peak()
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            self.peaks[phase] = max(self.peaks[phase], tracemalloc.get_traced_memory()[1])
            if phase == "forward":  # the training forward hands back its backward
                logits, backward = result
                result = logits, self.measured("backward", backward)
            return result

        return call

    def run(self, fn):
        tracemalloc.start()
        try:
            fn()
            self._fold_run_peak()
        finally:
            tracemalloc.stop()
        return {phase: peak / _MB for phase, peak in self.peaks.items()}


def main() -> int:
    spec = TrainSpec(epochs=EPOCHS, patience=EPOCHS)
    wrapped = {"forward_backward": "forward", "adam_step": "adam_step", "evaluate": "evaluate"}
    originals = {name: getattr(train_module, name) for name in wrapped}
    print(f"{'features':<10} {'arch':<18}" + "".join(f"{p:>10}" for p in PHASES + ("run",)))
    for dim, sparse in ((32, False), (1433, True)):
        ds = cora_shaped(dim, sparse)
        split = split_high(ds.num_nodes, seed=0)
        for arch in ARCHITECTURES:
            probe = PhasePeaks()
            for name, phase in wrapped.items():
                setattr(train_module, name, probe.measured(phase, originals[name]))
            try:
                peaks = probe.run(lambda: train_module.train(
                    init_parameters(ModelSpec(arch, in_dim=dim, num_classes=7), 0),
                    ds, split, spec, seed=0,
                ))
            finally:
                for name, fn in originals.items():
                    setattr(train_module, name, fn)
            label = f"{dim} {'csr' if sparse else 'dense'}"
            print(f"{label:<10} {arch:<18}" + "".join(f"{peaks[p]:>10.2f}" for p in PHASES + ("run",)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
