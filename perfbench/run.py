#!/usr/bin/env python3
"""tagforge benchmark: feature preparation and training time on two workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cora_narrow --seed 1 --seconds 20 --trace 0

Workloads (inputs drawn from ``--seed``):

* ``cora_narrow``: a Cora-shaped planetoid graph (2708 nodes, 7 classes,
  5400 undirected edges, 80% within a class) with one generated document per
  node. Features come from the ``remote`` encoder through an in-process
  loopback service returning 32-dim vectors, so the edge kernels dominate
  every graph-model epoch and set-up is the cold-cache remote client
  (170 POSTs, 2708 cache files).
* ``cora_wide``: the same graph and documents with ``tfidf`` at
  ``vocab_size=1433`` (Cora's width): the layer-0 dense matmul weighs most,
  and set-up is TF-IDF over 2708 documents.

``gcn``, ``graph_transformer`` and ``mlp`` train on both workloads for a
fixed ``EPOCHS`` (``patience = epochs``), so each run does the same work.
After set-up and a short warm-up, the run repeats one ``tagforge bench``
command (a grid) as long as another grid, at the pace so far, ends within
``--seconds``.

The README quick-start grid (200 nodes, 27 early-stopped runs) is not a
workload: its epochs are a few milliseconds of interpreter-bound small-array
work, whose speed follows the shared host's load over minutes (its per-run
medians spread past any bound this benchmark can hold), and the fixed costs it
would stress (``build_context``, split, snapshots, the CLI's output layer) are
traced on the Cora workloads too.

End-to-end metrics (``--trace 0``), medians over the run:

* ``setup_s``: config file to features in memory: ``load_config``,
  ``prepare`` into an empty features dir and embedding cache, dataset load
  and EMB1 read, repeated at least ``SETUP_MIN_REPS`` times;
* ``epoch_ms.<arch>``: one training epoch, from its start to the next one's,
  over every epoch of the timed grids but the last of each training run;
* ``grid_s``: one ``tagforge bench`` command;
* ``acc_pct.<arch>``: test accuracy from ``bench.csv``, mean over encoders;
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` the run reports per-layer metrics instead: set-up and
traced grids run under ``tracing.Tracer``, traced grids alternate with
untraced ones, and their ratio is ``trace.overhead_pct``.

The run sets OpenBLAS to one thread, so training uses one core; the
environment line records the thread count OpenBLAS reports.

Lines before the final JSON line name every metric with its unit, add
workload-specific figures and the environment. Each run writes its result
and, when traced, its spans under ``.perfbench/``. A failed check makes
``correct`` false and counts the affected training runs in ``failed``.
"""

import argparse
import array
import contextlib
import csv
import ctypes
import dataclasses
import fcntl
import functools
import importlib
import importlib.metadata
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: on a host whose cores slow
# down and speed up with other tenants' load, a call split over two threads
# waits for the slower core. On a 2-vCPU VM, grids alternating between one and
# two threads varied twice as much in wall time with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs
from service import EmbedService
from tracing import ARCHS, Patches, Tracer, self_times, totals

ROOT = Path(__file__).resolve().parent.parent
EPOCHS = 20  # per training run
SETUP_MIN_REPS = 3  # set-up repeats until both minimums are met; its median is reported
SETUP_MIN_SECONDS = 1.0
WARMUP_EPOCHS = 5  # the first training in a process runs about twice as slow
MODEL = {"layers": 4, "hidden": 64, "heads": 4, "dropout": 0.5}

# Test-accuracy floors (percent, mean over encoders) well above chance
# (30% for the largest Cora class).
ACC_FLOORS = {
    "cora_narrow": {"gcn": 75.0, "graph_transformer": 80.0, "mlp": 55.0},
    "cora_wide": {"gcn": 70.0, "graph_transformer": 80.0, "mlp": 75.0},
}


class Workload:
    """A config file in ``work``, its features dir and its embedding cache dir."""

    def __init__(self, name, work, seed):
        self.name, self.work, self.seed = name, work, seed
        self.config = work / "bench.json"
        self.out = work / "out"
        self.cache = "cache"

    def write_inputs(self):
        inputs.write_cora(self.work / "cora", self.seed)

    def write_config(self, endpoint=None):
        if self.name == "cora_narrow":
            encoders = [{"name": "remote32", "kind": "remote", "endpoint": endpoint,
                         "model": "hash32", "batch_size": 16, "cache_dir": self.cache}]
        else:
            encoders = [{"name": "tfidf1433", "kind": "tfidf", "vocab_size": 1433}]
        inputs.write_config(self.config, {
            "dataset": {"kind": "planetoid", "dir": "cora", "name": "cora"},
            "encoders": encoders, "archs": list(ARCHS), "split": {"protocol": "high"},
            "train": {"epochs": EPOCHS, "patience": EPOCHS, "seeds": [self.seed]},
            "model": MODEL, "output": {"dir": "out", "format": "markdown"},
        })


class Probe:
    """Untraced bookkeeping: cell wall times, epoch start times and run results."""

    def __init__(self):
        self.cells = []  # (arch, seconds, epochs per run)
        self.runs = []  # (arch, RunResult, epoch start times)
        self.dtypes = set()
        self._arch = None
        self._starts = []

    def install(self, patches):
        bench = importlib.import_module("tagforge.bench")
        train_module = importlib.import_module("tagforge.train")

        def run_cell(fn):
            def wrapper(cfg, dataset, features, encoder, arch):
                self._arch = arch
                self.dtypes.add(str(features.dtype))
                start = time.perf_counter()
                cell = fn(cfg, dataset, features, encoder, arch)
                self.cells.append((arch, time.perf_counter() - start, cell.epochs))
                return cell

            return wrapper

        def train(fn):
            def wrapper(*args, **kwargs):
                self._starts = []
                result = fn(*args, **kwargs)
                self.runs.append((self._arch, result, self._starts))
                return result

            return wrapper

        def forward_backward(fn):  # train calls it once, first thing in each epoch
            def wrapper(*args, **kwargs):
                self._starts.append(time.perf_counter())
                return fn(*args, **kwargs)

            return wrapper

        patches.patch(bench, "run_cell", run_cell)
        patches.patch(bench, "train", train)
        patches.patch(train_module, "forward_backward", forward_backward)

    def take(self):
        cells, runs, self.cells, self.runs = self.cells, self.runs, [], []
        return cells, runs


class Grid:
    """One ``tagforge bench`` command and what it left behind."""

    def __init__(self, seconds, code, csv_bytes, cells, runs, span_range=None):
        self.seconds, self.code, self.csv_bytes = seconds, code, csv_bytes
        self.cells, self.runs, self.span_range = cells, runs, span_range

    def cell_epoch_ms(self, arch):
        """Wall time of the arch's cells divided by the epochs they ran."""
        cells = [c for c in self.cells if c[0] == arch]
        return 1e3 * sum(c[1] for c in cells) / sum(sum(c[2]) for c in cells)

    def epoch_ms(self, arch):
        """Every whole epoch of the arch: from one epoch's start to the next's."""
        return [1e3 * d for a, _, starts in self.runs if a == arch for d in np.diff(starts)]

    def rows(self):
        return list(csv.DictReader(io.StringIO(self.csv_bytes.decode())))

    def acc_pct(self, arch):
        values = [float(r["mean_pct"]) for r in self.rows()
                  if r["arch"] == arch and r["status"] == "ok"]
        return statistics.fmean(values) if values else 0.0


def run_setup(workload):
    """Config file to features in memory, from an empty features dir and cache."""
    bench = importlib.import_module("tagforge.bench")
    shutil.rmtree(workload.out, ignore_errors=True)
    start = time.perf_counter()
    cfg = bench.load_config(str(workload.config))
    bench.prepare(cfg)
    dataset = bench.load_bench_dataset(cfg)
    feats = [bench.load_embedding_file(bench.feature_path(cfg, e)) for e in cfg.encoders]
    seconds = time.perf_counter() - start
    problems = []
    for enc, x in zip(cfg.encoders, feats):
        if x.shape[0] != dataset.num_nodes or not np.isfinite(x).all():
            problems.append(f"features of {enc.name} have shape {x.shape} or non-finite values")
        if enc.kind == "tfidf" and not np.abs(x).sum(axis=0).all():
            problems.append(f"tfidf encoder {enc.name} left a column empty")
    return seconds, cfg, dataset, problems


def warm_up(cfg, dataset):
    """Short untimed training of every cell, so timed grids run at steady speed."""
    bench = importlib.import_module("tagforge.bench")
    short = dataclasses.replace(cfg, trainspec=dataclasses.replace(
        cfg.trainspec, epochs=WARMUP_EPOCHS, patience=WARMUP_EPOCHS))
    for enc in cfg.encoders:
        x = bench.load_embedding_file(bench.feature_path(cfg, enc)).astype(np.float64)
        for arch in cfg.archs:
            bench.run_cell(short, dataset, x, enc.name, arch)


def run_grid(workload, probe, tracer=None):
    cli = importlib.import_module("tagforge.cli")
    lo = len(tracer.spans) if tracer else None
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["bench", "--config", str(workload.config)])
        seconds = time.perf_counter() - start
    csv_bytes = (workload.work / "out" / "bench.csv").read_bytes()
    cells, runs = probe.take()
    return Grid(seconds, code, csv_bytes, cells, runs,
                (lo, len(tracer.spans)) if tracer else None)


def check(workload, cfg, grids, problems):
    """Failed training runs per grid, plus a list of every problem found."""
    expected = len(cfg.encoders) * len(cfg.archs) * len(cfg.seeds)
    floors = ACC_FLOORS[workload.name]
    failed = 0
    for i, grid in enumerate(grids):
        bad = expected - len(grid.runs)
        if grid.code != 0:
            problems.append(f"grid {i}: tagforge bench exited {grid.code}")
        for row in grid.rows():
            if row["status"] != "ok":
                problems.append(f"grid {i}: cell {row['encoder']}/{row['arch']}: {row['status']}")
        for arch, result, _ in grid.runs:
            curve = np.asarray(result.loss_curve)
            if result.epochs_ran != EPOCHS or curve.size != EPOCHS or not np.isfinite(curve).all():
                problems.append(f"grid {i}: {arch} run has loss curve {curve.tolist()}")
                bad += 1
        if grid.csv_bytes != grids[0].csv_bytes:
            problems.append(f"grid {i}: bench.csv differs from grid 0")
            bad = expected
        for arch in cfg.archs:
            if grid.acc_pct(arch) < floors[arch]:
                problems.append(f"grid {i}: {arch} accuracy {grid.acc_pct(arch):.2f}% "
                                f"below the {floors[arch]}% floor")
                bad += sum(1 for run in grid.runs if run[0] == arch)
        failed += min(bad, expected)
    return len(grids) * expected, failed


def environment(seed, probe):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    graph = importlib.import_module("tagforge.graph")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "dtype": sorted(probe.dtypes),
        "kernel_backend": ("numpy reduceat" if "reduceat" in inspect.getsource(graph.segment_sum)
                           else "other"),
        "seed": seed,
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def end_to_end(setup_seconds, grids):
    metrics = {"setup_s": (statistics.median(setup_seconds), "s")}
    for arch in ARCHS:
        epochs = [ms for g in grids for ms in g.epoch_ms(arch)]
        metrics[f"epoch_ms.{arch}"] = (statistics.median(epochs), "ms")
    metrics["grid_s"] = (statistics.median(g.seconds for g in grids), "s")
    for arch in ARCHS:
        metrics[f"acc_pct.{arch}"] = (grids[0].acc_pct(arch), "%")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer, setup_ranges, traced, untraced):
    """Per-layer metrics from the spans: medians over set-ups and traced grids."""
    dur, own = self_times(tracer.spans)
    problems = []

    @functools.cache
    def tot_of(lo, hi):
        return totals(tracer.spans, lo, hi, dur, own)

    def median_of(ranges, fn):
        return statistics.median(fn(tot_of(lo, hi)) for lo, hi in ranges)

    def by_name(tot, name, field, arch=None):
        return sum(v[field] for (n, run), v in tot.items()
                   if n == name and (arch is None or tracer.run_arch.get(run) == arch))

    setup_layers = [("bench.prepare.ms", ["bench.prepare"]),
                    ("features.encode.ms", ["features.tfidf", "features.remote_embed"]),
                    ("data.load_planetoid.ms", ["data.load_planetoid"]),
                    ("features.load_embedding_file.ms", ["features.load_embedding_file"])]
    metrics = {}
    for metric, names in setup_layers:
        metrics[metric] = (1e3 * median_of(
            setup_ranges, lambda t: sum(by_name(t, n, 0) for n in names)), "ms")

    ranges = [g.span_range for g in traced]
    grid_layers = [("models.build_context.ms", "models.build_context", 0, 1e3, "ms"),
                   ("models.snapshot.ms", "models.snapshot", 0, 1e3, "ms"),
                   ("models.snapshot.calls", "models.snapshot", 2, 1, "count"),
                   ("data.split.ms", "data.split", 0, 1e3, "ms"),
                   ("bench.run_cell.s", "bench.run_cell", 0, 1, "s"),
                   ("bench.write_outputs.ms", "bench.write_outputs", 0, 1e3, "ms")]
    for metric, name, field, scale, unit in grid_layers:
        metrics[metric] = (scale * median_of(ranges, lambda t: by_name(t, name, field)), unit)

    def arch_layers(arch):
        rows = [("nn.relu.self_ms", ["nn.relu"], 1, 1e3, "ms"),
                ("nn.dropout.self_ms", ["nn.dropout"], 1, 1e3, "ms"),
                ("rng.random.self_ms", ["rng.random"], 1, 1e3, "ms"),
                ("rng.random.draws", ["rng.random"], 3, 1, "count"),
                ("train.cross_entropy.ms", ["train.cross_entropy"], 0, 1e3, "ms"),
                ("train.evaluate.ms", ["train.evaluate"], 0, 1e3, "ms"),
                ("train.adam_step.ms", ["train.adam_step"], 0, 1e3, "ms"),
                ("trace.epoch_ms", ["train.train"], 0, 1e3, "ms"),
                ("trace.untraced_ms", ["train.train"], 1, 1e3, "ms")]
        if arch != "graph_transformer":
            rows += [("nn.matmul.l0_fwd_ms", ["nn.matmul.l0_fwd"], 1, 1e3, "ms"),
                     ("nn.matmul.l0_bwd_ms", ["nn.matmul.l0_bwd"], 1, 1e3, "ms"),
                     ("nn.matmul.hidden_ms", ["nn.matmul.hidden_fwd", "nn.matmul.hidden_bwd"],
                      1, 1e3, "ms")]
        if arch != "mlp":
            rows += [("graph.segment_sum.self_ms", ["graph.segment_sum"], 1, 1e3, "ms"),
                     ("graph.segment_sum.calls", ["graph.segment_sum"], 2, 1, "count"),
                     ("graph.segment_sum.bytes", ["graph.segment_sum"], 3, 1, "B")]
        if arch == "gcn":
            rows += [("graph.spmm.self_ms", ["graph.spmm"], 1, 1e3, "ms"),
                     ("graph.spmm.calls", ["graph.spmm"], 2, 1, "count")]
        if arch == "graph_transformer":
            rows += [("graph.segment_max.self_ms", ["graph.segment_max"], 1, 1e3, "ms"),
                     ("models.graph_transformer_layer.fwd_self_ms",
                      ["models.graph_transformer_layer.fwd"], 1, 1e3, "ms"),
                     ("models.graph_transformer_layer.bwd_self_ms",
                      ["models.graph_transformer_layer.bwd"], 1, 1e3, "ms")]
        return rows

    for arch in ARCHS:
        per_grid = []
        for grid in traced:
            tot = tot_of(*grid.span_range)
            results = [r for a, r, _ in grid.runs if a == arch]
            epochs = sum(r.epochs_ran for r in results)
            values = {metric: scale * sum(by_name(tot, n, field, arch) for n in names) / epochs
                      for metric, names, field, scale, unit in arch_layers(arch)}
            values["train.epochs"] = epochs / len(results)
            values["train.useful_epoch_ratio"] = statistics.fmean(
                (int(np.argmax(r.val_curve)) + 1) / r.epochs_ran for r in results)
            # Self times under train.train, its own included, must add up to its wall time.
            wall = by_name(tot, "train.train", 0, arch)
            self_sum = sum(v[1] for (n, run), v in tot.items() if tracer.run_arch.get(run) == arch)
            if abs(self_sum - wall) > 1e-6 * wall:
                problems.append(f"{arch}: self times sum to {self_sum} s, traced wall is {wall} s")
            per_grid.append(values)
        units = {metric: unit for metric, _, _, _, unit in arch_layers(arch)}
        units.update({"train.epochs": "count", "train.useful_epoch_ratio": "ratio"})
        for metric, unit in units.items():
            metrics[f"{metric}.{arch}"] = (statistics.median(v[metric] for v in per_grid), unit)

    overhead = statistics.median(g.seconds for g in traced) / statistics.median(
        g.seconds for g in untraced)
    metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    return metrics, problems


def layer_report(tracer, setup_ranges, metrics, report):
    """Workload-specific set-up layers and the kernel shares of each epoch."""
    dur, own = self_times(tracer.spans)
    report = dict(report)
    names = {"features.remote_embed": "features.remote_embed.cold_ms",
             "features.tfidf": "features.tfidf.ms",
             "features.save_embedding_file": "features.save_embedding_file.ms"}
    for span_name, metric in names.items():
        values = [sum(v[0] for (n, _), v in totals(tracer.spans, lo, hi, dur, own).items()
                      if n == span_name) for lo, hi in setup_ranges]
        if any(values):
            report[metric] = (1e3 * statistics.median(values), "ms")
    shares = {"graph_kernels": ("graph.segment_sum.self_ms", "graph.segment_max.self_ms",
                                "graph.spmm.self_ms"),
              "matmul": ("nn.matmul.l0_fwd_ms", "nn.matmul.l0_bwd_ms", "nn.matmul.hidden_ms")}
    for arch in ARCHS:
        epoch = metrics[f"trace.epoch_ms.{arch}"][0]
        for share, parts in shares.items():
            part = sum(metrics.get(f"{p}.{arch}", (0.0,))[0] for p in parts)
            if part:
                report[f"share.{share}.{arch}"] = (100 * part / epoch, "% of trace.epoch_ms")
    return report


def write_spans(tracer, path):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "run", "amount"],
                   "names": names, "run_arch": tracer.run_arch,
                   "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), *s[3:]]
                             for s in tracer.spans]}, fh)


def set_up(workload, tracer, problems, report):
    """Repeated set-up from an empty features dir and cache, then the warm read path."""
    setup_seconds, setup_ranges = [], []
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(EmbedService()) if workload.name == "cora_narrow" else None
        while len(setup_seconds) < SETUP_MIN_REPS or sum(setup_seconds) < SETUP_MIN_SECONDS:
            # A new, empty cache dir each time, under a name no other run uses
            # (see spread_subdirectories); all of them go with the work dir.
            workload.cache = f"cache-{os.getpid()}-{len(setup_seconds)}"
            workload.write_config(service.endpoint if service else None)
            lo = len(tracer.spans) if tracer else 0
            requests = service.requests if service else 0
            seconds, cfg, dataset, found = run_setup(workload)
            setup_seconds.append(seconds)
            setup_ranges.append((lo, len(tracer.spans) if tracer else 0))
            problems += found
        if service:
            files = len(os.listdir(workload.work / workload.cache))
            report["features.remote_embed.requests"] = (service.requests - requests, "count")
            report["features.cache.files_written"] = (files, "count")
            if files != dataset.num_nodes:
                problems.append(f"remote cache holds {files} files for {dataset.num_nodes} texts")
            if tracer:
                features = importlib.import_module("tagforge.features")
                before = service.texts
                start = time.perf_counter()
                features.remote_embed(cfg.encoders[0], dataset.texts)
                warm_ms = 1e3 * (time.perf_counter() - start)
                report["features.remote_embed.warm_ms"] = (warm_ms, "ms")
                report["features.cache_hit_ratio"] = (
                    1 - (service.texts - before) / len(dataset.texts), "ratio")
    return cfg, dataset, setup_seconds, setup_ranges


def measure(args, work, out_dir):
    workload = Workload(args.workload, work, args.seed)
    workload.write_inputs()
    probe, patches, tracer = Probe(), Patches(), (Tracer() if args.trace else None)
    problems, report = [], {}
    untraced, traced = [], []
    try:
        probe.install(patches)
        if tracer:
            tracer.install(patches)
        cfg, dataset, setup_seconds, setup_ranges = set_up(workload, tracer, problems, report)
        warm_up(cfg, dataset)
        patches.restore()
        probe.install(patches)
        probe.take()
        # A grid starts only if one more, at the median pace so far, ends within
        # --seconds, so the run does not overshoot by a whole grid.
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start + statistics.median(
                g.seconds for g in untraced + traced) * (2 if tracer else 1) <= args.seconds:
            untraced.append(run_grid(workload, probe))
            if tracer:
                tracer.install(patches)
                traced.append(run_grid(workload, probe, tracer))
                patches.restore()
                probe.install(patches)
    finally:
        patches.restore()

    grids = untraced + traced
    attempted, failed = check(workload, cfg, grids, problems)
    if tracer:
        metrics, found = per_layer(tracer, setup_ranges, traced, untraced)
        problems += found
        report = layer_report(tracer, setup_ranges, metrics, report)
        write_spans(tracer, out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(setup_seconds, grids)
        for arch in ARCHS:
            report[f"run_cell_epoch_ms.{arch}"] = (
                statistics.median(g.cell_epoch_ms(arch) for g in grids), "ms")
    report["fail_ratio"] = (failed / attempted, f"({failed} of {attempted} training runs failed)")
    report["grids"] = (len(grids), "count")
    return metrics, report, environment(args.seed, probe), attempted, failed, problems


FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(path):
    """Mark ``path`` so that ext4 places each new subdirectory by its name's hash.

    Each set-up creates 2708 cache files, and the run deletes them again. On an
    ext4 file system without a journal, the inode allocator skips every inode
    of a block group freed in the last one to six minutes, so after a few runs
    creating 2708 files in the group the deletions left took 1.0-1.5 s instead
    of 0.04 s, and set-up time followed the benchmark's own history. Under a
    parent flagged as a top directory, each uniquely named cache dir lands in a
    group of its own, as a first-time user's cache would. Returns whether the
    flag is set; other file systems refuse it and nothing else changes.
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cora_narrow", "cora_wide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tagforge" / "__init__.py").is_file():
        print(f"error: no tagforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tagforge

    if Path(tagforge.__file__).resolve().parent != (src / "tagforge").resolve():
        print(f"error: imported tagforge from {tagforge.__file__}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spread = spread_subdirectories(work)
        metrics, report, env, attempted, failed, problems = measure(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["topdir_flag"] = spread

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if [(m["name"], m["unit"]) for m in declared] != [(n, u) for n, (_, u) in metrics.items()]:
        print("error: measured metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump({"env": env, "report": report, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
