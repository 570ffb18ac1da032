"""Benchmark harness: encoder x architecture accuracy matrices.

A benchmark is described by one JSON config file:

```
{
  "dataset":  {"kind": "planetoid", "dir": "data/cora", "name": "cora"}
            | {"kind": "synthetic", "n": 200, "classes": 3, "p_in": 0.2,
               "p_out": 0.01, "dim": 16, "sep": 3.0, "seed": 7},
  "encoders": [{"name": "tfidf500", "kind": "tfidf", "vocab_size": 500},
               {"name": "native", "kind": "file", "path": "feats.emb"},
               {"name": "svc", "kind": "remote", "endpoint": "http://...",
                "model": "m", "batch_size": 16, "cache_dir": "cache"}],
  "archs":    ["gcn", "mlp", "graph_transformer"],
  "split":    {"protocol": "high"} | {"protocol": "low", "per_class": 20,
               "n_val": 500, "n_test": 1000},
  "train":    {"epochs": 300, "patience": 10, "lr": 0.01,
               "weight_decay": 5e-4, "seeds": [0, 1, 2, 3, 4]},
  "model":    {"layers": 4, "hidden": 64, "heads": 4, "dropout": 0.5},
  "output":   {"dir": "bench_out", "format": "markdown"},
  "workers":  1
}
```

``load_config`` checks each block against one key table: its keys, their
casts, defaults and required keys, read from the signature of what the block
feeds (``load_planetoid`` or ``generate_synthetic``, ``split_low`` or
``split_high``, the ``EncoderSpec`` fields of the entry's kind, ``TrainSpec``,
``ModelSpec``), whose own checks then run. An unknown or missing key, a value
of the wrong type (a bool, a fractional integer, a non-string path) or out of
range is a ``ConfigError``, and so is a split that the dataset cannot supply,
before any run. ``load_features`` and ``run_seed`` are the one path
from a config to a trained run; ``run_cell`` and ``tagforge train`` both go
through them. Sparse feature matrices (TF-IDF, bag-of-words) stay CSR.

``split.seed`` is optional: when present the same split is reused for every
run; when absent each run re-draws its split from the run seed. On every call
``prepare`` builds each encoder's features (TF-IDF and remote encoders embed
the texts, file encoders are checked and copied) into ``feature_path``, named
by a digest of the dataset block and the entry, and deletes older files.

Cell runs are scheduled onto a bounded worker pool; every run owns its
model and RNG, and output ordering is fixed by config order, so identical
configs produce byte-identical CSV output. A failed cell is recorded and
the table is still emitted.
"""

import csv
import hashlib
import inspect
import io
import json
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.sparse import csr_array

from .data import Dataset, SplitMask, check_synthetic, generate_synthetic, load_planetoid
from .data import split_high, split_low
from .features import (
    ENCODER_KINDS,
    EncoderSpec,
    _atomic_write,
    load_embedding_file,
    remote_embed,
    save_embedding_file,
    tfidf,
)
from .models import ARCHITECTURES, ModelSpec, init_parameters
from .train import RunResult, TrainSpec, aggregate, train

_FORMAT_SUFFIX = {"markdown": "md", "latex": "tex", "csv": "csv"}
_FORMAT_ALIASES = {alias: name for name, ext in _FORMAT_SUFFIX.items() for alias in (name, ext)}


def _to_int(value) -> int:
    """``int(value)``, refusing a bool or a fractional part that ``int`` would truncate."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _to_float(value) -> float:
    """``float(value)``, refusing a bool."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _list(value) -> list:
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a JSON array of at least one entry, got {value!r}")
    return value


def _seed_list(value) -> tuple[int, ...]:
    return tuple(_to_int(seed) for seed in _list(value))


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# Each annotation's cast; JSON null is no string (leave the key out for None).
_CASTS = {int: _to_int, float: _to_float, str: _str, tuple[int, ...]: _seed_list,
          int | None: lambda value: None if value is None else _to_int(value), str | None: _str}
_REQUIRED = inspect.Parameter.empty


def _key_table(consumer, *supplied: str) -> dict:
    """The key table of the block fed to the function or dataclass ``consumer``:
    key -> (cast, default) for each of its parameters but the ``supplied`` ones."""
    params = inspect.signature(consumer).parameters.values()
    return {p.name: (_CASTS[p.annotation], p.default) for p in params if p.name not in supplied}


# Read at import: a tracer may later wrap these module globals in (*args, **kwargs).
_DATASET_KEYS = {"planetoid": _key_table(load_planetoid),
                 "synthetic": _key_table(generate_synthetic)}
# split.seed is the bench's own: absent or null, each run splits by its run seed.
_SPLIT_SEED = {"seed": (_CASTS[int | None], None)}
_SPLIT_KEYS = {"low": _key_table(split_low, "labels", "num_classes", "seed") | _SPLIT_SEED,
               "high": _key_table(split_high, "n", "seed") | _SPLIT_SEED}
_ENCODER_KEYS = {kind: {key: entry for key, entry in _key_table(EncoderSpec).items()
                        if key in ("name", *fields)} for kind, fields in ENCODER_KINDS.items()}
_TRAIN_KEYS = _key_table(TrainSpec)
_MODEL_KEYS = _key_table(ModelSpec, "arch", "in_dim", "num_classes")
# The top level and the output block feed no one function.
_TOP_KEYS = {"dataset": (None, _REQUIRED), "encoders": (_list, _REQUIRED),
             "archs": (_list, _REQUIRED), "split": (None, {"protocol": "high"}),
             "train": (None, {}), "model": (None, {}), "output": (None, {}),
             "workers": (_to_int, 1)}
_OUTPUT_KEYS = {"dir": (_str, "bench_out"),
                "format": (lambda value: normalize_format(_str(value)), "markdown")}
# Feature matrices with at most this share of nonzero entries (TF-IDF and
# bag-of-words, e.g. about 2% on Cora) are kept as CSR: the layer-0 products
# ``X @ W`` and ``X.T @ d`` then cost O(nnz). Measured with a 2708 x 1433
# matrix and 64 output columns (one OpenBLAS thread), CSR is 1.5-1.9x faster
# than dense at 10% and breaks even at 15-20%.
SPARSE_MAX_DENSITY = 0.1


class ConfigError(ValueError):
    """The benchmark config is invalid or references missing files."""


@dataclass(frozen=True)
class BenchConfig:
    """Frozen all the way down: ``load_config`` stores the blocks as read-only
    mappings and the lists as tuples, so no caller edits a loaded config."""

    dataset: Mapping
    encoders: tuple[EncoderSpec, ...]
    archs: tuple[str, ...]
    split: Mapping
    trainspec: TrainSpec
    model: Mapping
    out_dir: str
    table_format: str
    workers: int

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.trainspec.seeds


def normalize_format(fmt: str) -> str:
    if fmt not in _FORMAT_ALIASES:
        raise ConfigError(f"unknown table format {fmt!r}, expected md|tex|csv")
    return _FORMAT_ALIASES[fmt]


def _coerce(path: str, where: str, block, table: dict, tag: str | None = None) -> dict:
    """A copy of the JSON object ``block``, each value cast by its entry in the
    whole key table ``table`` (a None cast keeps it) or, with ``tag``, in the
    table ``table`` holds for the block's value of that key, and each absent
    optional key set to its default. A non-object block, an unknown or missing
    required key or a value its cast rejects is a ConfigError."""
    if tag is not None:
        choice = block.get(tag) if isinstance(block, dict) else None
        if not isinstance(choice, str) or choice not in table:
            raise ConfigError(f"{path}: bad {where}: expected an object whose {tag} is "
                              f"{' or '.join(table)}, got {block!r}")
        where, table = f"{choice} {where}", {tag: (None, _REQUIRED), **table[choice]}
    bad = where.removeprefix("the ")  # "bad top level: workers"
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: bad {bad}: expected an object, got {block!r}")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r} in {where}")
    block = dict(block)
    for key, (cast, default) in table.items():
        if key not in block:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: {where} needs {key!r}")
            block[key] = default
        elif cast is not None:
            try:
                block[key] = cast(block[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad {bad}: {key}: {exc}") from exc
    return block


def _make(path: str, where: str, consumer, /, *args, **kwargs):
    """``consumer(*args, **kwargs)``, with what it refuses as a ConfigError."""
    try:
        return consumer(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad {where}: {exc}") from exc


def load_config(path: str) -> BenchConfig:
    """Parse and validate a benchmark config file."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    top = _coerce(path, "the top level", blob, _TOP_KEYS)
    archs = top["archs"]
    for arch in archs:
        if arch not in ARCHITECTURES:
            raise ConfigError(f"{path}: unknown arch {arch!r}")
    if len(set(archs)) != len(archs):
        raise ConfigError(f"{path}: duplicate archs")

    dataset = _coerce(path, "dataset block", top["dataset"], _DATASET_KEYS, "kind")
    if dataset["kind"] == "planetoid":
        dataset["dir"] = resolve(dataset["dir"])
        stem = os.path.join(dataset["dir"], dataset["name"])
        for suffix in (".labels", ".edges"):
            if not os.path.exists(stem + suffix):
                raise ConfigError(f"{path}: dataset file missing: {stem + suffix}")
    else:
        _make(path, "synthetic dataset block", check_synthetic, dataset["n"],
              dataset["classes"], dataset["p_in"], dataset["p_out"], dataset["dim"])

    encoders = []
    for enc in top["encoders"]:
        enc = _coerce(path, "encoder entry", enc, _ENCODER_KEYS, "kind")
        for key in ("path", "cache_dir"):
            if enc.get(key):
                enc[key] = resolve(enc[key])
        spec = _make(path, f"encoder entry {enc['name']!r}", EncoderSpec, **enc)
        if spec.kind == "file" and not os.path.exists(spec.path):
            raise ConfigError(f"{path}: encoder {spec.name!r} file missing: {spec.path}")
        encoders.append(spec)
    names = [e.name for e in encoders]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate encoder names")

    split = _coerce(path, "split block", top["split"], _SPLIT_KEYS, "protocol")
    for key in ("per_class", "n_val", "n_test"):
        if split.get(key, 1) < 1:
            raise ConfigError(f"{path}: bad split block: {key} must be >= 1, got {split[key]}")

    train = _coerce(path, "train block", top["train"], _TRAIN_KEYS)
    trainspec = _make(path, "train block", TrainSpec, **train)
    model = _coerce(path, "model block", top["model"], _MODEL_KEYS)
    for arch in archs:
        _make(path, "model block", ModelSpec, arch, in_dim=1, num_classes=2, **model)
    output = _coerce(path, "output block", top["output"], _OUTPUT_KEYS)
    if top["workers"] < 1:
        raise ConfigError(f"{path}: workers must be >= 1")
    dataset, split, model = map(MappingProxyType, (dataset, split, model))
    return BenchConfig(dataset, tuple(encoders), tuple(archs), split, trainspec, model,
                       resolve(output["dir"]), output["format"], top["workers"])


def load_bench_dataset(cfg: BenchConfig) -> Dataset:
    ds = dict(cfg.dataset)
    if ds.pop("kind") == "planetoid":
        return load_planetoid(**ds)
    return generate_synthetic(**ds)


def feature_path(cfg: BenchConfig, encoder: EncoderSpec) -> str:
    """``<out>/features/<name>/<key>.emb``, keyed by the dataset block and the entry."""
    entry = json.dumps([dict(cfg.dataset), asdict(encoder)], sort_keys=True)
    key = hashlib.sha256(entry.encode()).hexdigest()[:16]
    return os.path.join(cfg.out_dir, "features", encoder.name, f"{key}.emb")


def prepare(cfg: BenchConfig) -> list[str]:
    """Build every encoder's EMB1 file at its ``feature_path``, delete the encoder's
    other ``.emb`` files, and return the written paths. A matrix with no
    columns, or a file's matrix without one row per node, is refused as a
    ``ConfigError`` before it is written."""
    dataset = load_bench_dataset(cfg)
    written = []
    for encoder in cfg.encoders:
        if encoder.kind == "file":
            matrix = load_embedding_file(encoder.path)
            if matrix.shape[0] != dataset.num_nodes:
                raise ConfigError(f"encoder {encoder.name!r} file has {matrix.shape[0]} rows, "
                                  f"dataset {dataset.name!r} has {dataset.num_nodes} nodes")
        elif dataset.texts is None:
            raise ConfigError(
                f"encoder {encoder.name!r} needs raw texts, but dataset "
                f"{dataset.name!r} has none"
            )
        elif encoder.kind == "tfidf":
            matrix, _ = tfidf(dataset.texts, encoder.vocab_size)
        else:
            matrix = remote_embed(encoder, dataset.texts)
        if matrix.shape[1] == 0:
            raise ConfigError(f"encoder {encoder.name!r} produced no feature columns")
        target = feature_path(cfg, encoder)
        save_embedding_file(target, matrix)
        folder, kept = os.path.split(target)
        for name in os.listdir(folder):
            if name.endswith(".emb") and name != kept:
                os.remove(os.path.join(folder, name))
        written.append(target)
    return written


def make_split(cfg: BenchConfig, dataset: Dataset, run_seed: int) -> SplitMask:
    split = dict(cfg.split)
    if split.get("seed") is None:
        split["seed"] = run_seed
    try:
        if split.pop("protocol") == "high":
            return split_high(dataset.num_nodes, **split)
        return split_low(dataset.labels, num_classes=dataset.num_classes, **split)
    except ValueError as exc:  # the dataset is too small for the split, whatever the seed
        raise ConfigError(f"bad split block: {exc}") from exc


@dataclass
class CellResult:
    encoder: str
    arch: str
    mean: float | None = None
    std: float | None = None
    epochs: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BenchResult:
    dataset_name: str
    encoders: list[str]
    archs: list[str]
    seeds: tuple[int, ...]
    cells: dict[tuple[str, str], CellResult]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells.values())


def load_features(
    cfg: BenchConfig, encoder: EncoderSpec, dataset: Dataset
) -> np.ndarray | csr_array:
    """The encoder's prepared feature matrix as float64, one row per node.

    A matrix with at most ``SPARSE_MAX_DENSITY`` nonzero entries comes back
    as a ``csr_array`` built from the float32 file without a dense float64
    copy; any other as a dense ndarray.
    """
    path = feature_path(cfg, encoder)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"features not prepared for encoder {encoder.name!r} "
            f"(expected {path}; run the prepare command)"
        )
    features = load_embedding_file(path)
    if features.shape[0] != dataset.num_nodes:
        raise ValueError(
            f"feature file {path} has {features.shape[0]} rows, dataset "
            f"{dataset.name!r} has {dataset.num_nodes} nodes"
        )
    if np.count_nonzero(features) <= SPARSE_MAX_DENSITY * features.size:
        return csr_array(features, dtype=np.float64)
    return features.astype(np.float64)


def run_seed(
    cfg: BenchConfig, dataset: Dataset, features: np.ndarray | csr_array, arch: str, seed: int
) -> RunResult:
    """One training run of ``arch`` on ``features`` under the config's protocol."""
    spec = ModelSpec(arch, features.shape[1], dataset.num_classes, **cfg.model)
    run_dataset = Dataset(
        dataset.graph, features, dataset.labels, dataset.num_classes, name=dataset.name
    )
    split = make_split(cfg, dataset, seed)
    model = init_parameters(spec, seed)
    return train(model, run_dataset, split, cfg.trainspec, seed)


def run_cell(
    cfg: BenchConfig, dataset: Dataset, features: np.ndarray | csr_array, encoder: str, arch: str
) -> CellResult:
    results = [run_seed(cfg, dataset, features, arch, seed) for seed in cfg.seeds]
    mean, std = aggregate(results)
    return CellResult(encoder, arch, mean, std, [r.epochs_ran for r in results])


def run_bench(cfg: BenchConfig, log=None) -> BenchResult:
    """Run the full encoder x arch grid; failures become failed cells."""
    say = log or (lambda msg: None)
    dataset = load_bench_dataset(cfg)
    make_split(cfg, dataset, 0)  # a ConfigError before any run if the dataset is too small
    pairs = [(e.name, a) for e in cfg.encoders for a in cfg.archs]
    cells: dict[tuple[str, str], CellResult] = {}

    feature_cache: dict[str, np.ndarray | csr_array | Exception] = {}
    for encoder in cfg.encoders:
        try:
            feature_cache[encoder.name] = load_features(cfg, encoder, dataset)
        except Exception as exc:  # noqa: BLE001 - cell-level isolation
            feature_cache[encoder.name] = exc

    def run_one(pair):
        encoder, arch = pair
        features = feature_cache[encoder]
        if isinstance(features, Exception):
            return CellResult(encoder, arch, error=str(features))
        try:
            return run_cell(cfg, dataset, features, encoder, arch)
        except Exception as exc:  # noqa: BLE001 - cell-level isolation
            return CellResult(encoder, arch, error=str(exc))

    if cfg.workers == 1:
        results = [run_one(pair) for pair in pairs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_one, pairs))
    for pair, cell in zip(pairs, results):
        cells[pair] = cell
        status = f"{cell.mean * 100:.2f} ± {cell.std * 100:.2f}" if cell.ok else "FAILED"
        say(f"[{pair[0]} × {pair[1]}] {status}")
    return BenchResult(dataset.name, [e.name for e in cfg.encoders], cfg.archs,
                       cfg.seeds, cells)


def _table_rows(result: BenchResult, plain: str, best: str):
    """Per encoder, its cells formatted with ``plain``, or ``best`` for the
    row's highest mean; both take ``mean`` and ``std`` in percent."""
    for encoder in result.encoders:
        cells = [result.cells[(encoder, arch)] for arch in result.archs]
        top = max((c for c in cells if c.ok), key=lambda c: c.mean, default=None)
        yield encoder, [
            (best if c is top else plain).format(mean=c.mean * 100, std=c.std * 100)
            if c.ok else "failed"
            for c in cells
        ]


def to_markdown(result: BenchResult) -> str:
    lines = [
        f"| Encoder | {' | '.join(result.archs)} |",
        f"|---{'|---' * len(result.archs)}|",
    ]
    rows = _table_rows(result, "{mean:.2f} ± {std:.2f}", "**{mean:.2f} ± {std:.2f}**")
    lines += [f"| {encoder} | {' | '.join(cells)} |" for encoder, cells in rows]
    return "\n".join(lines) + "\n"


def to_latex(result: BenchResult) -> str:
    lines = [
        "\\begin{tabular}{l|" + "r" * len(result.archs) + "}",
        "\\hline",
        "Encoder & " + " & ".join(result.archs) + " \\\\",
        "\\hline",
    ]
    best = "\\textbf{{{mean:.2f}}} $\\pm$ {std:.2f}"
    rows = _table_rows(result, "{mean:.2f} $\\pm$ {std:.2f}", best)
    lines += [f"{encoder} & " + " & ".join(cells) + " \\\\" for encoder, cells in rows]
    lines += ["\\hline", "\\end{tabular}"]
    return "\n".join(lines) + "\n"


def to_csv(result: BenchResult) -> str:
    """Machine-readable grid; mean/std are percents at full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["dataset", "encoder", "arch", "mean_pct", "std_pct", "seeds",
                     "epochs", "status"])
    for encoder in result.encoders:
        for arch in result.archs:
            cell = result.cells[(encoder, arch)]
            writer.writerow([
                result.dataset_name,
                encoder,
                arch,
                repr(cell.mean * 100) if cell.ok else "",
                repr(cell.std * 100) if cell.ok else "",
                ";".join(str(s) for s in result.seeds),
                ";".join(str(e) for e in cell.epochs),
                "ok" if cell.ok else f"failed: {cell.error}",
            ])
    return buffer.getvalue()


def render(result: BenchResult, table_format: str) -> str:
    return {"markdown": to_markdown, "latex": to_latex, "csv": to_csv}[table_format](result)


def write_outputs(result: BenchResult, cfg: BenchConfig) -> list[str]:
    """Write the CSV and the formatted table, each atomically (an
    interrupted write leaves the previous file); returns written paths."""
    paths = [os.path.join(cfg.out_dir, "bench.csv")]
    _atomic_write(paths[0], to_csv(result).encode())
    if cfg.table_format != "csv":
        paths.append(os.path.join(cfg.out_dir, f"bench.{_FORMAT_SUFFIX[cfg.table_format]}"))
        _atomic_write(paths[1], render(result, cfg.table_format).encode())
    return paths
