"""Benchmark harness and CLI: config validation, prepare, the grid runner,
table formats, determinism, and exit codes.
"""

import csv
import dataclasses
import importlib
import inspect
import io
import json
import os
import re
import stat
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from tagforge import bench
from tagforge.bench import (
    BenchResult,
    CellResult,
    ConfigError,
    feature_path,
    load_bench_dataset,
    load_config,
    load_features,
    prepare,
    run_bench,
    run_seed,
    to_csv,
    to_latex,
    to_markdown,
    write_outputs,
)
from tagforge.cli import _build_parser, main
from tagforge.data import generate_synthetic, load_planetoid, split_high, split_low
from tagforge.features import EncoderSpec, save_embedding_file
from tagforge.gradcheck import run_gradcheck
from tagforge.models import ModelSpec
from tagforge.train import TrainSpec


def _write_config(tmp_path, **overrides):
    ds = generate_synthetic(40, 2, p_in=0.9, p_out=0.05, dim=6, sep=4.0, seed=1)
    native = tmp_path / "native.emb"
    save_embedding_file(str(native), ds.features)
    blob = {
        "dataset": {"kind": "synthetic", "n": 40, "classes": 2, "p_in": 0.9,
                    "p_out": 0.05, "dim": 6, "sep": 4.0, "seed": 1},
        "encoders": [
            {"name": "tfidf8", "kind": "tfidf", "vocab_size": 8},
            {"name": "native", "kind": "file", "path": "native.emb"},
        ],
        "archs": ["gcn", "mlp"],
        "split": {"protocol": "high"},
        "train": {"epochs": 15, "patience": 15, "seeds": [0, 1]},
        "model": {"layers": 2, "hidden": 8, "heads": 2, "dropout": 0.2},
        "output": {"dir": "out", "format": "markdown"},
    }
    blob.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(blob))
    return str(path)


def _remote_encoder(**fields):
    return {"name": "svc", "kind": "remote", "endpoint": "http://127.0.0.1:9", "model": "m",
            "cache_dir": "cache", **fields}


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert [e.name for e in cfg.encoders] == ["tfidf8", "native"]
    assert cfg.archs == ["gcn", "mlp"]
    assert cfg.seeds == (0, 1)
    assert cfg.out_dir == str(tmp_path / "out")


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/bench.json")


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"archs": []}, "at least one"),
        ({"archs": ["gcn", "gcn"]}, "duplicate"),
        ({"archs": ["gat"]}, "unknown arch"),
        ({"encoders": []}, "at least one"),
        ({"split": {"protocol": "mid"}}, "protocol"),
        ({"dataset": {"kind": "synthetic"}}, "synthetic dataset block needs 'n'"),
        ({"train": {"epochs": 0}}, "train block"),
        ({"output": {"format": "xml"}}, "format"),
        ({"workers": 0}, "workers"),
        ({"model": {"hiden": 8}}, "model block"),
        ({"archs": ["graph_transformer"], "model": {"hidden": 10, "heads": 4}},
         "model block"),
        ({"train": {"seeds": []}}, "train block"),
        ({"workers": "two"}, "workers"),
        ({"output": {"dirr": "x"}}, "unknown key 'dirr' in output"),
        ({"split": {"protocol": "low", "per_class": "many"}}, "split block"),
        ({"worker": 2}, "unknown key 'worker' in the top level"),
        ({"dataset": {"kind": "synthetic", "n": "many", "classes": 2, "p_in": 0.9,
                      "p_out": 0.05}}, "bad synthetic dataset block"),
        ({"train": {"seeds": ["a"]}}, "train block"),
        ({"train": {"seeds": 3}}, "train block"),
        # integer fields refuse a fractional part instead of truncating it
        ({"train": {"epochs": 5.5}}, "train block: epochs"),
        ({"train": {"patience": 2.5}}, "train block: patience"),
        ({"train": {"seeds": [0, 1.5]}}, "train block: seeds"),
        ({"model": {"layers": 2.6}}, "model block: layers"),
        ({"workers": 1.5}, "workers"),
        ({"split": {"protocol": "low", "n_val": 10.5}}, "split block: n_val"),
        ({"split": {"protocol": "high", "seed": float("inf")}}, "split block: seed"),
        ({"dataset": {"kind": "synthetic", "n": 40.5, "classes": 2, "p_in": 0.9,
                      "p_out": 0.05}}, "synthetic dataset block: n"),
        ({"encoders": [{"name": "t", "kind": "tfidf", "vocab_size": 4.5}]},
         "encoder entry: vocab_size"),
        ({"model": 5}, "model block: expected an object"),
        ({"dataset": "cora"}, "dataset block: expected an object"),
        *(({"encoders": [_remote_encoder(timeout=bad)]}, "encoder entry.*timeout(:| must)")
          for bad in (0, -1.5, "soon", None, [30], float("nan"), float("inf"))),
        *(({"encoders": [_remote_encoder(retry_base_delay=bad)]},
           "encoder entry.*retry_base_delay(:| must)")
          for bad in (-1, "soon", None, float("nan"), float("inf"))),
        # path and name fields refuse anything but a string
        ({"dataset": {"kind": "planetoid", "dir": 5, "name": "toy"}},
         "planetoid dataset block: dir"),
        ({"dataset": {"kind": "planetoid", "dir": "ds", "name": 5}},
         "planetoid dataset block: name"),
        ({"encoders": [{"name": "f", "kind": "file", "path": 7}]}, "encoder entry: path"),
        ({"encoders": [_remote_encoder(cache_dir=7)]}, "encoder entry: cache_dir"),
        ({"encoders": [{"name": ["a"], "kind": "tfidf", "vocab_size": 4}]},
         "encoder entry: name"),
        ({"output": {"dir": 3}}, "output block: dir"),
        ({"output": {"format": ["md"]}}, "output block: format"),
        ({"dataset": {"kind": ["synthetic"]}}, "planetoid or synthetic"),
        # a JSON bool is not a number, and lr and weight_decay must be finite
        ({"train": {"epochs": True}}, "train block: epochs"),
        ({"workers": True}, "workers"),
        ({"split": {"protocol": "low", "per_class": True}}, "split block: per_class"),
        ({"train": {"seeds": [True, False]}}, "train block: seeds"),
        ({"train": {"lr": True}}, "train block: lr"),
        ({"model": {"dropout": False}}, "model block: dropout"),
        ({"train": {"lr": float("nan")}}, "train block: learning rate"),
        ({"train": {"lr": float("inf")}}, "train block: learning rate"),
        ({"train": {"weight_decay": float("inf")}}, "train block: weight decay must"),
        ({"train": {"weight_decay": float("nan")}}, "train block: weight decay must"),
        # heads is range-checked before the divisibility check, for every arch
        ({"archs": ["graph_transformer"], "model": {"hidden": 8, "heads": 0}},
         "model block: heads must be >= 1"),
        ({"archs": ["graph_transformer"], "model": {"hidden": 8, "heads": -2}},
         "model block: heads must be >= 1"),
        ({"archs": ["gcn"], "model": {"heads": 0}}, "model block: heads must be >= 1"),
        # split sizes below 1 fail at load, not in every cell
        ({"split": {"protocol": "low", "per_class": 0}}, "split block: per_class must be >= 1"),
        ({"split": {"protocol": "low", "n_val": -1}}, "split block: n_val must be >= 1"),
        ({"split": {"protocol": "low", "n_test": -5}}, "split block: n_test must be >= 1"),
        # synthetic arguments generate_synthetic refuses fail at load
        *(({"dataset": {"kind": "synthetic", "n": 40, "classes": 2, "p_in": 0.9, "p_out": 0.05,
                        **bad}}, f"synthetic dataset block: .*{key}")
          for bad, key in [({"n": -3}, "n=-3"), ({"classes": 1}, "classes=1"),
                           ({"p_in": 0.05, "p_out": 0.9}, "p_in=0.05 p_out=0.9"),
                           ({"p_in": 0.5, "p_out": 0.5}, "p_in=0.5 p_out=0.5"),
                           ({"dim": 0}, "dim must be >= 1, got 0"),
                           ({"dim": -2}, "dim must be >= 1, got -2")]),
        # a high split takes no sizes
        *(({"split": {"protocol": "high", key: 5}}, f"unknown key '{key}' in high split block")
          for key in ("per_class", "n_val", "n_test")),
        # a split the dataset (40 nodes, 20 per class) cannot supply, before any run
        ({"split": {"protocol": "low", "per_class": 25}}, "split block: class 0 has 20 nodes"),
        ({"split": {"protocol": "low", "per_class": 1, "n_val": 30, "n_test": 30}},
         "split block: 38 nodes remain"),
        ({"dataset": {"kind": "synthetic", "n": 4, "classes": 2, "p_in": 0.9, "p_out": 0.05}},
         "split block: need at least 5 nodes"),
        # an encoder entry takes only its own kind's fields
        *(({"encoders": [{"name": "t", "kind": "tfidf", "vocab_size": 4, **bad}]},
           f"unknown key '{next(iter(bad))}' in tfidf encoder entry")
          for bad in ({"path": "native.emb"}, {"endpoint": "http://127.0.0.1:9"},
                      {"batch_size": 0})),
        ({"encoders": [{"name": "f", "kind": "file", "path": "native.emb", "vocab_size": 4}]},
         "unknown key 'vocab_size' in file encoder entry"),
        ({"encoders": [_remote_encoder(vocab_size=4)]},
         "unknown key 'vocab_size' in remote encoder entry"),
        # archs and encoders are JSON arrays
        ({"archs": "gcn"}, "top level: archs: expected a JSON array"),
        ({"encoders": "tfidf"}, "top level: encoders: expected a JSON array"),
        ({"archs": {"gcn": 1}}, "top level: archs: expected a JSON array"),
        # each encoder and model field is range-checked at load
        ({"encoders": [{"name": "", "kind": "tfidf", "vocab_size": 4}]},
         "encoder entry '': encoder needs a name"),
        *(({"encoders": [{k: v for k, v in _remote_encoder().items() if k != gone}]},
           "remote encoder 'svc' requires endpoint and model")
          for gone in ("endpoint", "model")),
        *(({"encoders": [_remote_encoder(**{key: 0})]},
           "batch_size and max_in_flight must be >= 1")
          for key in ("batch_size", "max_in_flight")),
        ({"model": {"hidden": 0}}, "model block: in_dim/hidden must be >= 1"),
    ],
)
def test_config_rejects_bad_blocks(tmp_path, capsys, overrides, message):
    assert main(["bench", "--config", _write_config(tmp_path, **overrides)]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("consumer,supplied", [
    (load_planetoid, ()), (generate_synthetic, ()), (split_low, ("labels", "num_classes", "seed")),
    (split_high, ("n", "seed")), (EncoderSpec, ()), (TrainSpec, ()),
    (ModelSpec, ("arch", "in_dim", "num_classes")),
])
def test_every_config_parameter_has_a_cast(consumer, supplied):
    # a new field whose annotation has no cast fails here, not at a user's load
    keys = [p for p in inspect.signature(consumer).parameters.values() if p.name not in supplied]
    assert [p.name for p in keys if p.annotation not in bench._CASTS] == []
    assert list(bench._key_table(consumer, *supplied)) == [p.name for p in keys]


@pytest.mark.parametrize("dataset", ["planetoid", "synthetic"])
def test_config_with_every_documented_key_loads(tmp_path, dataset):
    from conftest import write_planetoid

    write_planetoid(tmp_path / "ds", "toy", edges=[(0, 1)], labels=[0, 1, 0, 1, 0, 1])
    datasets = {
        "planetoid": {"kind": "planetoid", "dir": "ds", "name": "toy"},
        "synthetic": {"kind": "synthetic", "n": 40, "classes": 2, "p_in": 0.9, "p_out": 0.05,
                      "dim": 6, "sep": 4.0, "seed": 1},
    }
    cfg = load_config(_write_config(
        tmp_path,
        dataset=datasets[dataset],
        encoders=[{"name": "t", "kind": "tfidf", "vocab_size": 8},
                  {"name": "f", "kind": "file", "path": "native.emb"},
                  _remote_encoder(batch_size=4, max_in_flight=2, retry_base_delay=0.1,
                                  timeout=5)],
        archs=["gcn", "mlp", "graph_transformer"],
        split={"protocol": "low", "per_class": 1, "n_val": 1, "n_test": 1, "seed": 3},
        train={"epochs": 5, "patience": 5, "lr": 0.02, "weight_decay": 0.0, "seeds": [0]},
        model={"layers": 2, "hidden": 8, "heads": 2, "dropout": 0.1},
        output={"dir": "out", "format": "tex"},
        workers=2,
    ))
    assert cfg.dataset == {**datasets[dataset], **({"dir": str(tmp_path / "ds")}
                                                   if dataset == "planetoid" else {})}
    assert [e.kind for e in cfg.encoders] == ["tfidf", "file", "remote"]
    assert (cfg.encoders[2].batch_size, cfg.encoders[2].timeout) == (4, 5.0)
    assert cfg.split["seed"] == 3 and cfg.trainspec.lr == 0.02 and cfg.model["heads"] == 2
    assert (cfg.table_format, cfg.workers) == ("latex", 2)


def test_config_key_at_its_default_loads_like_an_absent_one(tmp_path):
    def load(**overrides):  # a None override leaves its block out
        path = Path(_write_config(tmp_path, **overrides))
        blob = json.loads(path.read_text())
        path.write_text(json.dumps({key: v for key, v in blob.items() if v is not None}))
        return load_config(str(path))

    assert load(model={"layers": 4, "dropout": 0.5}) == load(model={})
    assert load(split={"protocol": "high", "seed": None}) == load(split=None)


def test_config_accepts_integral_numbers(tmp_path):
    cfg = load_config(_write_config(
        tmp_path,
        train={"epochs": 15.0, "patience": "15", "seeds": [0.0, 1]},
        model={"layers": 2.0, "hidden": 8, "heads": 2},
        workers=2.0,
    ))
    assert (cfg.trainspec.epochs, cfg.trainspec.patience, cfg.seeds) == (15, 15, (0, 1))
    assert cfg.model["layers"] == 2 and cfg.workers == 2
    assert all(type(v) is int for v in (cfg.trainspec.epochs, cfg.model["layers"], cfg.workers))


@pytest.mark.parametrize("seeds", [["a"], 3, [True, False]])
def test_cli_bad_seeds_exit_2(tmp_path, capsys, seeds):
    config = _write_config(tmp_path, train={"epochs": 2, "seeds": seeds})
    assert main(["bench", "--config", config]) == 2
    assert "train block" in capsys.readouterr().err


@pytest.mark.parametrize(
    "train", [{"epochs": True}, {"lr": True}, {"lr": float("nan")}, {"weight_decay": float("inf")}],
    ids=["bool_epochs", "bool_lr", "nan_lr", "inf_weight_decay"],
)
def test_cli_bool_or_non_finite_train_value_exits_2(tmp_path, capsys, train):
    config = _write_config(tmp_path, train={"epochs": 2, "seeds": [0], **train})
    assert main(["bench", "--config", config]) == 2
    assert "train block" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_config_encoder_timeout_defaults_and_loads(tmp_path):
    cfg = load_config(_write_config(
        tmp_path, encoders=[_remote_encoder(), _remote_encoder(name="fast", timeout="2.5")]
    ))
    assert [e.timeout for e in cfg.encoders] == [30.0, 2.5]


def test_config_encoder_retry_base_delay_loads_and_bad_exits_2_at_prepare(tmp_path, capsys):
    cfg = load_config(_write_config(tmp_path, encoders=[
        _remote_encoder(), _remote_encoder(name="now", retry_base_delay=0),
        _remote_encoder(name="slow", retry_base_delay="2.5"),
    ]))
    assert [e.retry_base_delay for e in cfg.encoders] == [0.5, 0.0, 2.5]
    # refused at load, before any request to the (dead) endpoint
    config = _write_config(tmp_path, encoders=[_remote_encoder(retry_base_delay=-1)])
    assert main(["prepare", "--config", config]) == 2
    assert "retry_base_delay" in capsys.readouterr().err


def test_config_duplicate_encoder_names(tmp_path):
    enc = [{"name": "e", "kind": "tfidf", "vocab_size": 4},
           {"name": "e", "kind": "tfidf", "vocab_size": 8}]
    with pytest.raises(ConfigError, match="duplicate encoder"):
        load_config(_write_config(tmp_path, encoders=enc))


def test_config_missing_referenced_file(tmp_path):
    enc = [{"name": "f", "kind": "file", "path": "missing.emb"}]
    with pytest.raises(ConfigError, match="missing"):
        load_config(_write_config(tmp_path, encoders=enc))


# ---------------------------------------------------------------------------
# prepare


def test_prepare_tfidf_writes_emb1_with_node_rows(tmp_path):
    config = _write_config(
        tmp_path,
        dataset={"kind": "synthetic", "n": 5, "classes": 2, "p_in": 1.0, "p_out": 0.0,
                 "dim": 3, "sep": 1.0, "seed": 0},
        encoders=[{"name": "tfidf4", "kind": "tfidf", "vocab_size": 4}],
    )
    cfg = load_config(config)
    written = prepare(cfg)
    assert written == [feature_path(cfg, cfg.encoders[0])]
    from tagforge.features import load_embedding_file

    matrix = load_embedding_file(written[0])
    assert matrix.shape[0] == 5


def test_prepare_is_idempotent_unless_forced(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    first = prepare(cfg)
    assert len(first) == 2
    stamps = {p: os.path.getmtime(p) for p in first}
    assert prepare(cfg) == []
    assert {p: os.path.getmtime(p) for p in first} == stamps
    time.sleep(0.01)
    assert sorted(prepare(cfg, force=True)) == sorted(first)


def test_cli_prepare_says_when_every_file_is_present(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["prepare", "--config", config]) == 0
    capsys.readouterr()
    assert main(["prepare", "--config", config]) == 0
    assert capsys.readouterr().out == (
        "all feature files present; nothing to do (use --force to rebuild)\n")


@pytest.mark.parametrize("kind", ["tfidf", "file"])
def test_cli_prepare_refuses_an_encoder_with_no_feature_columns(tmp_path, capsys, kind):
    # texts with no [a-z0-9] run give tfidf no vocabulary
    from conftest import write_planetoid

    write_planetoid(tmp_path / "ds", "zh", edges=[(0, 1), (1, 2), (2, 3)],
                    labels=[0, 1, 0, 1, 0, 1], texts=["图", "节点", "文本", "分类", "图", "边"])
    save_embedding_file(str(tmp_path / "empty.emb"), np.zeros((6, 0)))
    encoder = ({"name": "tf", "kind": "tfidf", "vocab_size": 8} if kind == "tfidf"
               else {"name": "tf", "kind": "file", "path": "empty.emb"})
    config = _write_config(tmp_path, dataset={"kind": "planetoid", "dir": "ds", "name": "zh"},
                           encoders=[encoder])
    assert main(["prepare", "--config", config]) == 2
    assert "config error: encoder 'tf' produced no feature columns" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "features" / "tf.emb")


def test_prepare_checks_a_file_encoder_and_copies_it_byte_identically(tmp_path, capsys):
    config = _write_config(tmp_path, encoders=[{"name": "f", "kind": "file", "path": "native.emb"}])
    source = tmp_path / "native.emb"
    valid = source.read_bytes()
    source.write_bytes(valid[:-7])
    assert main(["prepare", "--config", config]) == 1
    assert f"{source}: payload is" in capsys.readouterr().err
    assert not (tmp_path / "out" / "features").exists()

    source.write_bytes(valid)
    assert main(["prepare", "--config", config]) == 0
    assert (tmp_path / "out" / "features" / "f.emb").read_bytes() == valid


def test_prepare_requires_texts_for_tfidf(tmp_path):
    # planetoid dataset written without texts
    from conftest import write_planetoid

    write_planetoid(
        tmp_path / "ds", "toy",
        edges=[(0, 1), (1, 2), (2, 3)], labels=[0, 1, 0, 1],
    )
    config = _write_config(
        tmp_path,
        dataset={"kind": "planetoid", "dir": "ds", "name": "toy"},
        encoders=[{"name": "t", "kind": "tfidf", "vocab_size": 4}],
    )
    with pytest.raises(ConfigError, match="texts"):
        prepare(load_config(config))


# ---------------------------------------------------------------------------
# the grid


def _prepared_config(tmp_path, **overrides):
    cfg = load_config(_write_config(tmp_path, **overrides))
    prepare(cfg)
    return cfg


def test_bench_grid_completeness(tmp_path):
    cfg = _prepared_config(tmp_path, archs=["gcn", "mlp", "graph_transformer"])
    result = run_bench(cfg)
    assert result.ok
    assert set(result.cells) == {
        (e, a) for e in ["tfidf8", "native"] for a in ["gcn", "mlp", "graph_transformer"]
    }
    assert len(result.cells) == 6  # 2 encoders x 3 archs
    for cell in result.cells.values():
        assert 0.0 <= cell.mean <= 1.0
        assert cell.std >= 0.0
        assert len(cell.epochs) == 2


def test_bench_csv_is_deterministic(tmp_path):
    cfg = _prepared_config(tmp_path)
    first = to_csv(run_bench(cfg))
    second = to_csv(run_bench(cfg))
    assert first == second


def test_bench_workers_do_not_change_results(tmp_path):
    cfg = _prepared_config(tmp_path)
    serial = to_csv(run_bench(cfg))
    cfg.workers = 3
    assert to_csv(run_bench(cfg)) == serial


def test_split_seed_pins_one_split_while_default_redraws(tmp_path):
    from tagforge.bench import load_bench_dataset, make_split

    cfg = load_config(_write_config(tmp_path))
    ds = load_bench_dataset(cfg)
    a, b = make_split(cfg, ds, 0), make_split(cfg, ds, 1)
    assert not np.array_equal(a.train, b.train)  # per-run redraw by default
    cfg.split["seed"] = 42
    pinned_a, pinned_b = make_split(cfg, ds, 0), make_split(cfg, ds, 1)
    assert np.array_equal(pinned_a.train, pinned_b.train)
    cfg.split = {"protocol": "low", "per_class": 2, "n_val": 6, "n_test": 6}
    low = make_split(cfg, ds, 3)
    assert (low.train.size, low.val.size, low.test.size) == (4, 6, 6)


def test_bench_failed_cell_is_recorded_not_fatal(tmp_path):
    cfg = _prepared_config(tmp_path)
    # sabotage one feature file: wrong row count
    bad = feature_path(cfg, cfg.encoders[1])
    save_embedding_file(bad, np.zeros((3, 2), dtype=np.float32))
    result = run_bench(cfg)
    assert not result.ok
    assert result.cells[("tfidf8", "gcn")].ok
    failed = result.cells[("native", "gcn")]
    assert not failed.ok and "rows" in failed.error
    table = to_markdown(result)
    assert "failed" in table


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_records_a_training_error_as_a_failed_cell(tmp_path, capsys, monkeypatch, workers):
    config = _write_config(tmp_path, workers=workers)
    assert main(["prepare", "--config", config]) == 0
    assert main(["bench", "--config", config]) == 0
    clean = (tmp_path / "out" / "bench.csv").read_text()
    real_train = bench.train

    def train(model, *args):
        if model.spec.arch == "mlp":
            raise FloatingPointError("non-finite training loss nan at epoch 3")
        return real_train(model, *args)

    monkeypatch.setattr(bench, "train", train)
    capsys.readouterr()
    assert main(["bench", "--config", config]) == 1
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "bench.csv").read_text())))
    failed = "failed: non-finite training loss nan at epoch 3"
    assert [(r["encoder"], r["arch"], r["status"]) for r in rows] == [
        ("tfidf8", "gcn", "ok"), ("tfidf8", "mlp", failed),
        ("native", "gcn", "ok"), ("native", "mlp", failed),
    ]
    ok_rows = [r for r in csv.DictReader(io.StringIO(clean)) if r["arch"] == "gcn"]
    assert [r for r in rows if r["arch"] == "gcn"] == ok_rows  # the other cells are unchanged
    table = (tmp_path / "out" / "bench.md").read_text()
    assert [line.rsplit("|", 2)[1].strip() for line in table.splitlines()[2:]] == ["failed"] * 2
    assert "failed" in capsys.readouterr().out


def test_bench_unprepared_features_fail_cleanly(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    result = run_bench(cfg)
    assert not result.ok
    assert all("prepare" in c.error for c in result.cells.values())


@pytest.mark.parametrize("nonzeros,sparse", [(40, True), (41, False)])
def test_load_features_keeps_matrices_up_to_ten_percent_dense_as_csr(
    tmp_path, nonzeros, sparse
):
    cfg = load_config(_write_config(tmp_path))
    encoder = cfg.encoders[1]
    rng = np.random.default_rng(0)
    x = np.zeros((40, 10), dtype=np.float32)  # 40 of 400 entries is exactly 10%
    x.flat[rng.choice(x.size, nonzeros, replace=False)] = rng.random(nonzeros) + 0.5
    save_embedding_file(feature_path(cfg, encoder), x)
    features = load_features(cfg, encoder, load_bench_dataset(cfg))
    assert isinstance(features, csr_array if sparse else np.ndarray)
    assert features.dtype == np.float64
    assert np.array_equal(features.toarray() if sparse else features, x)


def test_markdown_cell_format_and_bold_row_best(tmp_path):
    cfg = _prepared_config(tmp_path)
    result = run_bench(cfg)
    table = to_markdown(result)
    assert re.search(r"\d+\.\d{2} ± \d+\.\d{2}", table)
    for encoder in result.encoders:
        row = next(line for line in table.splitlines() if line.startswith(f"| {encoder} "))
        assert row.count("**") == 2  # exactly one bold cell per row
        best = max(
            (result.cells[(encoder, a)] for a in result.archs), key=lambda c: c.mean
        )
        assert f"**{best.mean * 100:.2f} ± {best.std * 100:.2f}**" in row


def test_latex_table_shape(tmp_path):
    cfg = _prepared_config(tmp_path)
    table = to_latex(run_bench(cfg))
    assert table.startswith("\\begin{tabular}")
    assert "\\textbf{" in table
    assert "$\\pm$" in table
    assert table.rstrip().endswith("\\end{tabular}")


def test_csv_reparses_to_table_values(tmp_path):
    cfg = _prepared_config(tmp_path)
    result = run_bench(cfg)
    rows = list(csv.DictReader(io.StringIO(to_csv(result))))
    assert len(rows) == 4
    for row in rows:
        cell = result.cells[(row["encoder"], row["arch"])]
        assert float(row["mean_pct"]) == cell.mean * 100  # full-precision round trip
        formatted = f"{float(row['mean_pct']):.2f} ± {float(row['std_pct']):.2f}"
        assert formatted in to_markdown(result)
        assert row["status"] == "ok"
        assert row["seeds"] == "0;1"


# ---------------------------------------------------------------------------
# CLI


def test_cli_prepare_then_bench_exit_codes(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["prepare", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert main(["bench", "--config", config]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\d+\.\d{2} ± \d+\.\d{2}", out)
    assert os.path.exists(tmp_path / "out" / "bench.csv")
    assert os.path.exists(tmp_path / "out" / "bench.md")


def test_cli_bench_byte_identical_csv(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["prepare", "--config", config]) == 0
    assert main(["bench", "--config", config]) == 0
    first = (tmp_path / "out" / "bench.csv").read_bytes()
    assert main(["bench", "--config", config]) == 0
    second = (tmp_path / "out" / "bench.csv").read_bytes()
    capsys.readouterr()
    assert first == second


def test_write_outputs_keeps_previous_files_when_replace_fails(tmp_path, monkeypatch):
    cfg = load_config(_write_config(tmp_path))

    def result(mean):
        cell = CellResult("native", "gcn", mean, 0.0, [3])
        return BenchResult("toy", ["native"], ["gcn"], (0,), {("native", "gcn"): cell})

    paths = write_outputs(result(0.5), cfg)
    umask = os.umask(0)
    os.umask(umask)
    assert {stat.S_IMODE(os.stat(p).st_mode) for p in paths} == {0o666 & ~umask}
    def contents():
        return [(tmp_path / "out" / name).read_bytes() for name in ("bench.csv", "bench.md")]

    previous = contents()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_outputs(result(0.75), cfg)
    assert contents() == previous
    assert sorted(os.listdir(cfg.out_dir)) == ["bench.csv", "bench.md"]


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "none.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_train_prints_metrics_and_is_repeatable(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    capsys.readouterr()
    started = time.time()
    record_path = tmp_path / "run.json"
    code = main([
        "train", "--config", config, "--encoder", "native", "--arch", "gcn",
        "--seed", "7", "--out", str(record_path),
    ])
    elapsed = time.time() - started
    assert code == 0
    assert elapsed < 60.0
    first = capsys.readouterr().out
    assert "test_acc=" in first and "epochs_ran=" in first
    assert re.search(r"^stop_reason=(patience|epoch_cap)$", first, re.MULTILINE)
    assert f"record written to {record_path}" in first
    # the record is the RunResult itself, every float exact
    cfg = load_config(config)
    dataset = load_bench_dataset(cfg)
    features = load_features(cfg, cfg.encoders[1], dataset)
    expected = dataclasses.asdict(run_seed(cfg, dataset, features, "gcn", 7))
    assert record_path.read_text().count("\n") == 1
    assert json.loads(record_path.read_text()) == expected
    main([
        "train", "--config", config, "--encoder", "native", "--arch", "gcn", "--seed", "7",
    ])
    second = capsys.readouterr().out
    keys = ("best_val", "test_acc", "epochs", "stop_reason")
    assert [l for l in first.splitlines() if l.startswith(keys)] \
        == [l for l in second.splitlines() if l.startswith(keys)]


def test_cli_train_log_keeps_previous_file_when_replace_fails(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    logs = tmp_path / "logs"
    log_path = logs / "run.json"
    train = ["train", "--config", config, "--encoder", "native", "--arch", "mlp", "--out"]
    assert main(train + [str(log_path), "--seed", "1"]) == 0
    previous = log_path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(train + [str(log_path), "--seed", "2"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert log_path.read_bytes() == previous
    assert os.listdir(logs) == ["run.json"]


def test_cli_train_matches_one_seed_bench(tmp_path, capsys):
    # train and bench share run_seed, so one seed gives the same accuracy
    config = _write_config(tmp_path, archs=["graph_transformer"],
                           train={"epochs": 15, "patience": 15, "seeds": [3]})
    main(["prepare", "--config", config])
    assert main(["bench", "--config", config]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "bench.csv").read_text())))
    for row in rows:
        assert main(["train", "--config", config, "--encoder", row["encoder"],
                     "--arch", "graph_transformer", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        test_acc = next(l for l in out.splitlines() if l.startswith("test_acc="))
        assert test_acc == f"test_acc={float(row['mean_pct']) / 100:.4f}"


def test_cli_train_refuses_a_split_the_dataset_cannot_supply(tmp_path, capsys):
    config = _write_config(tmp_path, split={"protocol": "low", "per_class": 25})
    assert main(["prepare", "--config", config]) == 0  # prepare draws no split
    code = main(["train", "--config", config, "--encoder", "native", "--arch", "mlp"])
    assert code == 2
    assert "split block: class 0 has 20 nodes, need 25" in capsys.readouterr().err


def test_cli_train_bad_feature_file_fails(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    cfg = load_config(config)
    path = feature_path(cfg, cfg.encoders[1])
    with open(path, "wb") as fh:
        fh.write(b"garbage not emb1")
    capsys.readouterr()
    code = main(["train", "--config", config, "--encoder", "native", "--arch", "mlp"])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_cli_train_unknown_encoder_is_config_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["train", "--config", config, "--encoder", "nope", "--arch", "gcn"]) == 2
    capsys.readouterr()


def test_cli_bench_with_failed_cell_exits_nonzero(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    cfg = load_config(config)
    save_embedding_file(feature_path(cfg, cfg.encoders[0]), np.zeros((1, 2), dtype=np.float32))
    code = main(["bench", "--config", config])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed" in out  # table still emitted with the failure marked


@pytest.mark.parametrize("suffix", [".labels", ".edges"])
def test_cli_planetoid_dataset_missing_a_file_exits_2_naming_it(tmp_path, capsys, suffix):
    from conftest import write_planetoid

    write_planetoid(tmp_path / "ds", "toy", edges=[(0, 1)], labels=[0, 1, 0, 1, 0, 1])
    missing = tmp_path / "ds" / f"toy{suffix}"
    missing.unlink()
    config = _write_config(tmp_path, dataset={"kind": "planetoid", "dir": "ds", "name": "toy"})
    capsys.readouterr()
    assert main(["bench", "--config", config]) == 2
    assert f"dataset file missing: {missing}" in capsys.readouterr().err


def test_cli_train_arch_not_in_config_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)  # archs gcn and mlp
    code = main(["train", "--config", config, "--encoder", "native", "--arch", "graph_transformer"])
    assert code == 2
    assert "arch 'graph_transformer' not in config archs" in capsys.readouterr().err


def test_cli_prepare_dead_endpoint_names_it(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        encoders=[{
            "name": "svc", "kind": "remote", "endpoint": "http://127.0.0.1:9",
            "model": "m", "cache_dir": "cache", "retry_base_delay": 0.0,
        }],
    )
    code = main(["prepare", "--config", config])
    err = capsys.readouterr().err
    assert code == 1
    assert "127.0.0.1:9" in err


def test_cli_gradcheck_pass_lists_each_op_once(capsys):
    assert main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    ops = [line.split()[0] for line in out.splitlines() if "max_rel_err" in line]
    assert len(ops) == len(set(ops))
    assert {"matmul", "gcn_layer", "graph_transformer_layer"} <= set(ops)


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_gradcheck_refuses_no_seeds_at_parse(capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds: must be at least 1" in capsys.readouterr().err


def test_run_gradcheck_refuses_empty_seeds():
    with pytest.raises(ValueError, match="at least one seed"):
        run_gradcheck(seeds=range(0))


def test_gradcheck_flags_sabotaged_backward(monkeypatch):
    def broken_backward_check(seed):
        return 0.5  # pretend some op disagrees with finite differences

    monkeypatch.setattr("tagforge.gradcheck.CHECKS", {"broken_op": broken_backward_check})
    results = run_gradcheck(seeds=range(2))
    assert len(results) == 1
    assert not results[0].ok


def test_cli_bench_format_and_out_overrides(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    out_dir = tmp_path / "alt"
    code = main(["bench", "--config", config, "--format", "tex", "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 1  # --out moved the dir, so prepared features are elsewhere
    # with --force the features are re-prepared into the new out dir
    code = main(["bench", "--config", config, "--format", "tex", "--out", str(out_dir),
                 "--force"])
    capsys.readouterr()
    assert code == 0
    assert os.path.exists(out_dir / "bench.tex")
    assert os.path.exists(out_dir / "bench.csv")


@pytest.mark.parametrize(
    "fmt", ["markdown", "md", "latex", "tex", "csv", "MD", "Markdown", "html", "txt", ""]
)
def test_cli_format_choices_are_the_config_aliases(tmp_path, capsys, fmt):
    try:
        load_config(_write_config(tmp_path, output={"dir": "out", "format": fmt}))
        accepted = True
    except ConfigError:
        accepted = False
    try:
        _build_parser().parse_args(["bench", "--config", "c.json", "--format", fmt])
        parsed = True
    except SystemExit:
        parsed = False
    capsys.readouterr()
    assert parsed == accepted


def test_cli_seeds_override(tmp_path, capsys):
    config = _write_config(tmp_path)
    main(["prepare", "--config", config])
    assert main(["bench", "--config", config, "--seeds", "3"]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "bench.csv").read_text())))
    assert all(row["seeds"] == "0;1;2" for row in rows)


def test_cli_zero_seeds_is_config_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["bench", "--config", config, "--seeds", "0"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_full_matrix_on_planetoid_dataset(tmp_path, capsys):
    # an on-disk dataset with raw texts, end to end through prepare + bench
    from conftest import write_planetoid
    from tagforge.data import generate_synthetic

    ds = generate_synthetic(36, 2, p_in=0.8, p_out=0.05, dim=5, sep=3.0, seed=6)
    rows = np.repeat(np.arange(36), np.diff(ds.graph.indptr))
    undirected = [(int(i), int(j)) for i, j in zip(rows, ds.graph.indices) if i < j]
    write_planetoid(
        tmp_path / "ds", "toy",
        edges=undirected, labels=ds.labels.tolist(),
        features=ds.features, texts=ds.texts,
    )
    config = _write_config(
        tmp_path,
        dataset={"kind": "planetoid", "dir": "ds", "name": "toy"},
        encoders=[
            {"name": "tfidf6", "kind": "tfidf", "vocab_size": 6},
            {"name": "bow", "kind": "file", "path": "ds/toy.features"},
        ],
        train={"epochs": 12, "patience": 12, "seeds": [0, 1]},
    )
    assert main(["prepare", "--config", config]) == 0
    assert main(["bench", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "tfidf6" in out and "bow" in out
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "bench.csv").read_text())))
    assert {r["dataset"] for r in rows} == {"toy"}
    assert all(r["status"] == "ok" for r in rows)


def test_perfbench_tracer_wraps_only_names_that_exist(monkeypatch):
    """``perfbench/run.py --trace 1`` wraps tagforge names in place, a
    superset of those its untraced ``Probe`` wraps; a name deleted or renamed
    here would break the traced benchmark, so it fails this test instead."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)
    patched = []

    class Recording(tracing.Patches):
        def patch(self, owner, attr, make):
            patched.append((owner, attr, getattr(owner, attr)))
            super().patch(owner, attr, make)

    patches = Recording()
    try:
        tracing.Tracer().install(patches)
    finally:
        patches.restore()
    probe_names = {("tagforge.bench", "run_cell"), ("tagforge.bench", "train"),
                   ("tagforge.train", "forward_backward")}
    assert probe_names <= {(owner.__name__, attr) for owner, attr, _ in patched}
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
