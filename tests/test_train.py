"""Optimizer math, the training protocol, evaluation, aggregation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

import tagforge.train as train_module
from tagforge import models
from tagforge.data import Dataset, SplitMask, generate_synthetic, split_high
from tagforge.graph import from_edge_list
from tagforge.models import (
    ARCHITECTURES,
    ModelSpec,
    build_context,
    forward_backward,
    init_parameters,
)
from tagforge.nn import cross_entropy
from tagforge.rng import SplitMix64
from tagforge.train import (
    AdamState,
    RunResult,
    TrainSpec,
    adam_step,
    aggregate,
    evaluate,
    train,
)


def _single_param(value):
    p = np.array([[float(value)]])
    return {"theta": p}, p


def test_adam_first_step_hand_value():
    params, p = _single_param(0.0)
    adam_step(params, {"theta": np.array([[1.0]])}, AdamState(params),
              TrainSpec(lr=0.01, weight_decay=0.0))
    # hand recursion at t=1: m_hat = v_hat = 1, step = -lr / (1 + eps)
    assert abs(p[0, 0] + 0.01 / (1.0 + 1e-8)) < 1e-15


def test_adam_zero_gradient_leaves_parameter_unchanged():
    params, p = _single_param(3.5)
    adam_step(params, {"theta": np.zeros((1, 1))}, AdamState(params),
              TrainSpec(weight_decay=0.0))
    assert p[0, 0] == 3.5


def test_adam_identical_inputs_identical_updates():
    params_a, a = _single_param(1.0)
    params_b, b = _single_param(1.0)
    spec = TrainSpec()
    adam_step(params_a, {"theta": np.array([[0.3]])}, AdamState(params_a), spec)
    adam_step(params_b, {"theta": np.array([[0.3]])}, AdamState(params_b), spec)
    assert a[0, 0] == b[0, 0]


def test_adam_requires_backward_first():
    params, _ = _single_param(1.0)
    with pytest.raises(ValueError, match="before backward"):
        adam_step(params, {}, AdamState(params), TrainSpec())


@pytest.mark.parametrize("grad, error, message", [
    (None, ValueError, "adam_step before backward: no gradient for b"),
    (np.ones((1, 1)), ValueError, r"gradient shape \(1, 1\) != \(1, 2\) for b"),
    (np.array([[0.0, np.nan]]), FloatingPointError, "non-finite gradient for b at epoch 1"),
], ids=["missing", "misshapen", "non-finite"])
def test_adam_refuses_a_bad_gradient_before_any_parameter_moves(grad, error, message):
    # "a" comes first and its gradient is good, so a step that moved each
    # parameter as it checked it would have moved "a"; the (1, 1) gradient
    # would broadcast against b's (1, 2) if its shape were not checked
    params = {"a": np.array([[1.0, -2.0]]), "b": np.array([[3.0, 4.0]])}
    before = {name: value.copy() for name, value in params.items()}
    grads = {"a": np.ones((1, 2))} | ({} if grad is None else {"b": grad})
    state = AdamState(params)
    with pytest.raises(error, match=message):
        adam_step(params, grads, state, TrainSpec())
    for name, value in params.items():
        assert np.array_equal(value, before[name]), name
    assert state.t == 0 and not any(m.any() for m in state.m.values())


def test_adam_weight_decay_pulls_toward_zero():
    params, p = _single_param(5.0)
    adam_step(params, {"theta": np.zeros((1, 1))}, AdamState(params),
              TrainSpec(weight_decay=0.1))
    assert p[0, 0] < 5.0


def test_adam_converges_on_quadratic():
    params, p = _single_param(1.0)
    state = AdamState(params)
    spec = TrainSpec(lr=0.01, weight_decay=0.0)
    for _ in range(500):
        adam_step(params, {"theta": p.copy()}, state, spec)  # grad of 0.5 * theta^2
    assert abs(p[0, 0]) < 1e-3


def test_trainspec_validation():
    with pytest.raises(ValueError):
        TrainSpec(epochs=0)
    with pytest.raises(ValueError):
        TrainSpec(patience=0)
    with pytest.raises(ValueError):
        TrainSpec(lr=0.0)
    with pytest.raises(ValueError, match="seed"):
        TrainSpec(seeds=())


# ---------------------------------------------------------------------------
# evaluate


def _constant_logit_model():
    spec = ModelSpec("mlp", in_dim=2, num_classes=2, layers=2, hidden=2, dropout=0.0)
    model = init_parameters(spec, seed=0)
    for p in model.parameters.values():
        p[...] = 0.0  # logits all zero -> argmax ties resolve to class 0
    return model


def _tiny_dataset(labels):
    n = len(labels)
    graph = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    features = np.ones((n, 2))
    return Dataset(graph, features, np.array(labels), int(max(labels)) + 1)


def _masks(val, test=None):
    """A split that ``evaluate`` reads: its val and test masks (test defaults to val)."""
    return SplitMask(np.array([], dtype=np.int64), np.asarray(val),
                     np.asarray(val if test is None else test))


def test_evaluate_all_correct_and_all_wrong():
    ds = _tiny_dataset([0, 0, 0, 0])
    model = _constant_logit_model()
    assert evaluate(model, ds, _masks(np.arange(4)), build_context(ds.graph)) == (1.0, 1.0)
    ds_wrong = _tiny_dataset([1, 1, 1, 0])
    context = build_context(ds_wrong.graph)
    assert evaluate(model, ds_wrong, _masks(np.array([0, 1, 2])), context) == (0.0, 0.0)


def test_evaluate_tie_break_to_lowest_class():
    ds = _tiny_dataset([0, 1, 0, 1])  # constant logits predict class 0 everywhere
    model = _constant_logit_model()
    assert evaluate(model, ds, _masks(np.arange(4)), build_context(ds.graph)) == (0.5, 0.5)


def test_evaluate_empty_mask():
    ds = _tiny_dataset([0, 1])
    empty, some = np.array([], dtype=int), np.array([0])
    for split in (_masks(empty, some), _masks(some, empty)):
        with pytest.raises(ValueError):
            evaluate(_constant_logit_model(), ds, split, build_context(ds.graph))


# ---------------------------------------------------------------------------
# training loop


def _toy(seed=0, n=60):
    ds = generate_synthetic(n, 2, p_in=1.0, p_out=0.0, dim=8, sep=5.0, seed=seed)
    split = split_high(n, seed=0)
    return ds, split


def test_train_same_seed_identical_results():
    ds, split = _toy()
    spec = ModelSpec("gcn", in_dim=8, num_classes=2, layers=2, hidden=8)
    a = train(init_parameters(spec, 3), ds, split, TrainSpec(epochs=30), seed=3)
    b = train(init_parameters(spec, 3), ds, split, TrainSpec(epochs=30), seed=3)
    assert a.best_val_acc == b.best_val_acc
    assert a.test_acc_at_best_val == b.test_acc_at_best_val
    assert a.epochs_ran == b.epochs_ran
    assert a.loss_curve == b.loss_curve
    assert a.val_curve == b.val_curve


def test_train_separable_toy_reaches_perfect_gcn_accuracy():
    ds, split = _toy()
    spec = ModelSpec("gcn", in_dim=8, num_classes=2)
    result = train(init_parameters(spec, 0), ds, split, TrainSpec(), seed=0)
    assert result.test_acc_at_best_val == 1.0
    assert result.epochs_ran <= 300


def test_train_loss_curve_falls_below_threshold():
    ds, split = _toy()
    spec = ModelSpec("gcn", in_dim=8, num_classes=2, dropout=0.0)
    result = train(init_parameters(spec, 0), ds, split, TrainSpec(patience=300, epochs=80), seed=0)
    assert min(result.loss_curve) < math.log(2) / 10.0


def _train_constant_val(tspec):
    """Zero features: logits depend only on biases, so every node gets the
    same prediction; with class 0 the training majority, validation
    accuracy is constant and epoch 1 is the last improvement."""
    n = 30
    labels = np.zeros(n, dtype=np.int64)
    labels[-6:] = 1
    graph = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    ds = Dataset(graph, np.zeros((n, 3)), labels, 2)
    split = SplitMask(np.arange(0, 18), np.arange(18, 24), np.arange(24, 30))
    spec = ModelSpec("mlp", in_dim=3, num_classes=2, layers=2, hidden=4, dropout=0.0)
    return train(init_parameters(spec, 0), ds, split, tspec, seed=0)


def test_stops_after_patience_without_improvement():
    assert _train_constant_val(TrainSpec(patience=1)).epochs_ran <= 2


def test_train_snapshots_parameters_only_on_a_new_best(monkeypatch):
    calls = []
    snapshot = models.Model.snapshot
    monkeypatch.setattr(models.Model, "snapshot", lambda self: calls.append(1) or snapshot(self))
    result = _train_constant_val(TrainSpec(patience=3))
    assert (result.epochs_ran, len(calls)) == (4, 1)  # epoch 1's best; no copy before it


def test_stop_reason_names_patience_or_epoch_cap():
    results = {
        (epochs, patience): _train_constant_val(TrainSpec(epochs=epochs, patience=patience))
        for epochs, patience in ((300, 1), (3, 5), (2, 1))
    }
    assert {key: (r.stop_reason, r.epochs_ran) for key, r in results.items()} == {
        (300, 1): ("patience", 2),
        (3, 5): ("epoch_cap", 3),
        (2, 1): ("patience", 2),  # patience runs out on the capped epoch
    }


def test_epochs_never_exceed_best_plus_patience():
    ds, split = _toy(seed=2)
    spec = ModelSpec("gcn", in_dim=8, num_classes=2)
    tspec = TrainSpec(patience=7)
    result = train(init_parameters(spec, 1), ds, split, tspec, seed=1)
    best_epoch = int(np.argmax(result.val_curve)) + 1  # strict > keeps the first max
    assert result.epochs_ran <= best_epoch + tspec.patience
    assert result.epochs_ran <= tspec.epochs


def test_reported_accuracy_matches_restored_snapshot():
    ds, split = _toy(seed=4)
    spec = ModelSpec("graph_transformer", in_dim=8, num_classes=2, layers=2, hidden=8, heads=2)
    model = init_parameters(spec, 5)
    result = train(model, ds, split, TrainSpec(epochs=40), seed=5)
    context = build_context(ds.graph)
    assert evaluate(model, ds, split, context) == (result.best_val_acc,
                                                   result.test_acc_at_best_val)


def test_nonfinite_loss_or_gradient_ends_the_run():
    ds, split = _toy()
    model = init_parameters(ModelSpec("mlp", in_dim=8, num_classes=2), 0)
    model.parameters["layer0.W"][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="loss nan at epoch 1"):
        train(model, ds, split, TrainSpec(epochs=5), seed=0)

    params, p = _single_param(1.0)
    with pytest.raises(FloatingPointError, match="gradient for theta at epoch 1"):
        adam_step(params, {"theta": np.array([[np.inf]])}, AdamState(params), TrainSpec())
    assert p[0, 0] == 1.0


def test_train_rejects_bad_split():
    ds, _ = _toy()
    bad = SplitMask(np.array([0, 1]), np.array([1, 2]), np.array([3]))
    with pytest.raises(ValueError):
        train(init_parameters(ModelSpec("mlp", in_dim=8, num_classes=2), 0), ds, bad, TrainSpec())


@pytest.mark.parametrize("split, message", [
    (SplitMask(np.array([], dtype=np.int64), np.arange(0, 10), np.arange(10, 20)),
     "train set is empty"),
    (SplitMask(np.arange(0, 10), np.arange(10, 20), np.array([20, 60])),
     "test set has node ids out of range"),
    (SplitMask(np.arange(0, 10), np.array([10, 11, 11]), np.arange(20, 30)),
     "val set has duplicate node ids"),
], ids=["empty", "out-of-range", "duplicate"])
def test_train_names_the_bad_set_of_a_split(split, message):
    ds, _ = _toy()  # 60 nodes
    with pytest.raises(ValueError, match=message):
        train(init_parameters(ModelSpec("mlp", in_dim=8, num_classes=2), 0), ds, split,
              TrainSpec())


# ---------------------------------------------------------------------------
# layer-0 handoff and the per-epoch call shape

LAYER_FUNCTIONS = {"gcn": "gcn_layer", "graph_transformer": "graph_transformer_layer",
                   "mlp": "mlp_layer"}


def _handoff_case(arch, sparse):
    """A 3-class graph whose validation accuracy moves for many epochs, so
    the best snapshot is not epoch 1's; ``sparse`` keeps ~30% of the
    features as a CSR matrix."""
    ds = generate_synthetic(80, 3, p_in=0.2, p_out=0.05, dim=8, sep=0.7, seed=3)
    if sparse:
        keep = SplitMix64(5).random(ds.features.shape) < 0.3
        ds = dataclasses.replace(ds, features=csr_array(ds.features * keep))
    spec = ModelSpec(arch, in_dim=8, num_classes=3, layers=3, hidden=8, heads=2)
    return ds, split_high(80, seed=0), spec, TrainSpec(epochs=12, patience=12)


def _reference_train(model, ds, split, tspec, seed):
    """``train``'s protocol with layer 0 called in every forward, for a run
    that reaches the epoch cap: loss curve, validation curve, test accuracy."""
    context = build_context(ds.graph)
    rng = SplitMix64(seed).split()
    state = AdamState(model.parameters)
    losses, vals, best_val, best_params = [], [], -1.0, model.snapshot()
    for _ in range(tspec.epochs):
        logits, backward = forward_backward(model, ds, context, rng=rng)
        loss, d_logits = cross_entropy(logits, ds.labels, split.train)
        adam_step(model.parameters, backward(d_logits), state, tspec)
        val_acc = evaluate(model, ds, split, context)[0]
        losses.append(loss)
        vals.append(val_acc)
        if val_acc > best_val:
            best_val, best_params = val_acc, model.snapshot()
    model.restore(best_params)
    return losses, vals, evaluate(model, ds, split, context)[1]  # a fresh test forward


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_layer0_handoff_is_bit_identical_to_calling_layer0_every_forward(arch, sparse):
    ds, split, spec, tspec = _handoff_case(arch, sparse)
    model, reference = init_parameters(spec, 7), init_parameters(spec, 7)
    result = train(model, ds, split, tspec, seed=7)
    losses, vals, test_acc = _reference_train(reference, ds, split, tspec, seed=7)
    assert result.stop_reason == "epoch_cap"
    assert np.array_equal(result.loss_curve, losses)
    assert np.array_equal(result.val_curve, vals)
    assert result.test_acc_at_best_val == test_acc
    for name, p in model.parameters.items():
        assert np.array_equal(p, reference.parameters[name]), name


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_train_calls_layer0_once_per_epoch_and_uses_each_pair_once(monkeypatch, arch, sparse):
    ds, split, spec, tspec = _handoff_case(arch, sparse)
    name = LAYER_FUNCTIONS[arch]
    layer = getattr(models, name)
    calls, backward_calls = [], []

    def counted(h, *args):
        out, back = layer(h, *args)
        if h is not ds.features:
            return out, back
        call = len(calls)
        calls.append(call)

        def counted_back(d_out, input_grad=True):
            backward_calls.append(call)
            return back(d_out, input_grad)

        return out, counted_back

    monkeypatch.setattr(models, name, counted)  # ARCH_TABLE looks the layer up per call
    result = train(init_parameters(spec, 7), ds, split, tspec, seed=7)
    epochs = result.epochs_ran
    assert epochs == tspec.epochs
    # epoch 1's training forward and one evaluation forward per epoch: N + 1
    # calls, where calling layer 0 in every forward makes 2N
    assert len(calls) == epochs + 1
    # epoch 1 back-propagates its own call (0); epoch t > 1 the pair of
    # epoch t - 1's evaluation forward (call t - 1), each exactly once
    assert backward_calls == list(range(epochs))


@pytest.mark.parametrize("tspec,stop_reason", [
    (TrainSpec(patience=1), "patience"),
    (TrainSpec(epochs=3, patience=5), "epoch_cap"),
])
def test_each_epoch_starts_with_forward_backward_and_ends_with_evaluate(
    monkeypatch, tspec, stop_reason
):
    """perfbench's epoch timer starts an epoch at each ``train.forward_backward``
    call and its tracer times ``train.evaluate``: per epoch, one
    forward_backward first and one evaluate last, and nothing after the
    last epoch."""
    log = []

    def logged(attr, fn):
        def wrapper(*args, **kwargs):
            log.append(attr)
            return fn(*args, **kwargs)

        return wrapper

    for attr in ("forward_backward", "cross_entropy", "adam_step", "evaluate"):
        monkeypatch.setattr(train_module, attr, logged(attr, getattr(train_module, attr)))
    result = _train_constant_val(tspec)
    assert result.stop_reason == stop_reason
    assert log.count("forward_backward") == result.epochs_ran
    assert log.count("evaluate") == result.epochs_ran
    epoch = ["forward_backward", "cross_entropy", "adam_step", "evaluate"]
    assert log == epoch * result.epochs_ran


# ---------------------------------------------------------------------------
# aggregation and logs


def _result(acc):
    return RunResult(
        best_val_acc=acc, test_acc_at_best_val=acc, epochs_ran=1, stop_reason="epoch_cap"
    )


def test_aggregate_hand_case():
    mean, std = aggregate([_result(0.5), _result(0.7)])
    assert abs(mean - 0.6) < 1e-15
    assert abs(std - 0.1) < 1e-15


def test_aggregate_identical_runs_zero_std():
    mean, std = aggregate([_result(0.8)] * 3)
    assert (mean, std) == (0.8, 0.0)


def test_aggregate_order_invariant():
    rs = [_result(a) for a in (0.2, 0.9, 0.5)]
    assert aggregate(rs) == aggregate(list(reversed(rs)))


def test_aggregate_needs_at_least_one_run():
    with pytest.raises(ValueError):
        aggregate([])
    assert aggregate([_result(0.55)]) == (0.55, 0.0)


def _traced_peak(fn) -> int:
    """Peak traced bytes above the level at the call's start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_train_keeps_one_tape_alive(arch):
    # a tape still alive into the next epoch's forward would put two tapes
    # (about 1.6x one step's peak) under train's peak
    dataset = generate_synthetic(800, 7, 0.02, 0.001, dim=32, seed=0)
    split = split_high(dataset.num_nodes, seed=0)
    spec = ModelSpec(arch, in_dim=32, num_classes=7)
    model = init_parameters(spec, 0)
    context = build_context(dataset.graph)

    def step():
        logits, backward = forward_backward(model, dataset, context, SplitMix64(1))
        backward(cross_entropy(logits, dataset.labels, split.train)[1])

    step_peak = _traced_peak(step)
    model = init_parameters(spec, 0)
    run = lambda: train(model, dataset, split, TrainSpec(epochs=5, patience=5), seed=0)
    assert _traced_peak(run) <= 1.25 * step_peak


def test_evaluate_keeps_no_tape():
    # evaluate at or above half a training step's peak means it kept a tape:
    # on this graph that ratio read 0.60 with every closure kept, 0.39 without
    dataset = generate_synthetic(800, 7, 0.02, 0.001, dim=32, seed=0)
    split = split_high(dataset.num_nodes, seed=0)
    model = init_parameters(ModelSpec("graph_transformer", in_dim=32, num_classes=7), 0)
    context = build_context(dataset.graph)

    def step():
        logits, backward = forward_backward(model, dataset, context, SplitMix64(1))
        backward(cross_entropy(logits, dataset.labels, split.train)[1])

    step_peak = _traced_peak(step)
    assert _traced_peak(lambda: evaluate(model, dataset, split, context)) < 0.5 * step_peak


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_frees_the_tape_as_it_walks_it(arch, monkeypatch):
    name = f"{arch}_layer"
    refs = []  # a weakref to each layer closure, in call order
    dead_above = []  # per backward call: whether each later layer's closure is dead

    def spy(*args):
        out, back = real(*args)
        later = len(refs) + 1

        def observed(*a, **kw):
            dead_above.append([ref() is None for ref in refs[later:]])
            return back(*a, **kw)

        refs.append(weakref.ref(back))
        return out, observed

    real = getattr(models, name)
    monkeypatch.setattr(models, name, spy)
    dataset = generate_synthetic(40, 3, 0.2, 0.02, dim=6, seed=0)
    model = init_parameters(ModelSpec(arch, in_dim=6, num_classes=3, hidden=8, heads=2), 0)
    context = build_context(dataset.graph)
    logits, backward = forward_backward(model, dataset, context, SplitMix64(1))
    backward(np.ones_like(logits))
    assert dead_above == [[True] * k for k in range(4)]
    assert all(ref() is None for ref in refs)
    with pytest.raises(RuntimeError):
        backward(np.ones_like(logits))

    refs.clear()
    layer0 = []
    evaluate(model, dataset, _masks(np.arange(40)), context, layer0)
    assert [ref() is None for ref in refs] == [False, True, True, True]
    assert forward_backward(model, dataset, context)[1] is None


_MALLOPT_PROBE = textwrap.dedent("""
    import ctypes, importlib, json, pkgutil, sys

    real_cdll = ctypes.CDLL
    calls = []

    class RecordingCDLL:
        def __init__(self, name, *args, **kwargs):
            self._lib = real_cdll(name, *args, **kwargs)

        def __getattr__(self, attr):
            if attr != "mallopt":
                return getattr(self._lib, attr)
            if sys.argv[1] == "missing":
                raise AttributeError(attr)
            return lambda param, value: calls.append([param, value]) or 1

    ctypes.CDLL = RecordingCDLL
    import tagforge
    for module in pkgutil.iter_modules(tagforge.__path__):
        importlib.import_module("tagforge." + module.name)
    at_import = list(calls)

    from tagforge.data import generate_synthetic, split_high
    from tagforge.models import ModelSpec, init_parameters
    from tagforge.train import TrainSpec, train

    dataset = generate_synthetic(60, 3, 0.2, 0.02, dim=8, seed=0)
    model = init_parameters(ModelSpec("gcn", in_dim=8, num_classes=3, hidden=8), 0)
    result = train(model, dataset, split_high(60), TrainSpec(epochs=3, patience=3))
    print(json.dumps({"at_import": at_import, "calls": calls, "losses": result.loss_curve}))
""")


def _mallopt_probe(libc: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _MALLOPT_PROBE, libc],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_train_fixes_malloc_thresholds_and_import_does_not():
    probe = _mallopt_probe("glibc")
    assert probe["at_import"] == []
    m_mmap_threshold, m_trim_threshold = -3, -1
    assert probe["calls"] == [[m_mmap_threshold, 32 << 20], [m_trim_threshold, 64 << 20]]
    without = _mallopt_probe("missing")
    assert without["calls"] == []
    assert without["losses"] == probe["losses"]
