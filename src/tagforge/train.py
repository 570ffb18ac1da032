"""Adam, the training loop with early stopping, evaluation, aggregation.

Protocol per run: every epoch does a training forward, cross-entropy
on the train mask, a full backward pass, one Adam step, then one
evaluation forward that scores the validation and test nodes. It hands
its layer-0 output and backward to the next epoch's training forward, so
layer 0 runs once per epoch; nothing changes between the two calls, so
results are bit-identical.
The training forward's backward frees its tape as it walks it, and the
evaluation forward keeps none, so one tape at most is alive, and ``train``
fixes glibc's malloc thresholds so that freed tapes are reused rather than
returned to the kernel.
Training stops after ``patience`` consecutive epochs without a new best
validation accuracy, or at the epoch cap; the run's ``stop_reason`` says
which (``"patience"`` or ``"epoch_cap"``). The reported test accuracy is
the best-validation epoch's, from the same forward and so from the
parameter snapshot taken then, which is restored into the model before
returning; no forward runs after the last epoch. A non-finite training
loss or gradient ends the run with a ``FloatingPointError`` naming the
epoch (and, for a gradient, the first bad parameter). The ``RunResult`` is
the run's whole record; ``tagforge train --out`` writes it as JSON.

Weight decay is coupled (added to the gradient before the moment updates),
matching common GNN framework defaults. Early stopping monitors validation
accuracy, the quantity the benchmark reports.
"""

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitMask
from . import models
from .models import Model, PropagationContext, build_context, forward_backward
from .nn import cross_entropy
from .rng import SplitMix64

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 300
    patience: int = 10
    lr: float = 0.01
    weight_decay: float = 5e-4
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.epochs < 1 or self.patience < 1:
            raise ValueError("epochs and patience must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight decay must be >= 0 and finite, got {self.weight_decay}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, parameters: dict[str, np.ndarray]):
        self.m = {name: np.zeros_like(value) for name, value in parameters.items()}
        self.v = {name: np.zeros_like(value) for name, value in parameters.items()}
        self.t = 0


def adam_step(parameters: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, spec: TrainSpec) -> None:
    """One coupled-L2 Adam update of each parameter, in place, by its entry in
    ``grads``: what ``forward_backward``'s backward returned.

    A missing, misshapen or non-finite gradient raises, naming the parameter,
    before any parameter moves; ``train`` takes one step per epoch, so the
    step named is the epoch.
    """
    for name, value in parameters.items():
        if name not in grads:
            raise ValueError(f"adam_step before backward: no gradient for {name}")
        if grads[name].shape != value.shape:
            raise ValueError(f"gradient shape {grads[name].shape} != {value.shape} for {name}")
        if not np.isfinite(grads[name]).all():
            raise FloatingPointError(f"non-finite gradient for {name} at epoch {state.t + 1}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, value in parameters.items():
        g = grads[name] + spec.weight_decay * value
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        value -= spec.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def evaluate(
    model: Model,
    dataset: Dataset,
    split: SplitMask,
    context: PropagationContext,
    layer0: list | None = None,
) -> tuple[float, float]:
    """``(val_acc, test_acc)`` from one evaluation forward: per mask, the
    fraction of its nodes whose argmax logit matches the label.

    Argmax ties resolve to the lowest class id; an empty validation or test
    mask raises ValueError. A ``layer0`` list receives the forward's
    layer-0 pair (see ``models.forward_backward``).
    """
    masks = [np.asarray(mask, dtype=np.int64) for mask in (split.val, split.test)]
    if any(mask.size == 0 for mask in masks):
        raise ValueError("evaluate over an empty mask")
    # through the module: a wrapper on this module's forward_backward sees training forwards only
    logits = models.forward_backward(model, dataset, context, layer0=layer0)[0]
    return tuple(
        float(np.mean(np.argmax(logits[mask], axis=1) == dataset.labels[mask])) for mask in masks
    )


@dataclass
class RunResult:
    best_val_acc: float
    test_acc_at_best_val: float
    epochs_ran: int
    stop_reason: str  # "patience" or "epoch_cap"
    loss_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB (idempotent).

    glibc's defaults move with the sizes it frees, so an epoch's freed
    arrays would be trimmed or unmapped and faulted back in, more or less
    often by allocation history. A libc without ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(
    model: Model,
    dataset: Dataset,
    split: SplitMask,
    spec: TrainSpec,
    seed: int = 0,
) -> RunResult:
    """Train in place and return the run summary.

    Fully deterministic per (model parameters, dataset, split, spec, seed).
    The dropout stream is a child of ``seed``, so sharing one seed with
    init_parameters does not replay the same random values.
    """
    split.validate(dataset.num_nodes)
    _fix_malloc_thresholds()
    context = build_context(dataset.graph)
    rng = SplitMix64(seed).split()
    state = AdamState(model.parameters)

    best_val = best_test = -1.0
    best_epoch = 0
    best_params = None  # epoch 1 always sets it: any accuracy beats best_val
    losses: list[float] = []
    vals: list[float] = []
    stop_reason = "epoch_cap"
    layer0: list = []  # layer 0's pair, from each evaluation forward to the next training one

    for epoch in range(1, spec.epochs + 1):
        logits, backward = forward_backward(model, dataset, context, rng, layer0)
        loss, d_logits = cross_entropy(logits, dataset.labels, split.train)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss {loss} at epoch {epoch}")
        adam_step(model.parameters, backward(d_logits), state, spec)  # backward frees the tape
        val_acc, test_acc = evaluate(model, dataset, split, context, layer0)
        losses.append(loss)
        vals.append(val_acc)
        if val_acc > best_val:
            best_val, best_test = val_acc, test_acc
            best_epoch = epoch
            best_params = model.snapshot()
        elif epoch - best_epoch >= spec.patience:
            stop_reason = "patience"
            break

    model.restore(best_params)
    return RunResult(best_val, best_test, len(losses), stop_reason, losses, vals)


def aggregate(results: list[RunResult]) -> tuple[float, float]:
    """Mean and population standard deviation of the test accuracies.

    Accuracies are sorted first, making the result independent of run
    order, and shifted by the smallest value, so identical runs yield an
    exactly zero deviation; a single run gives its accuracy and 0.0.
    """
    if not results:
        raise ValueError("need at least one run to aggregate")
    accs = np.sort(np.array([r.test_acc_at_best_val for r in results], dtype=np.float64))
    shifted = accs - accs[0]
    mean_shift = shifted.mean()
    std = float(np.sqrt(np.mean(np.square(shifted - mean_shift))))
    return float(accs[0] + mean_shift), std
