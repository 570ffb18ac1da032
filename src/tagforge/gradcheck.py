"""Central finite-difference verification of every backward rule.

Each registered check builds small random inputs, compares the analytic
gradients of a random scalar projection of the op output against central
differences (h = 1e-5, float64), and reports the worst relative error
across all differentiable inputs. The whole suite runs from the command
line (``tagforge gradcheck``) and inside the test suite.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import generate_synthetic
from .models import ARCH_TABLE, ARCHITECTURES, build_context
from .nn import (
    Parameter,
    cross_entropy,
    dropout,
    dropout_backward,
    matmul,
    relu,
)
from .rng import SplitMix64

TOLERANCE = 1e-4
_H = 1e-5


def numeric_grad(loss_fn, x: np.ndarray, h: float = _H) -> np.ndarray:
    """Central differences of ``loss_fn()`` with respect to ``x`` in place."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        loss_plus = loss_fn()
        flat[i] = original - h
        loss_minus = loss_fn()
        flat[i] = original
        gflat[i] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _worst_error(call, inputs, params, rng: SplitMix64) -> float:
    """Worst relative error of ``call``'s backward rule against central
    differences, over every array in ``inputs`` and every Parameter in
    ``params``, for the loss sum(out * weights). ``call(*inputs)`` returns
    (out, backward) and ``backward(weights)`` returns the input gradients,
    in order (one array alone when there is one input), and deposits the
    parameter gradients. ``weights`` are the next normals of ``rng``."""
    out, backward = call(*inputs)
    weights = rng.normal(np.shape(out))
    grads = backward(weights)
    grads = grads if isinstance(grads, tuple) else (grads,)

    def loss():
        return float((call(*inputs)[0] * weights).sum())

    return max([rel_error(g, numeric_grad(loss, x)) for g, x in zip(grads, inputs, strict=True)]
               + [rel_error(p.grad, numeric_grad(loss, p.value)) for p in params])


def _check_matmul(seed: int) -> float:
    rng = SplitMix64(seed)
    return _worst_error(matmul, [rng.normal((4, 3)), rng.normal((3, 2))], (), rng)


def _check_relu(seed: int) -> float:
    rng = SplitMix64(seed)
    # keep samples away from the kink at 0
    x = (rng.random((5, 4)) + 0.1) * np.sign(rng.normal((5, 4)))
    return _worst_error(relu, [x], (), rng)


def _check_dropout(seed: int) -> float:
    rng = SplitMix64(seed)

    def call(x):  # same mask every evaluation: fresh stream, same seed
        out, mask = dropout(x, 0.6, rng=SplitMix64(seed + 1))
        return out, lambda d_out: dropout_backward(mask, d_out)

    return _worst_error(call, [rng.normal((6, 4))], (), rng)


def _check_cross_entropy(seed: int) -> float:
    rng = SplitMix64(seed)
    logits = rng.normal((6, 4))
    labels = (rng.random(6) * 4).astype(np.int64)
    mask = np.array([0, 2, 3, 5], dtype=np.int64)

    def call(x):
        loss, d_logits = cross_entropy(x, labels, mask)
        return loss, lambda d_loss: d_loss * d_logits

    return _worst_error(call, [logits], (), rng)


def _check_layer(arch: str, seed: int, heads: int, d_in: int = 4, d_out: int = 6) -> float:
    """One arch's layer call on a 6-node graph, ``d_in -> d_out`` wide, with
    the table's parameter shapes, random non-zero biases and ``heads`` heads."""
    row = ARCH_TABLE[arch]
    rng = SplitMix64(seed)
    graph = generate_synthetic(6, 2, p_in=0.9, p_out=0.4, dim=3, sep=1.0, seed=seed).graph
    context = build_context(graph)
    h = rng.normal((6, d_in))
    params = {
        short: Parameter(rng.normal(shape), short)
        for short, shape in row.shapes(d_in, d_out).items()
    }
    return _worst_error(lambda x: row.call(x, context, params, heads), [h], params.values(), rng)


CHECKS: dict[str, callable] = {
    "matmul": _check_matmul,
    "relu": _check_relu,
    "dropout": _check_dropout,
    "cross_entropy": _check_cross_entropy,
    **{
        f"{arch}_layer": partial(_check_layer, arch, heads=2 if ARCH_TABLE[arch].multi_head else 1)
        for arch in ARCHITECTURES
    },
    # the final layer of a multi-head arch: one head, wider in than out. The
    # graph transformer saves its projections here and recomputes them in
    # backward at the narrower 4 -> 6 input above, so both paths are checked.
    **{
        f"{arch}_layer_1head": partial(_check_layer, arch, heads=1, d_in=6, d_out=4)
        for arch in ARCHITECTURES
        if ARCH_TABLE[arch].multi_head
    },
}


@dataclass(frozen=True)
class GradCheckResult:
    op: str
    max_rel_error: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def run_gradcheck(seeds=range(5)) -> list[GradCheckResult]:
    """Run every registered check over all seeds; one result per op."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("run_gradcheck needs at least one seed")
    results = []
    for name, check in CHECKS.items():
        worst = max(check(seed) for seed in seeds)
        results.append(GradCheckResult(name, worst))
    return results
