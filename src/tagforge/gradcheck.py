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
    add_bias,
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


def _projection_loss(out: np.ndarray, weights: np.ndarray) -> float:
    return float((out * weights).sum())


def _check_matmul(seed: int) -> float:
    rng = SplitMix64(seed)
    a = rng.normal((4, 3))
    b = rng.normal((3, 2))
    weights = rng.normal((4, 2))
    out, backward = matmul(a, b)
    d_a, d_b = backward(weights)
    errs = [
        rel_error(d_a, numeric_grad(lambda: _projection_loss(matmul(a, b)[0], weights), a)),
        rel_error(d_b, numeric_grad(lambda: _projection_loss(matmul(a, b)[0], weights), b)),
    ]
    return max(errs)


def _check_add_bias(seed: int) -> float:
    rng = SplitMix64(seed)
    x = rng.normal((5, 3))
    b = rng.normal((1, 3))
    weights = rng.normal((5, 3))
    _, backward = add_bias(x, b)
    d_x, d_b = backward(weights)
    return max(
        rel_error(d_x, numeric_grad(lambda: _projection_loss(add_bias(x, b)[0], weights), x)),
        rel_error(d_b, numeric_grad(lambda: _projection_loss(add_bias(x, b)[0], weights), b)),
    )


def _check_relu(seed: int) -> float:
    rng = SplitMix64(seed)
    # keep samples away from the kink at 0
    x = (rng.random((5, 4)) + 0.1) * np.sign(rng.normal((5, 4)))
    weights = rng.normal((5, 4))
    _, backward = relu(x)
    d_x = backward(weights)
    return rel_error(d_x, numeric_grad(lambda: _projection_loss(relu(x)[0], weights), x))


def _check_dropout(seed: int) -> float:
    rng = SplitMix64(seed)
    x = rng.normal((6, 4))
    weights = rng.normal((6, 4))

    def apply_fixed():  # same mask every evaluation: fresh stream, same seed
        out, _ = dropout(x, 0.6, rng=SplitMix64(seed + 1), training=True)
        return out

    out, mask = dropout(x, 0.6, rng=SplitMix64(seed + 1), training=True)
    d_x = dropout_backward(mask, weights)
    return rel_error(d_x, numeric_grad(lambda: _projection_loss(apply_fixed(), weights), x))


def _check_cross_entropy(seed: int) -> float:
    rng = SplitMix64(seed)
    logits = rng.normal((6, 4))
    labels = (rng.random(6) * 4).astype(np.int64)
    mask = np.array([0, 2, 3, 5], dtype=np.int64)
    _, d_logits = cross_entropy(logits, labels, mask)
    numeric = numeric_grad(lambda: cross_entropy(logits, labels, mask)[0], logits)
    return rel_error(d_logits, numeric)


def _check_layer(arch: str, seed: int, heads: int) -> float:
    """One arch's layer call on a 6-node graph, 4 -> 6 wide, with the table's
    parameter shapes, random non-zero biases and ``heads`` heads."""
    row = ARCH_TABLE[arch]
    rng = SplitMix64(seed)
    graph = generate_synthetic(6, 2, p_in=0.9, p_out=0.4, dim=3, sep=1.0, seed=seed).graph
    context = build_context(graph)
    h = rng.normal((6, 4))
    params = {
        short: Parameter(rng.normal(shape), short) for short, shape in row.shapes(4, 6).items()
    }
    weights = rng.normal((6, 6))

    def loss():
        return _projection_loss(row.call(h, context, params, heads)[0], weights)

    _, backward = row.call(h, context, params, heads)
    d_h = backward(weights)
    errs = [rel_error(d_h, numeric_grad(loss, h))]
    for p in params.values():
        errs.append(rel_error(p.grad, numeric_grad(loss, p.value)))
    return max(errs)


CHECKS: dict[str, callable] = {
    "matmul": _check_matmul,
    "add_bias": _check_add_bias,
    "relu": _check_relu,
    "dropout": _check_dropout,
    "cross_entropy": _check_cross_entropy,
    **{
        f"{arch}_layer": partial(_check_layer, arch, heads=2 if ARCH_TABLE[arch].multi_head else 1)
        for arch in ARCHITECTURES
    },
    # one head is the final layer's layout of a multi-head arch
    **{
        f"{arch}_layer_1head": partial(_check_layer, arch, heads=1)
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


def run_gradcheck(seeds=range(5), checks: dict | None = None) -> list[GradCheckResult]:
    """Run every registered check over all seeds; one result per op."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("run_gradcheck needs at least one seed")
    table = CHECKS if checks is None else checks
    results = []
    for name, check in table.items():
        worst = max(check(seed) for seed in seeds)
        results.append(GradCheckResult(name, worst))
    return results
