"""Dense layer primitives with explicit reverse-mode rules.

Each operation returns ``(output, backward)`` where ``backward`` maps the
loss gradient at the output to gradients at the inputs, in argument order.
There is no general tape here: models assemble these closures themselves
and walk them in reverse. All math is float64 unless callers pass float32.
Parameters are plain ndarrays, and a gradient is only ever a return value.

``dropout`` alone has no closure: it returns ``(output, mask)``, ``mask`` a
``(keep, scale)`` pair or None, and ``dropout_backward(mask, d_out)`` is its
rule, so perfbench's tracer times both passes by wrapping the two names.
"""

import numpy as np


def matmul(a, b: np.ndarray):
    """out = a @ b;  backward: (d @ b.T, a.T @ d), with None in place of
    d @ b.T when ``input_grad`` is False. ``a`` may be a scipy sparse array."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = a @ b

    def backward(d_out, input_grad: bool = True):
        return (d_out @ b.T if input_grad else None), a.T @ d_out

    return out, backward


def relu(x: np.ndarray):
    """Elementwise max(0, x); backward gates by x > 0."""
    out = np.maximum(x, 0.0)
    gate = x > 0.0

    def backward(d_out):
        return d_out * gate

    return out, backward


def dropout(x: np.ndarray, keep_prob: float, rng=None):
    """Inverted dropout: returns (output, mask), survivors scaled by 1/keep_prob.

    ``mask`` is ``(keep, scale)``, the bool array ``u < keep_prob`` of the
    uniforms ``u`` and 1/keep_prob, or None for the identity (keep_prob == 1).
    The float mask is a temporary in ``u``'s buffer; ``x`` times it is
    bit-equal to scaling the masked ``x``, signed zeros included.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x, None
    u = rng.random(x.shape)
    keep, scale = u < keep_prob, 1.0 / keep_prob
    mask = np.multiply(keep, scale, out=u).astype(x.dtype, copy=False)
    return np.multiply(x, mask, out=mask), (keep, scale)


def dropout_backward(mask: tuple[np.ndarray, float] | None, d_out: np.ndarray) -> np.ndarray:
    """``d_out * (keep * scale)``, the float mask rebuilt in ``d_out``'s dtype."""
    if mask is None:
        return d_out
    d_in = np.multiply(*mask, dtype=d_out.dtype)
    return np.multiply(d_out, d_in, out=d_in)


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Mean negative log-softmax over the masked nodes.

    Returns (loss, dLogits); the gradient is zero outside the mask. The
    value is invariant to the ordering of ``mask``.
    """
    mask = np.sort(np.asarray(mask, dtype=np.int64))  # set semantics: order-free
    if mask.size == 0:
        raise ValueError("cross_entropy over an empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    sub = logits[mask]
    y = labels[mask]
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise ValueError("label out of range for logit columns")
    shifted = sub - sub.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    idx = np.arange(mask.size)
    loss = float(-log_probs[idx, y].mean())
    d_sub = np.exp(log_probs)
    d_sub[idx, y] -= 1.0
    d_logits = np.zeros_like(logits)
    d_logits[mask] = d_sub / mask.size
    return loss, d_logits


def infonce(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: np.ndarray,
    tau: float,
    sim: str = "cosine",
) -> float:
    """Contrastive loss: each anchor row is pulled toward its positive row
    and pushed from every row of ``negatives`` (shared across anchors), at
    temperature ``tau``. Returns the mean over anchors.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if sim not in ("dot", "cosine"):
        raise ValueError(f"unknown similarity {sim!r}")
    anchor = np.atleast_2d(np.asarray(anchor, dtype=np.float64))
    positive = np.atleast_2d(np.asarray(positive, dtype=np.float64))
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if positive.shape != anchor.shape:
        raise ValueError("anchor and positive must have matching shapes")
    if negatives.shape[1] != anchor.shape[1]:
        raise ValueError("negative dimension mismatch")
    if sim == "cosine":
        anchor, positive, negatives = (
            x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
            for x in (anchor, positive, negatives)
        )
    s_pos = np.einsum("ij,ij->i", anchor, positive)
    scores = np.concatenate([s_pos[:, None], anchor @ negatives.T], axis=1) / tau
    m = scores.max(axis=1, keepdims=True)
    log_denom = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
    return float(np.mean(log_denom - scores[:, 0]))
