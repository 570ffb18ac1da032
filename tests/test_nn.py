"""Layer primitives: forward values against hand computations and naive
oracles, backward rules against finite differences.
"""

import math

import numpy as np
import pytest

from tagforge.gradcheck import numeric_grad, rel_error
from tagforge.nn import (
    cross_entropy,
    dropout,
    dropout_backward,
    infonce,
    matmul,
    relu,
)
from tagforge.rng import SplitMix64


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, _ = matmul(a, np.eye(2))
    assert np.array_equal(out, a)


def test_matmul_hand_case():
    out, _ = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert out.tolist() == [[3.0], [7.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_matmul_backward_matches_finite_differences(seed):
    rng = SplitMix64(seed)
    a, b = rng.normal((4, 3)), rng.normal((3, 2))
    weights = rng.normal((4, 2))
    _, backward = matmul(a, b)
    d_a, d_b = backward(weights)
    loss = lambda: float((matmul(a, b)[0] * weights).sum())
    assert rel_error(d_a, numeric_grad(loss, a)) < 1e-5
    assert rel_error(d_b, numeric_grad(loss, b)) < 1e-5


def test_relu_extremes():
    neg = -np.arange(1.0, 7.0).reshape(2, 3)
    out, _ = relu(neg)
    assert np.array_equal(out, np.zeros((2, 3)))
    pos = np.arange(1.0, 7.0).reshape(2, 3)
    out, _ = relu(pos)
    assert np.array_equal(out, pos)


def test_relu_gradient_away_from_zero():
    rng = SplitMix64(0)
    x = (rng.random((4, 4)) + 0.2) * np.sign(rng.normal((4, 4)))
    weights = rng.normal((4, 4))
    _, backward = relu(x)
    loss = lambda: float((relu(x)[0] * weights).sum())
    assert rel_error(backward(weights), numeric_grad(loss, x)) < 1e-5


def test_dropout_keep_one_is_identity():
    x = np.arange(6.0).reshape(2, 3)
    out, mask = dropout(x, 1.0, rng=SplitMix64(0))
    assert np.array_equal(out, x)
    assert mask is None


def test_dropout_invalid_keep_prob():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            dropout(np.zeros((2, 2)), bad, rng=SplitMix64(0))


def test_dropout_monte_carlo_mean():
    x = np.ones((500, 200))
    out, _ = dropout(x, 0.5, rng=SplitMix64(123))
    assert abs(out.mean() - 1.0) < 0.02
    assert set(np.unique(out)) <= {0.0, 2.0}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("keep_prob", [0.1, 0.5, 0.7, 0.9, 0.999])
def test_dropout_mask_is_the_scaled_comparison(keep_prob, dtype):
    u = SplitMix64(2).random((300, 70))
    expected = (u < keep_prob).astype(dtype) * (1.0 / keep_prob)
    x = SplitMix64(1).normal(u.shape).astype(dtype)
    d = SplitMix64(3).normal(u.shape).astype(dtype)
    # at five dropped and five kept entries: signed zeros must survive both
    # mask values, and inf or NaN must give the float product's bits
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype)
    for at in (np.flatnonzero(u >= keep_prob)[:5], np.flatnonzero(u < keep_prob)[:5]):
        x.flat[at] = d.flat[at] = specials
    with np.errstate(invalid="ignore"):  # inf * 0
        out, (keep, scale) = dropout(x, keep_prob, rng=SplitMix64(2))
        d_in = dropout_backward((keep, scale), d)
        want_out, want_d_in = x * expected, d * expected
    assert keep.dtype == bool and np.array_equal(keep, u < keep_prob)
    assert scale == 1.0 / keep_prob
    assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
    assert d_in.dtype == dtype and d_in.tobytes() == want_d_in.tobytes()


def test_dropout_deterministic_per_stream():
    x = np.ones((20, 20))
    a, _ = dropout(x, 0.7, rng=SplitMix64(5))
    b, _ = dropout(x, 0.7, rng=SplitMix64(5))
    assert np.array_equal(a, b)


def test_cross_entropy_uniform_logits():
    logits = np.zeros((5, 7))
    labels = np.array([0, 1, 2, 3, 4])
    loss, _ = cross_entropy(logits, labels, np.arange(5))
    assert abs(loss - math.log(7)) < 1e-12


def test_cross_entropy_confident_correct_logit():
    logits = np.zeros((2, 3))
    logits[0, 1] = logits[1, 2] = 50.0
    loss, _ = cross_entropy(logits, np.array([1, 2]), np.array([0, 1]))
    assert loss < 1e-12


def test_cross_entropy_gradient_zero_outside_mask():
    rng = SplitMix64(2)
    logits = rng.normal((6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    mask = np.array([1, 4])
    _, d = cross_entropy(logits, labels, mask)
    untouched = np.setdiff1d(np.arange(6), mask)
    assert np.array_equal(d[untouched], np.zeros((4, 3)))
    assert np.abs(d[mask]).max() > 0


def test_cross_entropy_mask_order_invariant():
    rng = SplitMix64(4)
    logits = rng.normal((8, 4))
    labels = (SplitMix64(5).random(8) * 4).astype(np.int64)
    mask = np.array([0, 3, 5, 6])
    shuffled = np.array([6, 0, 5, 3])
    assert cross_entropy(logits, labels, mask)[0] == cross_entropy(logits, labels, shuffled)[0]


def test_cross_entropy_empty_mask():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((3, 2)), np.zeros(3, dtype=int), np.array([], dtype=int))


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_equal_similarities_single_negative_is_ln2():
    anchor = np.array([[1.0, 0.0]])
    positive = np.array([[1.0, 0.0]])
    negative = np.array([[1.0, 0.0]])
    for sim in ("dot", "cosine"):
        assert abs(infonce(anchor, positive, negative, tau=0.5, sim=sim) - math.log(2)) < 1e-12


def test_infonce_vanishes_as_positive_dominates():
    anchor = np.array([[1.0, 0.0]])
    negative = np.array([[0.0, 1.0]])
    previous = None
    for scale in (1.0, 5.0, 25.0, 125.0):
        positive = np.array([[scale, 0.0]])
        loss = infonce(anchor, positive, negative, tau=1.0, sim="dot")
        if previous is not None:
            assert loss < previous
        previous = loss
    assert previous < 1e-12


def test_infonce_matches_direct_formula():
    rng = SplitMix64(8)
    anchor, positive = rng.normal((3, 4)), rng.normal((3, 4))
    negatives = rng.normal((2, 4))
    tau = 0.7

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    for sim, s in (("dot", lambda a, b: float(a @ b)), ("cosine", cos)):
        total = 0.0
        for i in range(3):
            num = math.exp(s(anchor[i], positive[i]) / tau)
            den = num + sum(math.exp(s(anchor[i], negatives[j]) / tau) for j in range(2))
            total += -math.log(num / den)
        assert abs(infonce(anchor, positive, negatives, tau, sim=sim) - total / 3) < 1e-12


def test_infonce_monotone_in_positive_similarity():
    # loss strictly decreases as the positive similarity grows, negatives fixed
    anchor = np.array([[1.0, 0.0]])
    negatives = np.array([[0.3, 0.4], [-0.2, 0.9]])
    losses = [
        infonce(anchor, np.array([[c, 1.0 - c]]), negatives, tau=0.5, sim="dot")
        for c in np.linspace(-1.0, 2.0, 13)
    ]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_infonce_rejects_bad_tau():
    x = np.ones((1, 2))
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError):
            infonce(x, x, x, tau=tau)


def test_infonce_rejects_unknown_similarity():
    x = np.ones((1, 2))
    with pytest.raises(ValueError, match="unknown similarity"):
        infonce(x, x, x, tau=1.0, sim="euclidean")


def test_rel_error_refuses_arrays_of_different_shapes():
    # a (1, 3) gradient against a (3, 1) numeric one would broadcast to (3, 3)
    assert rel_error(np.ones((1, 3)), np.ones((1, 3))) == 0.0
    with pytest.raises(ValueError, match=r"gradient shape \(1, 3\) != \(3, 1\)"):
        rel_error(np.ones((1, 3)), np.ones((3, 1)))
