"""The generator must match its documented definition exactly: splits and
synthetic data are only portable if any implementation of the written
rules reproduces the same streams.
"""

import numpy as np
import pytest
from conftest import reference_raw
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import rng
from tagforge.rng import SplitMix64

MASK = (1 << 64) - 1


def reference_splitmix(seed: int, count: int) -> list[int]:
    """Pure-int transcription of the documented algorithm."""
    outputs = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        outputs.append(z ^ (z >> 31))
    return outputs


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=50, deadline=None)
def test_matches_documented_algorithm(seed):
    assert SplitMix64(seed).raw(6).tolist() == reference_splitmix(seed, 6)


# counters and lengths on both sides of the block edges
_EDGES = (0, 1, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 3 * rng._BLOCK + 5)


@pytest.mark.parametrize("start", _EDGES)
def test_blocked_draws_match_the_whole_array_formula(start):
    seed = 0xDEADBEEF12345678
    for n in _EDGES:
        expected = reference_raw(seed, start, n)
        a, b = SplitMix64(seed), SplitMix64(seed)
        a.raw(start)
        b.raw(start)
        assert np.array_equal(a.raw(n), expected)
        u = b.random(n)
        assert u.dtype == np.float64
        assert np.array_equal(u, (expected >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        assert a.raw(1)[0] == b.raw(1)[0] == reference_raw(seed, start + n, 1)[0]


def test_block_generation_equals_single_steps():
    a = SplitMix64(123)
    b = SplitMix64(123)
    block = a.raw(7).tolist()
    singles = [b.next_u64() for _ in range(7)]
    assert block == singles


def test_counter_continues_across_calls():
    a = SplitMix64(9)
    combined = a.raw(3).tolist() + a.raw(4).tolist()
    assert combined == SplitMix64(9).raw(7).tolist()


def test_uniform_range_and_determinism():
    u = SplitMix64(5).random(1000)
    assert u.shape == (1000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, SplitMix64(5).random(1000))
    assert SplitMix64(5).random((4, 3)).shape == (4, 3)


def test_normal_moments():
    z = SplitMix64(2).normal(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_shape_and_determinism():
    z = SplitMix64(3).normal((5, 7))
    assert z.shape == (5, 7)
    assert np.array_equal(z, SplitMix64(3).normal((5, 7)))


@given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_permutation_is_a_permutation(seed, n):
    perm = SplitMix64(seed).permutation(n)
    assert np.array_equal(np.sort(perm), np.arange(n))


def test_permutations_vary_with_seed():
    perms = {tuple(SplitMix64(seed).permutation(20)) for seed in range(20)}
    assert len(perms) == 20


def test_split_gives_independent_stream():
    parent = SplitMix64(77)
    child = parent.split()
    # child seed is the parent's first output, by definition
    assert isinstance(child, SplitMix64)
    assert child.raw(4).tolist() == reference_splitmix(reference_splitmix(77, 1)[0], 4)
