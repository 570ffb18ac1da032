"""Counter-based deterministic random number generation.

The generator is SplitMix64. Output ``k`` (1-based) of a stream with seed
``s`` is::

    mix64((s + k * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is the finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Because each output depends only on (seed, counter), draws are produced
in vectorized, cache-sized blocks, and the exact sequence can be reproduced
from the rules above in any language. Derived quantities are pinned down
too, so data splits and synthetic datasets are portable across
implementations:

* uniform double: ``u_k = (x_k >> 11) * 2**-53`` in [0, 1)
* normals: Box-Muller pairs ``sqrt(-2 ln(1-u_a)) * (cos, sin)(2 pi u_b)``
  where (u_a, u_b) are consecutive uniform blocks (see ``normal``)
* ``permutation(n)``: stable argsort of the next n raw outputs
* ``split()``: child stream seeded with the next raw output
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


_BLOCK = 1 << 14  # draws per pass: a block and its scratch stay in L2
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GOLDEN  # k * golden, k = 1..B


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """Apply the mix64 finalizer to ``z`` in place; ``tmp`` is scratch of its size."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


class SplitMix64:
    """A stateless-core SplitMix64 stream (only a counter advances)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK64)
        self._count = 0

    def _blocks(self, n: int):
        """Advance the counter by ``n``; yield (offset, raw block) pairs
        covering those outputs. Blocks share one buffer: use each before
        asking for the next."""
        buf = np.empty((2, min(n, _BLOCK)), dtype=np.uint64)
        for start in range(0, n, _BLOCK):
            z, tmp = buf[:, : min(_BLOCK, n - start)]
            base = (int(self._seed) + self._count * int(_GOLDEN)) & _MASK64
            self._count += z.shape[0]
            np.add(_STEPS[: z.shape[0]], np.uint64(base), out=z)
            _mix64_into(z, tmp)
            yield start, z

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        out = np.empty(n, dtype=np.uint64)
        for start, z in self._blocks(n):
            out[start : start + z.shape[0]] = z
        return out

    def next_u64(self) -> int:
        return int(self.raw(1)[0])

    def split(self) -> "SplitMix64":
        """Independent child stream, seeded with the next raw output."""
        return SplitMix64(self.next_u64())

    def random(self, shape):
        """Uniform float64 in [0, 1), an array of ``shape``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        u = np.empty(shape, dtype=np.float64)
        flat = u.reshape(-1)
        for start, z in self._blocks(flat.shape[0]):
            np.right_shift(z, np.uint64(11), out=z)
            np.multiply(z, 2.0**-53, out=flat[start : start + z.shape[0]])
        return u

    def normal(self, shape):
        """Standard normals via Box-Muller, an array of ``shape``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape))
        m = (n + 1) // 2
        u = self.random((2, m))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0,1], no log(0)
        theta = 2.0 * np.pi * u[1]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n): stable argsort of n raw keys."""
        return np.argsort(self.raw(n), kind="stable")
