"""Deterministic random streams built on the splitmix64 generator.

splitmix64 is a tiny counter-based generator with a well known reference
implementation: state advances by the constant 0x9E3779B97F4A7C15 and each
output is a fixed 64-bit finalizer of the state.  Two properties make it the
right tool here:

* it is trivially portable -- the whole generator is three xor-shift/multiply
  lines, so results are reproducible across platforms and numpy versions, and
* because output ``i`` depends only on ``seed + i * GAMMA``, a whole block of
  outputs can be produced vectorised in numpy uint64 arithmetic.

Every experiment in this package derives one independent stream per trial via
:func:`derive_seed`, so trials can be recomputed (or re-ordered) in isolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 output finalizer applied to a single 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Return sub-stream seed ``index`` (0-based) of a master stream.

    This is exactly output ``index + 1`` of ``SplitMix64(master_seed)``, so
    derived seeds never collide with each other for a fixed master seed.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return mix64((master_seed + (index + 1) * _GAMMA) & _MASK64)


class SplitMix64:
    """A sequential splitmix64 stream.

    Scalar draws (:meth:`next_u64`, :meth:`next_below`) and vectorised block
    draws (:meth:`next_block`, :meth:`next_uniform_block`,
    :meth:`next_bernoulli_block`) interleave freely
    and consume the same underlying sequence, so "draw all edges as a block,
    then draw diagonal entries one by one" is well defined and reproducible.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_block(self, count: int) -> np.ndarray:
        """Return the next ``count`` outputs as a uint64 array."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def next_uniform_block(self, count: int) -> np.ndarray:
        """Return ``count`` uniform floats in [0, 1) with 53-bit resolution."""
        return (self.next_block(count) >> np.uint64(11)) * 2.0**-53

    def next_bernoulli_block(self, count: int, q: float | Fraction) -> np.ndarray:
        """Return ``next_uniform_block(count) < q`` as a bool array, without floats.

        Each uniform is k * 2**-53 for the integer k = output >> 11, so
        ``k * 2**-53 < q`` exactly when ``k < ceil(q * 2**53)``.  ``q`` may be
        a float, whose binary64 value is taken exactly, or a rational; below
        0 or above 1 the threshold is clamped, so every draw is False or
        True, as in the float comparison.  The stream advances by ``count``,
        as for the uniforms.
        """
        threshold = min(max(ceil(Fraction(q) * 2**53), 0), 2**53)
        k = self.next_block(count)
        k >>= np.uint64(11)
        return k < np.uint64(threshold)

    def next_below(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)`` by rejection sampling.

        Rejection keeps the draw exactly uniform (no modulo bias); for any
        bound that fits in 64 bits the expected number of raw draws is < 2.
        """
        if bound <= 0:
            raise ValueError(f"bound must be >= 1, got {bound}")
        limit = (2**64 // bound) * bound
        while True:
            raw = self.next_u64()
            if raw < limit:
                return raw % bound
