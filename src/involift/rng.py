"""Seeded pseudo-randomness for reproducible corpora and sampling.

The single generator used throughout is SplitMix64.  It is deliberately
small enough to restate in full, so any other implementation (or a
different language) can reproduce every stream bit for bit:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z xor (z >> 31)

Word i of the stream is a fixed function of state + i * gamma, so a run of
words can be computed at once.  :meth:`SplitMix64.blocks` does that in
128-bit lanes of one Python int: lane k starts as state + (k + 1) * gamma,
and each mixing step is applied to every lane by whole-int shifts, XORs,
masks and multiplies.  The lanes stay exact: a right shift by s < 64 moves
the low bits of lane k + 1 only to bits 128 - s and up of lane k, above its
64-bit value, where the mask clears them before they meet a multiply; and a
64 x 64-bit product fits in its 128-bit lane, so no carry crosses a lane.
"""

from __future__ import annotations

import sys
from functools import cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 4096  # words per block of SplitMix64.blocks; a power of two
_LANE_BYTES = 16


@cache
def _lane_constants() -> tuple[int, int, int]:
    """(k + 1) * gamma, 1 and 2^64 - 1 in every lane k < BLOCK, built once
    per process by doubling the lanes; a shorter block takes their low
    lanes."""
    counters = ones = lanes = 1
    while lanes < BLOCK:
        shift = lanes * _LANE_BYTES * 8
        counters |= (counters + lanes * ones) << shift
        ones |= ones << shift
        lanes *= 2
    return counters * _GAMMA, ones, ones * _MASK64


class SplitMix64:
    """SplitMix64 stream over a 64-bit seed (algorithm in the module docstring)."""

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        """Next 64-bit word of the stream."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def blocks(self, n: int):
        """Yield the next ``n`` words of the stream as ``array('Q')`` blocks
        of at most :data:`BLOCK` words, computed in packed lanes (see the
        module docstring).  The words are those of ``n`` calls of
        :meth:`next_u64`, and the stream moves past each block as it is
        yielded."""
        from array import array  # lazy: start-up does not pay for it

        counters, ones, mask = _lane_constants()
        while n > 0:
            size = min(n, BLOCK)
            if size < BLOCK:
                low = (1 << (size * _LANE_BYTES * 8)) - 1
                counters, ones, mask = counters & low, ones & low, mask & low
            z = (self._state * ones + counters) & mask
            z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
            z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
            z ^= z >> 31
            lanes = array("Q", z.to_bytes(size * _LANE_BYTES, sys.byteorder))
            self._state = (self._state + size * _GAMMA) & _MASK64
            n -= size
            # a lane is its word and a high word that the last shift may have
            # dirtied; native byte order puts lane 0's word first or last
            yield lanes[0::2] if sys.byteorder == "little" else lanes[-1::-2]

    def next_bits(self, width: int) -> int:
        """Uniform integer in [0, 2^width); extra 64-bit words are
        concatenated low word first when width > 64."""
        if width < 1:
            raise ValueError("width must be >= 1")
        value = 0
        got = 0
        while got < width:
            value |= self.next_u64() << got
            got += 64
        return value & ((1 << width) - 1)
