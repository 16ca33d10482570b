"""numpy's seeded stream, np.random.default_rng(seed).uniform, in pure Python.

Importing numpy.random costs about 16 ms and 6 MiB, more than a small
synthetic array model spends drawing its phases. This replica draws the same
doubles: numpy's SeedSequence turns the seed into PCG64's state and
increment, and each draw takes the top 53 bits of the next 64-bit output.
It lives apart from ``arrays`` so that a caller who passes a numpy Generator
never loads it.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash: xor in a running constant, advance the constant
    by ``mult``, multiply by it and fold the high half down (32-bit words)."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32  # MIX_MULT_L, MIX_MULT_R
    return result ^ result >> 16


def _seed_sequence_words(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): hash the
    seed's 32-bit little-endian words into a 4-word pool, then draw eight
    32-bit words from it and pair them little-endian."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    words = [draw(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class SeededUniform:
    """np.random.default_rng(seed).uniform without importing numpy.random:
    the PCG64 generator (O'Neill 2014; 128-bit LCG, XSL-RR output) seeded
    through SeedSequence, and 53-bit doubles. Draws match numpy's bit for bit,
    call after call."""

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = _seed_sequence_words(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = (self._inc + (w0 << 64 | w1)) & _MASK128  # step from 0, add the seed
        self._state = (state * _PCG64_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        span, state, inc = high - low, self._state, self._inc
        out = []
        for _ in range(size):
            state = (state * _PCG64_MULT + inc) & _MASK128
            word = ((state >> 64) ^ state) & _MASK64
            rot = state >> 122
            word = ((word >> rot) | (word << (64 - rot))) & _MASK64
            out.append(low + span * ((word >> 11) * 2.0**-53))
        self._state = state
        return np.array(out, dtype=np.float64)
