"""Per-path seed derivation.

Each simulated path owns an independent RNG stream seeded by mixing the
master seed with the path index through splitmix64.  The construction is
order-free, so paths can be generated in any order (or on any worker)
and still reproduce byte-identically.

A path's stream is the one ``np.random.default_rng(path_seed(master,
i))`` starts, but building a generator per path costs about 20 us, most
of it numpy's ``SeedSequence`` hash.  ``pcg64_states`` computes the same
starting states for a whole span of seeds at once: the hash's uint32
arithmetic runs as array operations across the span, and PCG64's
128-bit seeding step as Python integers.  An ensemble then positions one
reused generator per path through ``bit_generator.state``.  Every call
checks its first state against a real ``default_rng``, so a numpy whose
seeding differs fails loudly instead of changing every stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scramble."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def path_seed(master: int, index: int) -> int:
    """Seed for path ``index`` under ``master``; collision-free in index."""
    if index < 0:
        raise ValueError("path index must be nonnegative")
    return mix64((master & _MASK) ^ (index & _MASK))


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The running hash constant before each of n hashmix calls, then
    after the last."""
    out = []
    for _ in range(n):
        out.append(init)
        init = (init * mult) & _MASK32
    out.append(init)
    return out


def _hashmix(value: np.ndarray, consts: list[int], i: int) -> np.ndarray:
    """SeedSequence's hashmix, the i-th call of one mixing pass."""
    value = (value ^ np.uint32(consts[i])) * np.uint32(consts[i + 1])
    return value ^ (value >> _XSHIFT)


def pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """The ``bit_generator.state`` that ``np.random.default_rng(s)``
    starts in, for each seed s in [0, 2**64), bit for bit.

    The seed's two 32-bit words (a seed below 2**32 hashes as its low
    word followed by zeros, the same pool) go through ``SeedSequence``'s
    entropy mix into a pool of 4 words, and ``generate_state(4,
    uint64)`` gives PCG64's 128-bit seed and stream; both run as uint32
    array operations over all seeds.  PCG64's ``srandom`` step then sets
    ``inc = (stream << 1) | 1`` and ``state = (inc + seed) * M + inc``
    (two LCG steps from 0) per seed.  Raises ``RuntimeError`` if the
    first state differs from a real ``default_rng``'s.
    """
    try:
        s = np.array(seeds, dtype=np.uint64)
    except OverflowError:
        raise ValueError("seeds must lie in [0, 2**64)") from None
    if s.size == 0:
        return []
    # mix_entropy: hash the words (and zeros) into the pool, then mix
    # every word into every other; 16 hashmix calls in all
    ca = _hash_consts(_INIT_A, _MULT_A, 16)
    words = [(s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32)]
    zero = np.zeros(s.size, np.uint32)
    pool = [_hashmix(words[i] if i < 2 else zero, ca, i) for i in range(4)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h = _hashmix(pool[src], ca, call)
                call += 1
                mixed = pool[dst] * np.uint32(_MIX_MULT_L) - h * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, uint64): 8 words cycling over the pool, read as
    # little-endian pairs
    cb = _hash_consts(_INIT_B, _MULT_B, 8)
    out = [_hashmix(pool[i % 4], cb, i) for i in range(8)]
    v = [(out[2 * k].astype(np.uint64) | (out[2 * k + 1].astype(np.uint64) << 32)).tolist()
         for k in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*v):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    if states[0] != np.random.default_rng(int(s[0])).bit_generator.state:
        raise RuntimeError("derived PCG64 state differs from numpy's default_rng; "
                           "numpy's seeding has changed")
    return states
