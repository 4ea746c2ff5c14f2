"""Per-path seeds and a path's two streams.

Path i under master seed m has seed ``mix64(mix64(m) ^ i)`` (splitmix64's
finalizer, draw contract 3), so two masters share a path seed only when
``mix64(m1) ^ mix64(m2)`` is below the path count, and paths can be made
in any order, or on any worker, and still reproduce byte for byte.

A path seeded with s reads stream A, the one ``np.random.default_rng(s)``
starts, and stream B, 2**96 (``_JUMP``) words further on (draw contract
5).  ``pcg64_states`` computes A's starting states for a span of
seeds at once, about 3 us a path against 20 for a ``default_rng``:
``SeedSequence``'s uint32 hash runs as array operations and PCG64's
128-bit seeding step as Python integers.  ``stream_b_states`` maps them to
B's by F. B. Brown's LCG jump-ahead (1994): n steps of s -> M s + inc are
s -> A s + C inc (mod 2**128), with A and C fixed by n.  Each checks its
first result against numpy's own (``default_rng``, ``advance``), so a
numpy whose generator differs fails loudly instead of changing every
stream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
_JUMP = 1 << 96  # words from a path's stream A to its stream B


def _lcg_jump(mult: int, n: int) -> tuple[int, int]:
    """(A, C) such that n steps of s -> mult * s + inc take s to A * s +
    C * inc, mod 2**128: square-and-multiply over the bits of n."""
    a, c, step_a, step_c = 1, 0, mult, 1
    while n:
        if n & 1:
            a, c = (a * step_a) & _MASK128, (c * step_a + step_c) & _MASK128
        step_a, step_c = (step_a * step_a) & _MASK128, (step_c * (step_a + 1)) & _MASK128
        n >>= 1
    return a, c


_JUMP_MULT, _JUMP_ADD = _lcg_jump(_PCG64_MULT, _JUMP)


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless seed lies in [0, 2**64), the range
    numpy's ``default_rng`` takes and ``path_seed`` mixes without
    wrapping (so -1 would otherwise run as 2**64 - 1)."""
    if not 0 <= seed <= _MASK:  # written so that NaN fails too
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # splitmix64's rounds


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scramble."""
    z &= _MASK
    for shift, mult in _MIX:
        z = ((z ^ (z >> shift)) * mult) & _MASK
    return (z ^ (z >> 31)) & _MASK


def path_seed(master: int, index: int) -> int:
    """Seed for path ``index`` under ``master``; collision-free in index."""
    if index < 0:
        raise ValueError("path index must be nonnegative")
    return mix64(mix64(master) ^ (index & _MASK))


def path_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """``path_seed(master, i)`` for i in range(start, stop), as a uint64
    array: ``mix64`` runs as array operations, whose uint64 products wrap
    mod 2**64 as its masks do."""
    if start < 0:
        raise ValueError("path index must be nonnegative")
    z = np.arange(start, stop, dtype=np.uint64) ^ np.uint64(mix64(master))
    for shift, mult in _MIX:
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    return z ^ (z >> np.uint64(31))


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


def pcg64_states(seeds: Sequence[int] | np.ndarray) -> list[dict]:
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


# Not numpy's own ``advance(_JUMP)`` on each path's generator: that gives the
# same states but costs 0.2-1.1 us more a path, about 7% of the short_paths
# benchmark's run_s (2 cores, Python 3.11, numpy 2.4).
def stream_b_states(states: Iterable[dict]) -> Iterator[dict]:
    """Stream B's starting state for each PCG64 state of ``states`` (as
    ``pcg64_states`` gives them), the state advanced ``2**96`` words, one
    at a time so that an ensemble never holds them all.  Raises
    ``RuntimeError`` if the first differs from numpy's
    ``bit_generator.advance``."""
    for i, st in enumerate(states):
        s, inc = st["state"]["state"], st["state"]["inc"]
        out = {
            "bit_generator": "PCG64",
            "state": {"state": (_JUMP_MULT * s + _JUMP_ADD * inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if i == 0:
            bg = np.random.PCG64(0)
            bg.state = st
            bg.advance(_JUMP)
            if out != bg.state:
                raise RuntimeError("stream B's state differs from numpy's PCG64 advance")
        yield out
