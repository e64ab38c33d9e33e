"""Indexed substreams of a seed, with the seeding done for a block of keys
at once.

`substreams(seed, count)` yields substream k of a seed for each key
k < count, the stream of PCG64(SeedSequence(seed, spawn_key=(k,))).  That
is NumPy's `SeedSequence(seed).spawn(count)[k]`, the package's one
definition of an indexed substream: trial t of the Monte Carlo and restart
r of a `wootters` pair draw from substream t or r of their seed.  A key is
one uint32 spawn word, so count is at most 2**32.

Building a SeedSequence, a PCG64 and a Generator per key costs ~16-20 us
(NumPy 2.4, x86-64), almost all of it in the seeding.  Both seeding steps are
fixed integer arithmetic, so they run here for a block of values at once:

- the SeedSequence hash mix (O'Neill's seed_seq_fe, pool of 4 uint32 words)
  and its generate_state(4, uint64), in NumPy uint32 arithmetic;
- PCG64's set-seed, two steps of its 128-bit LCG (O'Neill 2014), in NumPy
  uint64 arithmetic: a 128-bit value as two words with explicit carries,
  the 64 x 64 -> 128-bit high product on 32-bit limbs (`_set_seed`).

Per key, the four state words are then written straight into the one
reused Generator's PCG64, through NumPy's public
BitGenerator.ctypes.state_address, with has_uint32 and uinteger cleared as
NumPy's state setter clears them.  The word order in that struct depends on
the build, so a layout probe (`_State`) sets one known state through the
setter and reads it back before the first write.  A key then costs ~0.65 us
(30,000 substreams, no draws, same host), where the setter alone took
~1.35 us and the whole seed ~2.0 us.

Every array and scalar is explicitly uint32 or uint64, so the wraparound
arithmetic is the same under NumPy 1.x value-based casting and NumPy 2
(NEP 50), and array ufuncs wrap without a RuntimeWarning.
"""

from __future__ import annotations

import ctypes
import operator
from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MASK32_U64 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_SHIFT32 = np.uint64(32)
_SHIFT63 = np.uint64(63)
# a state with four distinct words and nonzero flags, for the layout probe
_PROBE_WORDS = [0x0123456789ABCDEF, 0x1133557799BBDDFF, 0x2468ACE013579BDF, 0x3C3C5A5A96966969]
_PROBE_UINTEGER = 0xA5C3E187
# keys per block: memory stays O(block) at any number of keys
_BLOCK = 1024


class _Hash:
    """SeedSequence's hashmix: its multiplier sequence does not depend on the
    data, so one instance serves a whole block of values."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of the SeedSequences whose assembled entropy
    words are the rows of entropy, (words, keys) uint32: (4, keys) uint64."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    hashout = _Hash(_INIT_B, _MULT_B)
    out = [hashout(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)])


def _seed_int(seed) -> int:
    # SeedSequence's errors: ValueError for a negative seed, TypeError for a
    # float or a string
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed


def _set_seed(words: np.ndarray) -> np.ndarray:
    """PCG64's set-seed over a block: (4, seeds) generate_state words (seed
    hi, lo, increment hi, lo) to the (4, seeds) state words (state hi, lo,
    inc hi, lo), in NumPy's setter order.

    inc = 2 w_inc + 1 and state = (inc + w_state) MULT + inc, mod 2**128:
    the two LCG steps from state 0, each 128-bit value as two uint64 words.
    """
    s_hi, s_lo, i_hi, i_lo = words
    inc_lo = (i_lo << _ONE) | _ONE
    inc_hi = (i_hi << _ONE) | (i_lo >> _SHIFT63)
    a_lo = s_lo + inc_lo
    a_hi = s_hi + inc_hi + (a_lo < inc_lo).astype(np.uint64)
    r_lo = a_lo * _PCG_MULT_LO
    r_hi = _mul_hi(a_lo, _PCG_MULT_LO) + a_lo * _PCG_MULT_HI + a_hi * _PCG_MULT_LO
    state_lo = r_lo + inc_lo
    state_hi = r_hi + inc_hi + (state_lo < r_lo).astype(np.uint64)
    return np.stack((state_hi, state_lo, inc_hi, inc_lo))


def _mul_hi(x: np.ndarray, y: np.uint64) -> np.ndarray:
    # the high word of the 128-bit products x * y, on 32-bit limbs: no
    # partial sum exceeds 2**64 - 1
    x0, x1 = x & _MASK32_U64, x >> _SHIFT32
    y0, y1 = y & _MASK32_U64, y >> _SHIFT32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> _SHIFT32) + (p01 & _MASK32_U64) + (p10 & _MASK32_U64)
    return x1 * y1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _word_order(words: list[int], flags: list[int]) -> list[int]:
    """Which setter word each struct slot holds, from the probe state read
    back as words and flags; RuntimeError unless they are the probe's."""
    if sorted(words) != sorted(_PROBE_WORDS) or sorted(flags) != [1, _PROBE_UINTEGER]:
        raise RuntimeError(
            "unrecognised PCG64 state layout: the probe state set through "
            f"bit_generator.state reads back as words {[hex(w) for w in words]} "
            f"and flags {[hex(f) for f in flags]}"
        )
    return [_PROBE_WORDS.index(w) for w in words]


class _State:
    """A Generator on PCG64 and writable views of its state, found by a
    probe.

    NumPy's BitGenerator.ctypes.state_address points at PCG64's
    pcg64_state {pcg64_random_t *pcg_state; int has_uint32; uint32_t
    uinteger}.  The order of the four 64-bit words behind pcg_state depends
    on the build (native __uint128_t: low word first on little-endian hosts;
    emulated 128-bit math: high first), so one known state is set through
    the public setter and read back: slot k of `words` holds setter word
    `order[k]`, and `flags` are the two 32-bit slots after the pointer,
    which must read back has_uint32 and uinteger in some order.
    """

    def __init__(self) -> None:
        self.rng = np.random.Generator(np.random.PCG64(0))
        bit_gen = self.rng.bit_generator
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": (_PROBE_WORDS[0] << 64) | _PROBE_WORDS[1],
                "inc": (_PROBE_WORDS[2] << 64) | _PROBE_WORDS[3],
            },
            "has_uint32": 1,
            "uinteger": _PROBE_UINTEGER,
        }
        address = bit_gen.ctypes.state_address
        pcg_state = ctypes.c_void_p.from_address(address).value
        self.words = np.frombuffer((ctypes.c_uint64 * 4).from_address(pcg_state), np.uint64)
        flags = (ctypes.c_uint32 * 2).from_address(address + ctypes.sizeof(ctypes.c_void_p))
        self.flags = np.frombuffer(flags, np.uint32)
        self.order = _word_order(self.words.tolist(), self.flags.tolist())
        self._no_flags = np.zeros(2, np.uint32)

    def reset(self, words: np.ndarray) -> Iterator[np.random.Generator]:
        """Reset the Generator to each column of (4, seeds) generate_state
        words in turn, as NumPy's setter does: the set-seed's state words,
        then has_uint32 and uinteger 0."""
        # one row per seed, its words in the struct's order
        table = _set_seed(words)[self.order].T.copy()
        for row in table:
            self.words[...] = row
            self.flags[...] = self._no_flags
            yield self.rng


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield a Generator on substream k of seed for each k in range(count).

    One Generator is reset for every key, so draw from it before asking for
    the next.  seed must be a nonnegative int: like SeedSequence, this
    raises ValueError for a negative one and TypeError for a float or a
    string.  Seed None draws fresh entropy once for all keys.  A count
    above 2**32 raises ValueError: every key is one uint32 spawn word.
    """
    seed = _seed_int(np.random.SeedSequence().entropy if seed is None else seed)
    if not 0 <= operator.index(count) <= 2**32:
        raise ValueError(f"count must lie in [0, 2**32], got {count}")
    return _seeded(seed, count)


def _seeded(seed: int, count: int) -> Iterator[np.random.Generator]:
    # one Generator reset to each key's state in turn, the keys seeded in
    # blocks of _BLOCK
    state = _State()
    for start in range(0, count, _BLOCK):
        yield from state.reset(_key_words(seed, start, min(start + _BLOCK, count)))


def _key_words(seed: int, start: int, stop: int) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(seed, spawn_key=(k,)) for
    each key k in range(start, stop), keys below 2**32: (4, keys) uint64."""
    # a spawned SeedSequence pads its run entropy to the pool size, then
    # appends the word of its key
    rows = max(_POOL_SIZE, (seed.bit_length() + 31) >> 5)
    entropy = np.empty((rows + 1, stop - start), dtype=np.uint32)
    entropy[:rows] = np.array([(seed >> 32 * j) & _MASK32 for j in range(rows)], np.uint32)[:, None]
    entropy[rows] = np.arange(start, stop, dtype=np.int64)
    return _seed_words(entropy)
