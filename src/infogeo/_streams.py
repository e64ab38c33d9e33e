"""Seeded streams, with the seeding done for a block of seeds at once.

Two entry points give one seeding body (`_seeded`) their entropy words:

- `substreams(seed, keys)`: substream k of a seed, the stream of
  PCG64(SeedSequence(seed, spawn_key=(k,))).  That is NumPy's
  `SeedSequence(seed).spawn(m)[k]` for any m > k, the package's one
  definition of an indexed substream.
- `streams(seeds)`: the stream of `np.random.default_rng(s)` for each seed s.

Building a SeedSequence, a PCG64 and a Generator per seed costs ~16-20 us
(NumPy 2.4, x86-64), almost all of it in the seeding.  Both seeding steps are
fixed integer arithmetic, so they run here for a block of values at once:

- the SeedSequence hash mix (O'Neill's seed_seq_fe, pool of 4 uint32 words)
  and its generate_state(4, uint64), in NumPy uint32 arithmetic over the
  block;
- PCG64's set-seed, two steps of its 128-bit LCG (O'Neill 2014), per value
  with Python ints.

A seed then costs ~2.3 us (30,000 substreams, same host), ~1.35 us of it
NumPy's state setter, to which one reused state dict is handed per seed.

Every array and scalar is explicitly uint32, so the wraparound arithmetic is
the same under NumPy 1.x value-based casting and NumPy 2 (NEP 50), and array
ufuncs wrap without a RuntimeWarning.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
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


def _reset(rng: np.random.Generator, words: np.ndarray) -> Iterator[np.random.Generator]:
    """Reset rng to each column of (4, seeds) generate_state words in turn,
    by PCG64's set-seed (state and increment from two 128-bit words)."""
    bit_gen = rng.bit_generator
    # one state dict for every seed: the setter copies the values out of it
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    # Python ints for 64 seeds at a time, not for the block: they take ~0.2 kB
    # per seed
    for start in range(0, words.shape[1], 64):
        for s_hi, s_lo, i_hi, i_lo in words[:, start : start + 64].T.tolist():
            pcg["inc"] = inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_gen.state = full
            yield rng


def substreams(seed: int, keys: range) -> Iterator[np.random.Generator]:
    """Yield a Generator on substream k of seed for each k in keys.

    One Generator is reset for every key, so draw from it before asking for
    the next.  seed must be a nonnegative int: like SeedSequence, this
    raises ValueError for a negative one and TypeError for a float or a
    string.  Seed None draws fresh entropy once for all keys.
    """
    seed = _seed_int(np.random.SeedSequence().entropy if seed is None else seed)
    # a spawned SeedSequence pads its run entropy to the pool size, then
    # appends the words of its key
    run = [(seed >> 32 * j) & _MASK32 for j in range(max(_POOL_SIZE, _word_count(seed)))]
    return _seeded(run, keys)


def streams(seeds) -> Iterator[np.random.Generator]:
    """Yield a Generator in the state of np.random.default_rng(s) for each
    seed s of seeds, in order.

    The seeds are nonnegative ints (NumPy integers too); each raises as
    SeedSequence does, when its block is reached.  One Generator is reset
    for every seed, as in substreams.
    """
    # a seed without a spawn key is its words zero-padded to the pool size
    return _seeded([], map(_seed_int, seeds))


def _word_count(value: int) -> int:
    # uint32 words of a nonnegative int, 1 for 0
    return ((value | 1).bit_length() + 31) >> 5


def _seeded(prefix: list[int], values) -> Iterator[np.random.Generator]:
    """Yield one Generator reset, for each value in turn, to the SeedSequence
    state of entropy words prefix + the value's words, zero-padded to the
    pool size; values go in blocks of _BLOCK, cut into runs of one width."""
    rng = np.random.Generator(np.random.PCG64(0))
    values = iter(values)
    while block := list(itertools.islice(values, _BLOCK)):
        # the word count grows with the value, so a block whose smallest and
        # largest values share it is one run
        if _word_count(min(block)) == _word_count(max(block)):
            runs = [block]
        else:
            runs = [list(run) for _, run in itertools.groupby(block, _word_count)]
        # the Python ints go before the block's streams are handed out
        words = [_run_words(prefix, run) for run in runs]
        del block, runs
        for run_words in words:
            yield from _reset(rng, run_words)


def _run_words(prefix: list[int], run: list[int]) -> np.ndarray:
    # generate_state words of a run of values of one word count, the
    # entropy built one word row at a time
    width = max(_word_count(run[0]), _POOL_SIZE - len(prefix))
    entropy = np.empty((len(prefix) + width, len(run)), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    for j in range(width):
        entropy[len(prefix) + j] = [(v >> 32 * j) & _MASK32 for v in run]
    return _seed_words(entropy)
