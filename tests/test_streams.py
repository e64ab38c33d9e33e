import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo._streams import (
    _BLOCK,
    _PCG_MULT,
    _PROBE_UINTEGER,
    _PROBE_WORDS,
    _State,
    _key_words,
    _word_order,
    substreams,
)


def _numpy_state(seed, key):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))).state


def _key_state(seed, key):
    # the state substreams(seed, count) gives key k: its block's seeding
    # words, written into a fresh Generator
    return next(_State().reset(_key_words(seed, key, key + 1))).bit_generator.state


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**160 - 1), st.integers(0, 2**32 - 1))
def test_substream_state_equals_numpy(seed, key):
    assert _key_state(seed, key) == _numpy_state(seed, key)


@pytest.mark.parametrize("key", [0, 2**31, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 10**30, 2**160 - 1])
def test_substream_state_equals_numpy_at_word_boundaries(seed, key):
    # every key below 2**32 is one spawn word, mixed in as NumPy does; a key
    # from 2**32 on would need a second word, so no count reaches it
    if key < 2**32:
        assert _key_state(seed, key) == _numpy_state(seed, key)
    else:
        with pytest.raises(ValueError, match="count"):
            substreams(seed, key + 1)


@pytest.mark.parametrize("seed", [0, 42, 10**30])
def test_substreams_equal_spawned_children_across_blocks(seed):
    keys = 2 * _BLOCK + 5
    children = np.random.SeedSequence(seed).spawn(keys)
    draws = [rng.random(3) for rng in substreams(seed, keys)]
    assert len(draws) == keys
    for child, got in zip(children, draws):
        assert np.array_equal(np.random.default_rng(child).random(3), got)


def test_substreams_reject_a_count_outside_one_spawn_word():
    # uint32 keys would wrap past 2**32 - 1; the check runs before any draw
    for count in (2**32 + 1, -1):
        with pytest.raises(ValueError, match="count"):
            substreams(5, count)
    with pytest.raises(TypeError):
        substreams(5, 3.0)
    assert list(substreams(5, 0)) == []


def test_substreams_reject_seeds_as_seed_sequence_does():
    for seed, error in [(-1, ValueError), (1.5, TypeError), ("3", TypeError)]:
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            next(substreams(seed, 1))


# ---------------------------------------------------------------------------
# the direct state write: every reset leaves the state NumPy's setter leaves


def test_reset_after_a_draw_that_caches_a_uint32():
    # a uint32 draw keeps the other half of its 64-bit word (has_uint32 = 1);
    # the next reset must clear it, as the setter does
    for seed in (9, 2**64 + 5):
        for k, rng in enumerate(substreams(seed, 3)):
            assert rng.bit_generator.state == _numpy_state(seed, k)
            rng.integers(0, 2**31, dtype=np.uint32, size=1)
            assert rng.bit_generator.state["has_uint32"] == 1


def test_interleaved_stream_iterators_keep_their_own_states():
    # two substreams(...) iterators advanced in turn, across a block: each
    # writes into its own Generator
    first, second = substreams(3, _BLOCK + 2), substreams(10**30, _BLOCK + 2)
    for k in range(_BLOCK + 2):
        a = next(first)
        b = next(second)
        assert a.bit_generator.state == _numpy_state(3, k)
        assert b.bit_generator.state == _numpy_state(10**30, k)


class _Words(np.random.bit_generator.ISeedSequence):
    # a seed sequence whose generate_state(4, uint64) is the given words
    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return np.array(self.words, dtype=np.uint64)


_TOP = 2**64 - 1
# generate_state words (seed hi, lo, increment hi, lo) at the 2**64 and
# 2**128 carry boundaries of inc = 2 w_inc + 1 and (inc + w_state) MULT + inc
_BOUNDARY_WORDS = [
    (0, 0, 0, 0),
    (_TOP, _TOP, _TOP, _TOP),
    (0, _TOP, 0, 2**63 - 1),
    (_TOP, _TOP, _TOP, 2**63),
    (0, 2**63, 2**63, 2**63),
    (1, 2**64 - 2, 0, 1),
]


def _carries(words):
    # whether inc_lo + s_lo and r_lo + inc_lo carry, with Python ints
    s_hi, s_lo, i_hi, i_lo = words
    inc_lo = (2 * i_lo + 1) & _TOP
    a_lo = s_lo + inc_lo
    r_lo = (a_lo & _TOP) * (_PCG_MULT & _TOP) & _TOP
    return a_lo > _TOP, r_lo + inc_lo > _TOP


def test_boundary_words_include_both_low_word_carries():
    assert all(_carries((0, _TOP, 0, 2**63 - 1)))
    assert not any(_carries((0, 0, 0, 0)))


@pytest.mark.parametrize("words", _BOUNDARY_WORDS)
def test_direct_state_write_equals_the_setter_at_carry_boundaries(words):
    state = _State()
    rng = next(state.reset(np.array(words, dtype=np.uint64)[:, None]))
    assert rng.bit_generator.state == np.random.PCG64(_Words(words)).state


def test_layout_probe_order_reads_every_permutation_and_rejects_others():
    for order in ([0, 1, 2, 3], [1, 0, 3, 2], [3, 1, 0, 2]):
        read = [_PROBE_WORDS[k] for k in order]
        assert _word_order(read, [_PROBE_UINTEGER, 1]) == order
    with pytest.raises(RuntimeError, match="PCG64 state layout"):
        _word_order([0, 0, 0, 0], [1, _PROBE_UINTEGER])
    with pytest.raises(RuntimeError, match="PCG64 state layout"):
        _word_order(_PROBE_WORDS, [0, 0])
