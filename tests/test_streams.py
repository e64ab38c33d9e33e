import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo._streams import _BLOCK, substreams


def _numpy_state(seed, key):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))).state


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**160 - 1), st.integers(0, 2**32 - 1))
def test_substream_state_equals_numpy(seed, key):
    rng = next(substreams(seed, range(key, key + 1)))
    assert rng.bit_generator.state == _numpy_state(seed, key)


@pytest.mark.parametrize("key", [0, 2**31, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 10**30, 2**160 - 1])
def test_substream_state_equals_numpy_at_word_boundaries(seed, key):
    # keys from 2**32 on are a second (third) spawn word, mixed in as NumPy does
    rng = next(substreams(seed, range(key, key + 1)))
    assert rng.bit_generator.state == _numpy_state(seed, key)


@pytest.mark.parametrize("seed", [0, 42, 10**30])
def test_substreams_equal_spawned_children_across_blocks(seed):
    keys = 2 * _BLOCK + 5
    children = np.random.SeedSequence(seed).spawn(keys)
    draws = [rng.random(3) for rng in substreams(seed, range(keys))]
    assert len(draws) == keys
    for child, got in zip(children, draws):
        assert np.array_equal(np.random.default_rng(child).random(3), got)


def test_substream_block_splits_where_keys_gain_a_word():
    keys = range(2**32 - 3, 2**32 + 3)
    states = [rng.bit_generator.state for rng in substreams(5, keys)]
    assert states == [_numpy_state(5, k) for k in keys]


def test_substreams_reject_seeds_as_seed_sequence_does():
    for seed, error in [(-1, ValueError), (1.5, TypeError), ("3", TypeError)]:
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            next(substreams(seed, range(1)))
