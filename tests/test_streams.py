import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo._streams import _BLOCK, streams, substreams


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


# ---------------------------------------------------------------------------
# streams: the state of np.random.default_rng(seed) for each seed


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**160 - 1), min_size=1, max_size=5))
def test_stream_states_equal_default_rng(seeds):
    states = [rng.bit_generator.state for rng in streams(seeds)]
    assert states == [np.random.default_rng(s).bit_generator.state for s in seeds]


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**62 - 1, 2**64 + 5, 2**128, np.int64(2**62 - 1)]
)
def test_stream_state_equals_default_rng_at_word_boundaries(seed):
    # seeds below 2**128 fill at most the 4-word pool; 2**128 is a fifth word
    rng = next(streams([seed]))
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_streams_split_blocks_where_the_word_count_changes():
    seeds = [5, 2**130, 2**130 + 1, 7, *range(_BLOCK + 3), 2**200]
    draws = [rng.random(2).tolist() for rng in streams(seeds)]
    assert draws == [np.random.default_rng(s).random(2).tolist() for s in seeds]


def test_streams_reject_seeds_as_default_rng_does():
    for seed, error in [(-1, ValueError), (1.5, TypeError), ("3", TypeError)]:
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            next(streams([3, seed]))
