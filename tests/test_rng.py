import numpy as np
import pytest

from fairmmd import _rng
from fairmmd._rng import philox_keys, rekey, rng_for, subseed


def test_same_stream_reproduces():
    a = rng_for(3, 1, 4).standard_normal(8)
    b = rng_for(3, 1, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    draws = {
        tuple(np.round(rng_for(0, *stream).standard_normal(4), 12))
        for stream in [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 7)]
    }
    assert len(draws) == 6


def test_subseed_is_a_stable_int():
    a = subseed(5, 2, 9)
    assert isinstance(a, int)
    assert a == subseed(5, 2, 9)
    assert a != subseed(5, 2, 10)
    assert a != subseed(6, 2, 9)


# Seeds of one to four uint32 words, and prefixes that hold zeros.
KEY_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**100)
KEY_PREFIXES = ((), (0,), (0, 0), (1, 0), (61,), (3, 0, 7), (2**33, 0))


def test_philox_keys_match_the_single_stream_api():
    """About 2000 batched keys, direct and nested, equal the keys of the
    generators rng_for builds one at a time, for t from 0 up to 2**32 - 1."""
    rng = np.random.default_rng(20)
    checked = 0
    for seed in KEY_SEEDS:
        for prefix in KEY_PREFIXES:
            for start in (0, int(rng.integers(1, 2**31)), 2**32 - 8):
                stop = start + 8
                for nested in (False, True):
                    got = philox_keys(seed, prefix, start, stop, nested)
                    want = np.empty((stop - start, 2), dtype=np.uint64)
                    for i, t in enumerate(range(start, stop)):
                        gen = (rng_for(subseed(seed, *prefix, t)) if nested
                               else rng_for(seed, *prefix, t))
                        want[i] = gen.bit_generator.state["state"]["key"]
                    np.testing.assert_array_equal(got, want, err_msg=f"{seed} {prefix} {start}")
                    checked += got.shape[0]
    assert checked >= 2000


def test_philox_keys_refuse_indices_beyond_one_word():
    with pytest.raises(ValueError):
        philox_keys(0, (1,), 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError):
        philox_keys(0, (-1,), 0, 4)


def test_rekeyed_generator_draws_like_a_fresh_one():
    """A kept generator last left with a cached 32-bit word (has_uint32 = 1)
    and a part-used buffer draws, once re-keyed, what a fresh rng_for does."""
    kept = rng_for(9)
    kept.integers(0, 100, size=3, dtype=np.int32)
    assert kept.bit_generator.state["has_uint32"] == 1
    key = philox_keys(4, (2, 0), 5, 6, nested=True).tolist()[0]
    fresh = rng_for(subseed(4, 2, 0, 5))
    rekey(kept, key)
    assert str(kept.bit_generator.state) == str(fresh.bit_generator.state)
    for draw in (lambda g: g.random(5), lambda g: g.standard_normal(7),
                 lambda g: g.integers(0, 10, size=5, dtype=np.int32),
                 lambda g: g.integers(0, 2**40, size=3)):
        np.testing.assert_array_equal(draw(kept), draw(fresh))


@pytest.mark.parametrize("nested", [False, True])
def test_streams_cross_key_chunks(monkeypatch, nested):
    """With chunks of 3 keys, 8 streams span three chunks and give the draws
    of the single-stream API, stream by stream."""
    monkeypatch.setattr(_rng, "_KEY_CHUNK", 3)
    got = [g.standard_normal(4) for g in _rng.streams(2**40 + 3, 1, 0, count=8, nested=nested)]
    want = [(rng_for(subseed(2**40 + 3, 1, 0, t)) if nested
             else rng_for(2**40 + 3, 1, 0, t)).standard_normal(4) for t in range(8)]
    np.testing.assert_array_equal(got, want)
    assert list(_rng.streams(0, 1, count=0)) == []
