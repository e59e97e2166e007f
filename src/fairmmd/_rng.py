"""Seeded, replayable random number generation.

All randomness in the package flows through :func:`rng_for`, which builds a
counter-based Philox generator from an integer seed plus an optional stream
path (e.g. ``rng_for(seed, trial_index)``).  Distinct stream paths give
independent streams, and the same (seed, path) always reproduces the same
draws, so Monte Carlo loops can be evaluated in any order — or in parallel —
without changing the aggregate.

A stream costs about 30 us to open through :func:`rng_for` (2-core Xeon,
numpy 2.4), and most of that is the SeedSequence hash of its (seed, path)
key (about 22 us).  Loops that open one stream per trial use
:func:`streams` instead, which gives every trial the same draws.  A Philox
stream is fully set by its 128-bit key, and SeedSequence's mixing is fixed
uint32 arithmetic whose constants do not depend on the data, so
:func:`philox_keys` computes the keys of many trials as numpy arrays in one
pass (0.2-0.6 ms for one to a thousand keys), and :func:`rekey` resets one
kept generator to each key in about 2 us.
"""

import numpy as np

_M32 = 0xFFFFFFFF
# numpy's SeedSequence constants (O'Neill's seed_seq design, NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Trials whose keys one philox_keys call computes: a call costs 0.2-0.6 ms
# almost whatever its size, and 1024 keys take 16 KB.
_KEY_CHUNK = 1024


def _entropy(seed: int, stream: tuple) -> tuple:
    # SeedSequence hashes trailing zero words to the same pool (documented
    # numpy behavior), so (seed, 3) and (seed, 3, 0) would collide.  Prefixing
    # the stream length makes every (seed, stream) pair a distinct pool: two
    # entropy tuples of different lengths already differ in the length word,
    # and equal-length tuples differ in some stream word.
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return (int(seed), len(stream)) + tuple(int(s) for s in stream)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed`` and an optional stream path."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_entropy(seed, stream))))


def subseed(seed: int, *stream: int) -> int:
    """Collapse (seed, stream...) into one integer seed for APIs taking ints."""
    return int(np.random.SeedSequence(
        _entropy(seed, stream)).generate_state(1, np.uint64)[0])


def _words(value: int) -> list:
    """The uint32 words SeedSequence reads from a non-negative int, low first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> list:
    # Python ints masked to 32 bits: products of numpy uint32 scalars warn on
    # overflow, while the uint32 array products below wrap silently.
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _hash(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` word by word, for
    entropy words that are each a Python int or a uint32 array (one entry per
    key); every returned word that depends on an array is an array."""
    consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL * max(len(entropy), _POOL)))
    last = next(consts)

    def hashmix(value):
        nonlocal last
        mult = next(consts)
        value = (value ^ last) * mult & _M32
        last = mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hash_consts(_INIT_B, _MULT_B, n_words)
    words = []
    for i in range(n_words):
        value = (pool[i % _POOL] ^ out[i]) * out[i + 1] & _M32
        words.append(value ^ (value >> 16))
    return words


def philox_keys(seed: int, prefix: tuple, start: int, stop: int,
                nested: bool = False) -> np.ndarray:
    """The (stop - start, 2) uint64 Philox keys of ``rng_for(seed, *prefix, t)``
    for t in range(start, stop), or with ``nested`` those of
    ``rng_for(subseed(seed, *prefix, t))``; 0 <= t < 2**32."""
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"stream indices must lie in [0, 2**32), got [{start}, {stop})")
    t = np.arange(start, stop, dtype=np.uint32)
    head = [w for value in _entropy(seed, (*prefix, 0))[:-1] for w in _words(value)]
    state = _hash(head + [t], 2 if nested else 4)
    if nested:
        # subseed's uint64 is the words (lo, hi), and rng_for(it) hashes its
        # words, then the stream length 0.  Zero words at the end of an
        # entropy shorter than the pool hash as the pool's own zero padding,
        # so (lo, hi) stands for (lo, 0) and for (0, 0) when hi or both are 0.
        state = _hash(state, 4)
    keys = np.empty((t.size, 2), dtype=np.uint64)
    for j in range(2):
        keys[:, j] = state[2 * j] | state[2 * j + 1].astype(np.uint64) << 32
    return keys


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """Reset ``gen``, a Philox generator, to the fresh stream of the 128-bit
    ``key`` (two uint64 words): counter 0, empty buffer, no cached word."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def streams(seed: int, *prefix: int, count: int, nested: bool = False):
    """Yield, for t in range(count), one kept generator reset to the stream of
    ``rng_for(seed, *prefix, t)`` (with ``nested``, of
    ``rng_for(subseed(seed, *prefix, t))``): the same draws, without a
    SeedSequence hash per stream.  Each yielded generator is the same object,
    valid until the next one is drawn.  Keys are computed ``_KEY_CHUNK``
    trials at a time, so their memory does not grow with ``count``."""
    gen = np.random.Generator(np.random.Philox(key=0))
    for start in range(0, count, _KEY_CHUNK):
        for key in philox_keys(seed, prefix, start, min(start + _KEY_CHUNK, count),
                               nested).tolist():
            yield rekey(gen, key)
