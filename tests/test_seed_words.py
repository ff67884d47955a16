"""The bulk seed words of ``simulate_experiment`` against numpy's SeedSequence.

Every measurement unit k draws from the generator
``default_rng(SeedSequence(seed, spawn_key=(k,)))`` would give.  The
simulator computes the seed words of a whole block of units with one
vectorised run of numpy's hash and seeds each unit's PCG64 from them, so the
words and the generator states are compared here with numpy's own, over many
keys and over entropies that cross every uint32-word boundary of the pool.
A block of ``grid_search`` may hold the units of many seeds; those words are
compared row by row as well.
Each unit's Clifford ids are read from its raw PCG64 outputs; they are
compared here with numpy's own ``integers``, so a numpy whose bounded-integer
algorithm differs fails here rather than letting the records drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrenyi import estimator
from stabrenyi.cliffords import N_CLIFFORD
from stabrenyi.estimator import (
    _clifford_draws,
    _seed_words,
    _SeedWords,
    simulate_experiment,
)
from stabrenyi.states import zero_state

ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**100, 2**130 + 3]

#: 2,000 low keys and the 100 highest a spawn key can hold, per entropy.
KEY_RANGES = [(0, 2000), (2**32 - 100, 2**32)]


def numpy_words(seed: int, keys: range) -> np.ndarray:
    return np.array(
        [
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(
                4, np.uint64
            )
            for k in keys
        ]
    )


@pytest.mark.parametrize("seed", ENTROPIES)
def test_bulk_words_equal_seed_sequence(seed):
    for start, stop in KEY_RANGES:
        got = _seed_words(seed, start, stop)
        assert got.dtype == np.uint64 and got.shape == (stop - start, 4)
        assert np.array_equal(got, numpy_words(seed, range(start, stop)))


def test_key_count_covers_ten_thousand():
    per_entropy = sum(stop - start for start, stop in KEY_RANGES)
    assert len(ENTROPIES) * per_entropy >= 10**4


@settings(max_examples=200)
@given(
    seeds=st.lists(st.integers(0, 2**140 - 1), min_size=1, max_size=4),
    n_units=st.integers(1, 2**32),
    data=st.data(),
)
def test_many_seed_words_equal_seed_sequence(seeds, n_units, data):
    """Rows [start, stop) of the seed-major (seed, unit) grid: row r is key
    r % n_units under seeds[r // n_units], for any seeds (repeats included)."""
    total = len(seeds) * n_units
    start = data.draw(st.integers(0, total - 1), label="start")
    stop = data.draw(st.integers(start + 1, min(start + 9, total)), label="stop")
    got = _seed_words(seeds, start, stop, n_units)
    want = [
        np.random.SeedSequence(seeds[r // n_units], spawn_key=(r % n_units,))
        .generate_state(4, np.uint64)
        for r in range(start, stop)
    ]
    assert got.dtype == np.uint64 and np.array_equal(got, np.array(want))


def test_a_block_across_seeds_is_the_one_seed_blocks_joined():
    seeds = [2022, 0, 2**130 + 3, 2022]
    joined = np.concatenate([_seed_words(s, 0, 50) for s in seeds])
    assert np.array_equal(_seed_words(seeds, 30, 170, 50), joined[30:170])
    with pytest.raises(ValueError, match="spawn key"):
        _seed_words(seeds, 150, 201, 50)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 7, 2**130 + 3])
@pytest.mark.parametrize("start", [0, 37, 2**32 - 3])
def test_unit_generator_state_equals_fresh_default_rng(seed, start):
    for k, words in enumerate(_seed_words(seed, start, start + 3), start):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        fresh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_a_block_is_any_slice_of_the_keys():
    whole = _seed_words(2022, 0, 64)
    assert np.array_equal(_seed_words(2022, 10, 30), whole[10:30])


def test_keys_beyond_32_bits_are_refused():
    with pytest.raises(ValueError, match="spawn key"):
        _seed_words(0, 2**32 - 1, 2**32 + 1)


@pytest.mark.parametrize(
    "n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)]
)
def test_seed_words_serve_only_the_pcg64_request(n_words, dtype):
    source = _SeedWords(_seed_words(0, 0, 1)[0])
    with pytest.raises(ValueError):
        source.generate_state(n_words, dtype)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "7"])
def test_bad_seed_raises_as_seed_sequence_does(seed):
    with pytest.raises((TypeError, ValueError)) as refused:
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    with pytest.raises(refused.type):
        simulate_experiment(zero_state(1), 2, 8, seed=seed)


def test_numpy_integer_seed_equals_int_seed():
    a = simulate_experiment(zero_state(2), 5, 16, seed=np.uint64(2**63 + 5))
    b = simulate_experiment(zero_state(2), 5, 16, seed=2**63 + 5)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.clifford_ids, b.clifford_ids)


#: Seed 0, unit 6,576,932: its uint32 draw 12 (the low half of raw output 6)
#: is u with 24 u mod 2**32 = 0, which numpy's Lemire rule rejects.  Found
#: by scanning keys; a draw is rejected with probability 16 / 2**32.
REJECTED_SEED, REJECTED_KEY, REJECTED_DRAW = 0, 6_576_932, 12


def assert_ids_equal_numpy_integers(seeds, n, inner):
    """Outer then inner word as two ``integers`` calls on each unit's own
    generator, the generator position after them, and the multinomial draw
    that follows."""
    drawn, rngs = _clifford_draws(seeds, 2 * n if inner else n)
    probs = np.random.default_rng(n).dirichlet(np.ones(2**n))
    for words, ids, rng in zip(seeds, drawn, rngs):
        ref = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        want = [ref.integers(0, N_CLIFFORD, size=n) for _ in range(1 + inner)]
        assert np.array_equal(ids, np.concatenate(want))
        assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]
        assert np.array_equal(rng.multinomial(500, probs), ref.multinomial(500, probs))
    return drawn


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**130 + 3),
    start=st.integers(0, 2**32 - 1),
    units=st.integers(1, 6),
    n=st.integers(1, 12),
    inner=st.booleans(),
)
def test_raw_output_ids_equal_numpy_integers(seed, start, units, n, inner):
    assert_ids_equal_numpy_integers(
        _seed_words(seed, start, min(start + units, 2**32)), n, inner
    )


@pytest.mark.parametrize("n", [7, 12])
def test_a_rejected_draw_is_redrawn_by_integers(n):
    seeds = _seed_words(REJECTED_SEED, REJECTED_KEY, REJECTED_KEY + 1)
    raw = np.random.PCG64(_SeedWords(seeds[0])).random_raw(n)
    halves = [int(h) for r in raw for h in (r & 0xFFFFFFFF, r >> 32)]
    scaled = [N_CLIFFORD * h for h in halves]
    assert [m % 2**32 < 16 for m in scaled].index(True) == REJECTED_DRAW
    drawn = assert_ids_equal_numpy_integers(seeds, n, inner=True)
    unredrawn = [m >> 32 for m in scaled]
    assert drawn[0, :REJECTED_DRAW].tolist() == unredrawn[:REJECTED_DRAW]
    assert drawn[0].tolist() != unredrawn


def test_rejection_threshold_is_numpys():
    """numpy's Lemire bound for ``integers(0, N_CLIFFORD)``, written as its C
    source computes it: (UINT32_MAX - rng) % (rng + 1) with rng = N - 1."""
    threshold = estimator._LEMIRE_REJECT
    assert threshold == (2**32 - N_CLIFFORD) % N_CLIFFORD
    assert threshold == (0xFFFFFFFF - (N_CLIFFORD - 1)) % N_CLIFFORD == 16
