"""The block-drawn ``Draws`` stream against numpy's ``Generator``."""

import random

import numpy as np
import pytest

from secvne.seeding import DRAW_BLOCK, Draws, draws_from, rng_from

BOUNDS = [1, 2, 3, 7, 100, 12345678, 2**32 - 6]
MASK32 = (1 << 32) - 1

# The first 32-bit word of stream (80,) is rejected by Lemire's draw for
# this bound: its low product half is below (2**32 - n) % n.
REJECTING_SEED, REJECTING_BOUND = 80, 12345678


def test_random_interleavings_equal_numpy():
    """random(), integers(n) and integers(0, 2, size=k), the last as k
    scalar integers(2) draws, in random order over many seeds."""
    for seed in range(120):
        rng, draws = rng_from(seed, 2, seed), draws_from(seed, 2, seed)
        rnd = random.Random(seed)
        for _ in range(300):
            op = rnd.randrange(3)
            if op == 0:
                assert draws.random() == rng.random()
            elif op == 1:
                n = rnd.choice(BOUNDS)
                assert draws.integers(n) == rng.integers(n)
            else:
                k = rnd.randint(1, 8)
                assert ([draws.integers(2) for _ in range(k)]
                        == rng.integers(0, 2, size=k).tolist())


def test_long_runs_cross_block_boundaries():
    rng, draws = rng_from(5), draws_from(5)
    assert [draws.random() for _ in range(3 * DRAW_BLOCK + 1)] == \
        rng.random(3 * DRAW_BLOCK + 1).tolist()
    # An odd count of 32-bit words leaves a carried half across the next block.
    assert [draws.integers(7) for _ in range(2 * DRAW_BLOCK + 1)] == \
        [int(rng.integers(7)) for _ in range(2 * DRAW_BLOCK + 1)]
    assert draws.random() == rng.random()
    assert draws.integers(100) == rng.integers(100)


def test_types_are_python_scalars():
    draws = draws_from(0)
    assert type(draws.random()) is float
    assert type(draws.integers(10)) is int


def test_rejection_loop_is_exercised():
    n = REJECTING_BOUND
    first = int(rng_from(REJECTING_SEED).bit_generator.random_raw(1)[0]) & MASK32
    assert (first * n) & MASK32 < (2**32 - n) % n
    rng, draws = rng_from(REJECTING_SEED), draws_from(REJECTING_SEED)
    assert draws.integers(n) == rng.integers(n)
    # Both consumed the same words: the streams still agree afterwards.
    assert [draws.integers(n) for _ in range(5)] == [int(rng.integers(n)) for _ in range(5)]
    assert draws.random() == rng.random()


def test_integers_of_one_consumes_nothing():
    rng, draws = rng_from(9), draws_from(9)
    assert draws.integers(3) == rng.integers(3)  # leaves a carried half word
    assert draws.integers(1) == 0 == rng.integers(1)
    assert draws.integers(3) == rng.integers(3)
    assert draws.random() == rng.random()


@pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
def test_bound_out_of_range_raises(n):
    draws = draws_from(0)
    with pytest.raises(ValueError, match="2\\*\\*32 - 1"):
        draws.integers(n)


def test_stream_over_a_given_bit_generator():
    bits = np.random.PCG64(np.random.SeedSequence([3, 1]))
    assert Draws(bits).random() == rng_from(3, 1).random()
